//! Wire protocol of `netalignd`.
//!
//! # Framing
//!
//! Every message — both directions — is one *frame*: a 4-byte
//! big-endian `u32` byte length followed by that many bytes of UTF-8
//! JSON. A frame longer than the server's `max_frame_bytes` is
//! answered with code 413 and *drained* (the connection stays usable).
//!
//! # Requests
//!
//! ```text
//! {"op":"ping"}
//! {"op":"metrics"}
//! {"op":"health"}                   // ready/degraded + restart counters
//! {"op":"crash"}                    // abort now (needs --allow-crash-op)
//! {"op":"shutdown"}
//! {"op":"align", "id":"r-1", "method":"bp"|"mr",
//!  "deadline_ms":500,              // optional SLO, includes queue wait
//!  "record":true,                  // optional: record a delta base (bp only)
//!  "config":{"alpha":1.0,"beta":2.0,"gamma":0.99,"iterations":50,
//!            "batch":1,"mstep":10,
//!            "enriched_rounding":false,
//!            "final_exact_round":true},    // all optional
//!  "a":{"n":5,"edges":[[0,1],[1,2]]},
//!  "b":{"n":5,"edges":[[0,1]]},
//!  "l":{"entries":[[0,0,1.0],[1,1,0.9]]}}
//! {"op":"align_delta", "id":"r-2",
//!  "base":"00f1a2b3c4d5e6f7",      // fingerprint of a recorded base
//!  "a":{"insert":[[0,3]],"remove":[[1,2]]},   // graph deltas, optional
//!  "b":{},
//!  "l":{"insert":[[0,2,0.5]],"remove":[[1,1]],"reweight":[[0,0,1.5]]}}
//! ```
//!
//! `align_delta` re-aligns a *recorded* cached base against an edge
//! delta instead of shipping (and re-solving) the whole problem. The
//! server patches the cached problem in place and the entry answers to
//! the patched graphs' fingerprint afterwards, so clients chain deltas
//! by tracking the returned `fingerprint`. An unknown or unrecorded
//! base is a 422 — the client falls back to a full `align` with
//! `record:true`.
//!
//! # Responses
//!
//! Every response carries `code` (HTTP-flavored):
//!
//! | code | meaning                                             |
//! |------|-----------------------------------------------------|
//! | 200  | OK (aligned, completed or deadline-best-so-far)     |
//! | 400  | malformed frame (bad JSON, wrong shape)             |
//! | 408  | connection frame timeout (`--conn-timeout-ms`)      |
//! | 413  | frame exceeds `max_frame_bytes`                     |
//! | 422  | well-formed but invalid (graph/config out of range) |
//! | 429  | admission queue full — retry later                  |
//! | 500  | internal error (solver panicked; server survives)   |
//! | 503  | shutting down, or boot recovery still in progress — |
//! |      | the latter carries `retry_after_ms`                 |
//! | 504  | deadline elapsed with no result assembled           |
//!
//! An `align` 200 reply carries the outcome: `completion`
//! (`"completed"`, `"deadline-best-so-far"`, `"cancelled"`), `warm`
//! (whether the engine cache already held the built problem),
//! `fingerprint`, `recorded` (whether a delta base was captured),
//! objective/weight/overlap, the matching as `[[a,b],...]`, and
//! queue/solve timings in milliseconds.
//!
//! An `align_delta` 200 reply carries the same outcome fields plus
//! `base_fingerprint` (the key the delta was applied to),
//! `fingerprint` (the patched problem's new key), and a `delta`
//! object with the replay accounting (`reused_iterations`,
//! `rows_recomputed`, `row_slots_total`, stage reuse, squares-patch
//! counters).

use crate::fingerprint::{parse_fingerprint, problem_fingerprint, Method};
use crate::json;
use netalign_core::config::AlignConfig;
use netalign_core::delta::{DeltaStats, ProblemDelta};
use netalign_core::harness::AlignOutcome;
use netalign_graph::bipartite::BipartiteGraph;
use netalign_graph::delta::{CandidateDelta, GraphDelta};
use netalign_graph::undirected::Graph;
use netalign_matching::MatcherKind;
use netalign_trace::Json;
use std::io::{Read, Write};

/// OK.
pub const CODE_OK: u16 = 200;
/// Malformed frame or JSON.
pub const CODE_MALFORMED: u16 = 400;
/// Frame exceeds the server's `max_frame_bytes`.
pub const CODE_OVERSIZED: u16 = 413;
/// Per-connection frame timeout tripped mid-frame.
pub const CODE_TIMEOUT: u16 = 408;
/// Well-formed but semantically invalid request.
pub const CODE_INVALID: u16 = 422;
/// Admission queue full.
pub const CODE_OVERLOAD: u16 = 429;
/// The solver panicked on this request.
pub const CODE_INTERNAL: u16 = 500;
/// Server is draining; no new work accepted.
pub const CODE_SHUTTING_DOWN: u16 = 503;
/// Deadline elapsed without any result to return.
pub const CODE_DEADLINE: u16 = 504;

/// Ceiling on declared vertex counts (per side) — bounds allocation
/// from a hostile header before any edge is read.
pub const MAX_VERTICES: usize = 50_000_000;
/// Ceiling on `iterations` accepted over the wire.
pub const MAX_ITERATIONS: usize = 1_000_000;

/// One parsed request.
#[derive(Debug)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Metrics snapshot.
    Metrics,
    /// Readiness probe: `ready` once boot recovery (if any) finished.
    Health,
    /// Abort the process immediately (chaos testing; gated on
    /// `--allow-crash-op`, 422 otherwise).
    Crash,
    /// Drain and stop the server.
    Shutdown,
    /// Run an alignment.
    Align(Box<AlignRequest>),
    /// Re-align a recorded cached base against an edge delta.
    AlignDelta(Box<DeltaRequest>),
}

/// A validated `align` request, ready for admission.
#[derive(Debug)]
pub struct AlignRequest {
    /// Client-chosen echo tag.
    pub id: Option<String>,
    /// Aligner to run.
    pub method: Method,
    /// Full run config (server defaults applied).
    pub config: AlignConfig,
    /// SLO in milliseconds, measured from admission (includes queue
    /// wait). `None` = unbounded.
    pub deadline_ms: Option<u64>,
    /// Record the BP trajectory so later `align_delta` requests can
    /// replay against this run. BP only (422 otherwise at parse).
    pub record: bool,
    /// First input graph.
    pub a: Graph,
    /// Second input graph.
    pub b: Graph,
    /// Weighted candidate graph.
    pub l: BipartiteGraph,
    /// Cache key (see [`crate::fingerprint`]).
    pub fingerprint: u64,
}

/// A validated `align_delta` request. Only *shapes* are checked at
/// parse time; semantic errors (unknown edge, duplicate insert, out of
/// range endpoint) surface as 422 when the delta is applied to the
/// cached base.
#[derive(Debug)]
pub struct DeltaRequest {
    /// Client-chosen echo tag.
    pub id: Option<String>,
    /// Fingerprint of the recorded base entry to patch.
    pub base: u64,
    /// Edge edits to apply to `A`, `B`, `L`.
    pub delta: ProblemDelta,
}

/// Why a frame could not become a [`Request`].
#[derive(Debug)]
pub struct RequestError {
    /// Response code (400 or 422).
    pub code: u16,
    /// Human-readable description, echoed to the client.
    pub message: String,
}

impl RequestError {
    fn malformed(message: impl Into<String>) -> Self {
        RequestError {
            code: CODE_MALFORMED,
            message: message.into(),
        }
    }

    fn invalid(message: impl Into<String>) -> Self {
        RequestError {
            code: CODE_INVALID,
            message: message.into(),
        }
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

// The codec itself lives in `netalign_core::frame` (shared with the
// distributed execution transport); this module keeps `io::Result`
// wrappers so existing call sites — which classify errors by
// `ErrorKind` — stay unchanged. Torn tails surface as
// `UnexpectedEof` with the typed counts in the message.
pub use netalign_core::frame::{write_frame, FrameRead};

/// Read one length-prefixed frame, enforcing `max_len`.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> std::io::Result<FrameRead> {
    netalign_core::frame::read_frame(r, max_len).map_err(Into::into)
}

/// Render and send a [`Json`] document as one frame.
pub fn write_json(w: &mut impl Write, doc: &Json) -> std::io::Result<()> {
    write_frame(w, doc.render().as_bytes())
}

// ---------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------

fn get_str<'a>(obj: &'a Json, key: &str) -> Option<&'a str> {
    obj.get(key).and_then(Json::as_str)
}

/// Parse and validate one request payload.
pub fn parse_request(payload: &[u8]) -> Result<Request, RequestError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| RequestError::malformed("payload is not UTF-8"))?;
    let doc = json::parse(text).map_err(|e| RequestError::malformed(e.to_string()))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(RequestError::malformed("request must be a JSON object"));
    }
    match get_str(&doc, "op") {
        Some("ping") => Ok(Request::Ping),
        Some("metrics") => Ok(Request::Metrics),
        Some("health") => Ok(Request::Health),
        Some("crash") => Ok(Request::Crash),
        Some("shutdown") => Ok(Request::Shutdown),
        Some("align") => parse_align(&doc).map(|r| Request::Align(Box::new(r))),
        Some("align_delta") => parse_delta(&doc).map(|r| Request::AlignDelta(Box::new(r))),
        Some(other) => Err(RequestError::malformed(format!("unknown op '{other}'"))),
        None => Err(RequestError::malformed("missing string field 'op'")),
    }
}

fn parse_align(doc: &Json) -> Result<AlignRequest, RequestError> {
    let id = get_str(doc, "id").map(str::to_string);
    let method = match get_str(doc, "method") {
        None => Method::Bp,
        Some(name) => Method::parse(name)
            .ok_or_else(|| RequestError::invalid(format!("unknown method '{name}'")))?,
    };
    let deadline_ms =
        match doc.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or_else(|| {
                RequestError::invalid("deadline_ms must be a non-negative integer")
            })?),
        };
    let record = match doc.get("record") {
        None | Some(Json::Null) => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| RequestError::invalid("record must be a boolean"))?,
    };
    if record && method != Method::Bp {
        return Err(RequestError::invalid(
            "record requires method \"bp\" (delta replay is bp-only)",
        ));
    }
    let config = parse_config(doc.get("config"))?;
    let a = parse_graph(doc.get("a"), "a")?;
    let b = parse_graph(doc.get("b"), "b")?;
    let l = parse_candidate(doc.get("l"), a.num_vertices(), b.num_vertices())?;
    let fingerprint = problem_fingerprint(&a, &b, &l, method, &config);
    Ok(AlignRequest {
        id,
        method,
        config,
        deadline_ms,
        record,
        a,
        b,
        l,
        fingerprint,
    })
}

fn parse_delta(doc: &Json) -> Result<DeltaRequest, RequestError> {
    let id = get_str(doc, "id").map(str::to_string);
    let base = get_str(doc, "base")
        .ok_or_else(|| RequestError::invalid("missing string field 'base'"))
        .and_then(|s| {
            parse_fingerprint(s)
                .ok_or_else(|| RequestError::invalid("base must be a hex fingerprint"))
        })?;
    let delta = ProblemDelta {
        a: parse_graph_delta(doc.get("a"), "a")?,
        b: parse_graph_delta(doc.get("b"), "b")?,
        l: parse_candidate_delta(doc.get("l"))?,
    };
    if delta.is_empty() {
        return Err(RequestError::invalid("delta edits nothing"));
    }
    Ok(DeltaRequest { id, base, delta })
}

fn vertex_pair(v: &Json, what: &str, i: usize) -> Result<(u32, u32), RequestError> {
    let pair = v
        .as_arr()
        .filter(|p| p.len() == 2)
        .ok_or_else(|| RequestError::invalid(format!("{what}[{i}] must be [u, v]")))?;
    let u = pair[0]
        .as_u64()
        .and_then(|x| u32::try_from(x).ok())
        .ok_or_else(|| RequestError::invalid(format!("{what}[{i}][0] must be a vertex id")))?;
    let v = pair[1]
        .as_u64()
        .and_then(|x| u32::try_from(x).ok())
        .ok_or_else(|| RequestError::invalid(format!("{what}[{i}][1] must be a vertex id")))?;
    Ok((u, v))
}

fn weighted_triple(v: &Json, what: &str, i: usize) -> Result<(u32, u32, f64), RequestError> {
    let triple = v
        .as_arr()
        .filter(|t| t.len() == 3)
        .ok_or_else(|| RequestError::invalid(format!("{what}[{i}] must be [a, b, w]")))?;
    let a = triple[0]
        .as_u64()
        .and_then(|x| u32::try_from(x).ok())
        .ok_or_else(|| RequestError::invalid(format!("{what}[{i}][0] must be a vertex id")))?;
    let b = triple[1]
        .as_u64()
        .and_then(|x| u32::try_from(x).ok())
        .ok_or_else(|| RequestError::invalid(format!("{what}[{i}][1] must be a vertex id")))?;
    let w = triple[2]
        .as_f64()
        .filter(|x| x.is_finite())
        .ok_or_else(|| RequestError::invalid(format!("{what}[{i}][2] must be finite")))?;
    Ok((a, b, w))
}

fn pair_list(v: &Json, what: &str) -> Result<Vec<(u32, u32)>, RequestError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| RequestError::invalid(format!("{what} must be an array")))?;
    arr.iter()
        .enumerate()
        .map(|(i, e)| vertex_pair(e, what, i))
        .collect()
}

fn triple_list(v: &Json, what: &str) -> Result<Vec<(u32, u32, f64)>, RequestError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| RequestError::invalid(format!("{what} must be an array")))?;
    arr.iter()
        .enumerate()
        .map(|(i, e)| weighted_triple(e, what, i))
        .collect()
}

fn parse_graph_delta(value: Option<&Json>, name: &str) -> Result<GraphDelta, RequestError> {
    let mut d = GraphDelta::default();
    let Some(obj) = value else { return Ok(d) };
    if matches!(obj, Json::Null) {
        return Ok(d);
    }
    let Json::Obj(pairs) = obj else {
        return Err(RequestError::invalid(format!("{name} must be an object")));
    };
    for (key, v) in pairs {
        match key.as_str() {
            "insert" => d.insert = pair_list(v, &format!("{name}.insert"))?,
            "remove" => d.remove = pair_list(v, &format!("{name}.remove"))?,
            other => {
                return Err(RequestError::invalid(format!(
                    "unknown {name} delta field '{other}'"
                )))
            }
        }
    }
    Ok(d)
}

fn parse_candidate_delta(value: Option<&Json>) -> Result<CandidateDelta, RequestError> {
    let mut d = CandidateDelta::default();
    let Some(obj) = value else { return Ok(d) };
    if matches!(obj, Json::Null) {
        return Ok(d);
    }
    let Json::Obj(pairs) = obj else {
        return Err(RequestError::invalid("l must be an object"));
    };
    for (key, v) in pairs {
        match key.as_str() {
            "insert" => d.insert = triple_list(v, "l.insert")?,
            "remove" => d.remove = pair_list(v, "l.remove")?,
            "reweight" => d.reweight = triple_list(v, "l.reweight")?,
            other => {
                return Err(RequestError::invalid(format!(
                    "unknown l delta field '{other}'"
                )))
            }
        }
    }
    Ok(d)
}

/// Server-side config defaults: every iterate rounded by the greedy
/// matcher — the same unique matching as the paper's parallel
/// locally-dominant one, by one sort of packed keys — then one exact
/// matching of the best iterate kept when it scores at least as well
/// (`final_exact_round`, which a request may turn off). Matcher tracing
/// on (cheap), history off.
pub fn default_config() -> AlignConfig {
    AlignConfig {
        iterations: 50,
        matcher: MatcherKind::Greedy,
        final_exact_round: true,
        trace_matcher: true,
        record_history: false,
        ..AlignConfig::default()
    }
}

fn parse_config(value: Option<&Json>) -> Result<AlignConfig, RequestError> {
    let mut c = default_config();
    let Some(obj) = value else { return Ok(c) };
    if !matches!(obj, Json::Obj(_)) {
        return Err(RequestError::invalid("config must be an object"));
    }
    let Json::Obj(pairs) = obj else {
        unreachable!()
    };
    for (key, v) in pairs {
        match key.as_str() {
            "alpha" => c.alpha = num_f64(v, "config.alpha")?,
            "beta" => c.beta = num_f64(v, "config.beta")?,
            "gamma" => c.gamma = num_f64(v, "config.gamma")?,
            "iterations" => c.iterations = num_usize(v, "config.iterations")?,
            "batch" => c.batch = num_usize(v, "config.batch")?,
            "mstep" => c.mstep = num_usize(v, "config.mstep")?,
            "enriched_rounding" => c.enriched_rounding = boolean(v, "config.enriched_rounding")?,
            "final_exact_round" => c.final_exact_round = boolean(v, "config.final_exact_round")?,
            other => {
                return Err(RequestError::invalid(format!(
                    "unknown config field '{other}'"
                )))
            }
        }
    }
    // Mirror AlignConfig::validate (which panics) as typed 422s, plus
    // service-level resource ceilings.
    // num_f64 already rejected NaN, so plain comparisons are total here.
    if c.alpha < 0.0 || c.beta < 0.0 || (c.alpha == 0.0 && c.beta == 0.0) {
        return Err(RequestError::invalid(
            "alpha/beta must be non-negative with at least one positive",
        ));
    }
    if c.gamma <= 0.0 || c.gamma > 1.0 {
        return Err(RequestError::invalid("gamma must be in (0, 1]"));
    }
    if c.iterations == 0 || c.iterations > MAX_ITERATIONS {
        return Err(RequestError::invalid(format!(
            "iterations must be in 1..={MAX_ITERATIONS}"
        )));
    }
    if c.batch == 0 || c.mstep == 0 {
        return Err(RequestError::invalid("batch and mstep must be at least 1"));
    }
    Ok(c)
}

fn num_f64(v: &Json, what: &str) -> Result<f64, RequestError> {
    v.as_f64()
        .filter(|x| x.is_finite())
        .ok_or_else(|| RequestError::invalid(format!("{what} must be a finite number")))
}

fn num_usize(v: &Json, what: &str) -> Result<usize, RequestError> {
    v.as_u64()
        .and_then(|x| usize::try_from(x).ok())
        .ok_or_else(|| RequestError::invalid(format!("{what} must be a non-negative integer")))
}

fn boolean(v: &Json, what: &str) -> Result<bool, RequestError> {
    v.as_bool()
        .ok_or_else(|| RequestError::invalid(format!("{what} must be a boolean")))
}

fn parse_graph(value: Option<&Json>, name: &str) -> Result<Graph, RequestError> {
    let obj = value.ok_or_else(|| RequestError::invalid(format!("missing graph '{name}'")))?;
    let n = obj
        .get("n")
        .and_then(Json::as_u64)
        .and_then(|x| usize::try_from(x).ok())
        .ok_or_else(|| RequestError::invalid(format!("{name}.n must be a non-negative integer")))?;
    if n == 0 || n > MAX_VERTICES {
        return Err(RequestError::invalid(format!(
            "{name}.n must be in 1..={MAX_VERTICES}"
        )));
    }
    let edges = obj
        .get("edges")
        .and_then(Json::as_arr)
        .ok_or_else(|| RequestError::invalid(format!("{name}.edges must be an array")))?;
    let mut list = Vec::with_capacity(edges.len());
    for (i, e) in edges.iter().enumerate() {
        let pair = e
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| RequestError::invalid(format!("{name}.edges[{i}] must be [u, v]")))?;
        let u = pair[0]
            .as_u64()
            .filter(|&x| (x as usize) < n)
            .ok_or_else(|| RequestError::invalid(format!("{name}.edges[{i}][0] out of range")))?;
        let v = pair[1]
            .as_u64()
            .filter(|&x| (x as usize) < n)
            .ok_or_else(|| RequestError::invalid(format!("{name}.edges[{i}][1] out of range")))?;
        if u == v {
            return Err(RequestError::invalid(format!(
                "{name}.edges[{i}] is a self-loop"
            )));
        }
        list.push((u as u32, v as u32));
    }
    Ok(Graph::from_edges(n, list))
}

fn parse_candidate(
    value: Option<&Json>,
    na: usize,
    nb: usize,
) -> Result<BipartiteGraph, RequestError> {
    let obj = value.ok_or_else(|| RequestError::invalid("missing candidate graph 'l'"))?;
    let entries = obj
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| RequestError::invalid("l.entries must be an array"))?;
    if entries.is_empty() {
        return Err(RequestError::invalid("l.entries must be non-empty"));
    }
    let mut list = Vec::with_capacity(entries.len());
    for (i, e) in entries.iter().enumerate() {
        let triple = e
            .as_arr()
            .filter(|t| t.len() == 3)
            .ok_or_else(|| RequestError::invalid(format!("l.entries[{i}] must be [a, b, w]")))?;
        let a = triple[0]
            .as_u64()
            .filter(|&x| (x as usize) < na)
            .ok_or_else(|| RequestError::invalid(format!("l.entries[{i}][0] out of range")))?;
        let b = triple[1]
            .as_u64()
            .filter(|&x| (x as usize) < nb)
            .ok_or_else(|| RequestError::invalid(format!("l.entries[{i}][1] out of range")))?;
        let w = triple[2]
            .as_f64()
            .filter(|x| x.is_finite())
            .ok_or_else(|| RequestError::invalid(format!("l.entries[{i}][2] must be finite")))?;
        list.push((a as u32, b as u32, w));
    }
    BipartiteGraph::try_from_entries(na, nb, list)
        .map_err(|e| RequestError::invalid(format!("invalid candidate graph: {e}")))
}

// ---------------------------------------------------------------------
// Response building
// ---------------------------------------------------------------------

/// A typed error reply.
pub fn error_response(code: u16, message: &str, id: Option<&str>) -> Json {
    let mut pairs = vec![
        ("code", Json::U64(code as u64)),
        ("error", Json::str(message)),
    ];
    if let Some(id) = id {
        pairs.push(("id", Json::str(id)));
    }
    Json::obj(pairs)
}

/// A typed error reply that tells the client when to retry. Clients
/// use the *presence* of `retry_after_ms` to distinguish a transient
/// condition (boot recovery in progress) from a terminal one (drain
/// shutdown), so terminal errors must go through [`error_response`].
pub fn retry_response(code: u16, message: &str, retry_after_ms: u64, id: Option<&str>) -> Json {
    let mut pairs = vec![
        ("code", Json::U64(code as u64)),
        ("error", Json::str(message)),
        ("retry_after_ms", Json::U64(retry_after_ms)),
    ];
    if let Some(id) = id {
        pairs.push(("id", Json::str(id)));
    }
    Json::obj(pairs)
}

/// The outcome fields shared by `align` and `align_delta` replies.
fn outcome_fields(outcome: &AlignOutcome) -> Vec<(&'static str, Json)> {
    let r = &outcome.result;
    let matching: Vec<Json> = r
        .matching
        .pairs()
        .map(|(a, b)| Json::Arr(vec![Json::U64(a as u64), Json::U64(b as u64)]))
        .collect();
    vec![
        ("completion", Json::str(outcome.completion.label())),
        ("iterations_run", Json::U64(outcome.iterations_run as u64)),
        ("ladder_rung", Json::U64(outcome.ladder_rung as u64)),
        ("objective", Json::F64(r.objective)),
        ("weight", Json::F64(r.weight)),
        ("overlap", Json::F64(r.overlap)),
        ("best_iteration", Json::U64(r.best_iteration as u64)),
        ("upper_bound", r.upper_bound.map_or(Json::Null, Json::F64)),
        ("cardinality", Json::U64(r.matching.cardinality() as u64)),
        ("matching", Json::Arr(matching)),
    ]
}

/// A 200 align reply.
pub fn align_response(
    req: &AlignRequest,
    outcome: &AlignOutcome,
    warm: bool,
    recorded: bool,
    queue_ms: f64,
    solve_ms: f64,
) -> Json {
    let mut pairs = vec![("code", Json::U64(CODE_OK as u64))];
    if let Some(id) = &req.id {
        pairs.push(("id", Json::str(id.clone())));
    }
    pairs.extend([
        ("method", Json::str(req.method.name())),
        (
            "fingerprint",
            Json::str(crate::fingerprint::render_fingerprint(req.fingerprint)),
        ),
        ("warm", Json::Bool(warm)),
        ("recorded", Json::Bool(recorded)),
    ]);
    pairs.extend(outcome_fields(outcome));
    pairs.extend([
        ("queue_ms", Json::F64(queue_ms)),
        ("solve_ms", Json::F64(solve_ms)),
    ]);
    Json::obj(pairs)
}

/// A 200 align_delta reply: the shared outcome fields plus the
/// patched problem's new fingerprint and the replay accounting.
pub fn delta_response(
    req: &DeltaRequest,
    new_fingerprint: u64,
    outcome: &AlignOutcome,
    stats: &DeltaStats,
    queue_ms: f64,
    solve_ms: f64,
) -> Json {
    let mut pairs = vec![("code", Json::U64(CODE_OK as u64))];
    if let Some(id) = &req.id {
        pairs.push(("id", Json::str(id.clone())));
    }
    pairs.extend([
        ("method", Json::str(Method::Bp.name())),
        (
            "base_fingerprint",
            Json::str(crate::fingerprint::render_fingerprint(req.base)),
        ),
        (
            "fingerprint",
            Json::str(crate::fingerprint::render_fingerprint(new_fingerprint)),
        ),
        ("warm", Json::Bool(true)),
    ]);
    pairs.extend(outcome_fields(outcome));
    pairs.extend([
        (
            "delta",
            Json::obj(vec![
                (
                    "reused_iterations",
                    Json::U64(stats.delta_reused_iterations as u64),
                ),
                ("iterations_total", Json::U64(stats.iterations_total as u64)),
                ("rows_recomputed", Json::U64(stats.rows_recomputed as u64)),
                ("row_slots_total", Json::U64(stats.row_slots_total as u64)),
                ("seed_rows", Json::U64(stats.seed_rows as u64)),
                ("stages_reused", Json::U64(stats.stages_reused as u64)),
                ("stages_rematched", Json::U64(stats.stages_rematched as u64)),
                (
                    "escaped_at",
                    stats.escaped_at.map_or(Json::Null, |k| Json::U64(k as u64)),
                ),
                (
                    "squares",
                    Json::obj(vec![
                        (
                            "rows_reenumerated",
                            Json::U64(stats.squares.rows_reenumerated as u64),
                        ),
                        ("rows_reused", Json::U64(stats.squares.rows_reused as u64)),
                        (
                            "entries_reused",
                            Json::U64(stats.squares.entries_reused as u64),
                        ),
                        ("nnz", Json::U64(stats.squares.nnz as u64)),
                    ]),
                ),
            ]),
        ),
        ("queue_ms", Json::F64(queue_ms)),
        ("solve_ms", Json::F64(solve_ms)),
    ]);
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_roundtrip(payload: &[u8], max: u32) -> FrameRead {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        read_frame(&mut buf.as_slice(), max).unwrap()
    }

    #[test]
    fn frames_round_trip() {
        match frame_roundtrip(b"{\"op\":\"ping\"}", 1024) {
            FrameRead::Frame(p) => assert_eq!(p, b"{\"op\":\"ping\"}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_frames_are_drained_not_fatal() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        write_frame(&mut buf, b"after").unwrap();
        let mut r = buf.as_slice();
        match read_frame(&mut r, 10).unwrap() {
            FrameRead::Oversized(len) => assert_eq!(len, 100),
            other => panic!("{other:?}"),
        }
        // The stream stays frame-aligned: the next frame parses.
        match read_frame(&mut r, 10).unwrap() {
            FrameRead::Frame(p) => assert_eq!(p, b"after"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn eof_at_boundary_is_closed() {
        let empty: &[u8] = &[];
        assert!(matches!(
            read_frame(&mut { empty }, 10).unwrap(),
            FrameRead::Closed
        ));
    }

    fn align_doc() -> String {
        r#"{"op":"align","method":"bp","id":"t",
            "config":{"iterations":4},
            "a":{"n":3,"edges":[[0,1],[1,2]]},
            "b":{"n":3,"edges":[[0,1],[1,2]]},
            "l":{"entries":[[0,0,1.0],[1,1,1.0],[2,2,1.0]]}}"#
            .to_string()
    }

    #[test]
    fn align_request_parses_and_fingerprints() {
        let Request::Align(req) = parse_request(align_doc().as_bytes()).unwrap() else {
            panic!("expected align")
        };
        assert_eq!(req.method, Method::Bp);
        assert_eq!(req.config.iterations, 4);
        assert_eq!(req.config.matcher, MatcherKind::Greedy, "server default");
        assert!(req.config.final_exact_round, "server default");
        assert_eq!(req.l.num_edges(), 3);
        assert_ne!(req.fingerprint, 0);
    }

    #[test]
    fn typed_errors_for_bad_requests() {
        // Not JSON at all → 400.
        let e = parse_request(b"not json").unwrap_err();
        assert_eq!(e.code, CODE_MALFORMED);
        // Well-formed, bad semantics → 422.
        let bad = align_doc().replace("[[0,1],[1,2]]", "[[0,9]]");
        let e = parse_request(bad.as_bytes()).unwrap_err();
        assert_eq!(e.code, CODE_INVALID);
        let bad = align_doc().replace("\"iterations\":4", "\"iterations\":0");
        let e = parse_request(bad.as_bytes()).unwrap_err();
        assert_eq!(e.code, CODE_INVALID);
        let bad = align_doc().replace("\"bp\"", "\"simplex\"");
        let e = parse_request(bad.as_bytes()).unwrap_err();
        assert_eq!(e.code, CODE_INVALID);
        // A removed option is rejected, never silently ignored.
        for removed in ["\"warm_start\":true", "\"rounding\":\"ld\""] {
            let bad =
                align_doc().replace("\"iterations\":4", &format!("\"iterations\":4,{removed}"));
            let e = parse_request(bad.as_bytes()).unwrap_err();
            assert_eq!(e.code, CODE_INVALID, "{removed}");
            assert!(e.message.contains("unknown config field"), "{}", e.message);
        }
    }

    #[test]
    fn align_delta_parses_shapes_only() {
        let doc = r#"{"op":"align_delta","id":"d-1","base":"00f1a2b3c4d5e6f7",
            "a":{"insert":[[0,3]],"remove":[[1,2]]},
            "l":{"reweight":[[0,0,1.5]]}}"#;
        let Request::AlignDelta(req) = parse_request(doc.as_bytes()).unwrap() else {
            panic!("expected align_delta")
        };
        assert_eq!(req.base, 0x00f1_a2b3_c4d5_e6f7);
        assert_eq!(req.delta.a.insert, vec![(0, 3)]);
        assert_eq!(req.delta.a.remove, vec![(1, 2)]);
        assert!(req.delta.b.is_empty());
        assert_eq!(req.delta.l.reweight, vec![(0, 0, 1.5)]);

        // Missing base, bad hex, empty delta, record on mr → all 422.
        for bad in [
            r#"{"op":"align_delta","l":{"reweight":[[0,0,1.5]]}}"#.to_string(),
            r#"{"op":"align_delta","base":"zzz","l":{"reweight":[[0,0,1.5]]}}"#.to_string(),
            r#"{"op":"align_delta","base":"ff"}"#.to_string(),
            align_doc().replace("\"bp\"", "\"mr\",\"record\":true"),
        ] {
            let e = parse_request(bad.as_bytes()).unwrap_err();
            assert_eq!(e.code, CODE_INVALID, "{bad}");
        }

        // record on bp parses.
        let recorded =
            align_doc().replace("\"method\":\"bp\"", "\"method\":\"bp\",\"record\":true");
        let Request::Align(r) = parse_request(recorded.as_bytes()).unwrap() else {
            panic!()
        };
        assert!(r.record);
    }

    #[test]
    fn edge_order_does_not_change_the_fingerprint() {
        let Request::Align(r1) = parse_request(align_doc().as_bytes()).unwrap() else {
            panic!()
        };
        let swapped = align_doc().replace("[[0,1],[1,2]]", "[[1,2],[0,1]]");
        let Request::Align(r2) = parse_request(swapped.as_bytes()).unwrap() else {
            panic!()
        };
        assert_eq!(r1.fingerprint, r2.fingerprint);
        // Any weight change separates the keys.
        let reweighted = align_doc().replace("[0,0,1.0]", "[0,0,1.5]");
        let Request::Align(r3) = parse_request(reweighted.as_bytes()).unwrap() else {
            panic!()
        };
        assert_ne!(r1.fingerprint, r3.fingerprint);
    }
}
