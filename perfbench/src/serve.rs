//! `serve-mix`: netalignd's `ServerHandle` in this process (default
//! options, no state dir, ephemeral port, solve pool pinned to 2
//! threads) and two closed-loop `Client` connections sending
//! loadgen-shaped requests (power-law graphs, n = 150, 2 iterations).
//!
//! Each connection repeats a fixed 20-op cycle, rotated by the seed:
//! 13 warm repeats, 4 fresh problems and 3 `align_delta` requests.
//!
//! * Warm ops go round robin over two static problems and the
//!   connection's own delta chain at its current state. Together that
//!   is four cached problems, below the cache's eight slots.
//! * Fresh ops cycle through a ring of 8 problems per connection. At
//!   least 8 fresh inserts pass between two uses of one ring problem.
//!   That is more than the 4 free slots, so each use is a cold miss.
//!   It parses the whole graphs, builds S and evicts an entry.
//! * Delta ops reweight k = ⌈|E_L|/100⌉ candidates of the chain. A
//!   6-step cycle sets three disjoint edge sets and then restores
//!   them, so the chain only ever visits six states.
//!
//! Every op has a reference pinned in set-up: a direct `RunHarness`
//! solve of the same wire document, or of the full document of the
//! state a delta leads to. The pattern never fits 5 fresh inserts
//! between two touches of a cached warm entry, so the LRU never evicts
//! one. Every reply is checked: code 200, completion, the expected
//! warm/cold flag and fingerprint, a valid matching, and the
//! reference's matching and objective bits.

use crate::bp::{self, Instance, Reference};
use crate::ledger::Ledger;
use crate::measure::{repeated_setup, Args, Report, Window};
use crate::stats::{self, median};
use crate::{dist, sys};
use netalign_core::harness::RunHarness;
use netalign_core::problem::NetAlignProblem;
use netalign_graph::generators::{add_random_edges, identity_plus_noise_l, power_law_graph};
use netalign_graph::{BipartiteGraph, Graph};
use netalign_matching::Matching;
use netalign_serve::client::{response_code, Client};
use netalign_serve::fingerprint::render_fingerprint;
use netalign_serve::protocol::{parse_request, Request};
use netalign_serve::{ServerHandle, ServerOptions};
use netalign_trace::Json;
use rayon::ThreadPool;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Vertices per generated graph and iterations per request (loadgen's
/// defaults).
const VERTICES: usize = 150;
const ITERATIONS: u64 = 2;
/// Closed-loop client connections.
pub const CONNECTIONS: usize = 2;
const STATIC_PROBLEMS: usize = 2;
const FRESH_RING: usize = 8;
/// Disjoint reweight sets per delta chain; the chain cycle is twice
/// this (set each, then restore each).
const CHAIN_SETS: usize = 3;
const CHAIN_STATES: usize = 2 * CHAIN_SETS;
/// Ops per connection run and discarded at the end of set-up.
const WARMUP_OPS: usize = 10;
/// Ops of the schedule whose documents the parse/encode timings replay.
const CODEC_OPS: usize = 100;

/// Kind of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Repeat of a cached problem.
    Warm,
    /// Problem not in the cache.
    Fresh,
    /// `align_delta` against the connection's recorded chain.
    Delta,
}

use Kind::{Delta as D, Fresh as F, Warm as W};

/// One connection's op cycle: 13 warm, 4 fresh, 3 delta. Fresh ops are
/// 5 apart and deltas at most 7 apart, which bounds the fresh inserts
/// between two touches of any cached entry (see the module docs).
pub const PATTERN: [Kind; 20] = [W, W, F, W, D, W, W, F, W, W, W, D, F, W, W, W, W, F, D, W];

/// SplitMix64: small deterministic generator for seeds and choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Where connection `conn` starts in [`PATTERN`] for `seed`.
pub fn pattern_offset(seed: u64, conn: usize) -> usize {
    Rng::new(seed ^ 0x5e7e_0000 ^ (conn as u64) << 32).below(PATTERN.len())
}

/// The kind of op number `i` on connection `conn`.
pub fn kind_at(seed: u64, conn: usize, i: usize) -> Kind {
    PATTERN[(pattern_offset(seed, conn) + i) % PATTERN.len()]
}

/// A request the benchmark sends, with what the reply must hold.
struct Target {
    doc: Json,
    bytes: Vec<u8>,
    /// Fingerprint the reply must carry.
    fingerprint: String,
    reference: Reference,
    l: Arc<BipartiteGraph>,
}

/// A loadgen-shaped problem.
fn problem_graphs(problem_seed: u64) -> (Graph, Graph, BipartiteGraph) {
    let n = VERTICES;
    let base = power_law_graph(n, 2.2, 40, 0x5eed + problem_seed);
    let a = add_random_edges(&base, 2.0 / n as f64, 2 * problem_seed + 1);
    let b = add_random_edges(&base, 2.0 / n as f64, 2 * problem_seed + 2);
    let l = identity_plus_noise_l(n, n, 24.0 / n as f64, 1.0, 0.5, 3 * problem_seed + 5);
    (a, b, l)
}

fn graph_json(g: &Graph) -> Json {
    let edges = g
        .edges()
        .map(|(u, v)| Json::Arr(vec![Json::U64(u as u64), Json::U64(v as u64)]))
        .collect();
    Json::obj(vec![
        ("n", Json::U64(g.num_vertices() as u64)),
        ("edges", Json::Arr(edges)),
    ])
}

fn triples_json(entries: &[(u32, u32, f64)]) -> Json {
    Json::Arr(
        entries
            .iter()
            .map(|&(a, b, w)| {
                Json::Arr(vec![Json::U64(a as u64), Json::U64(b as u64), Json::F64(w)])
            })
            .collect(),
    )
}

fn entries(l: &BipartiteGraph) -> Vec<(u32, u32, f64)> {
    (0..l.num_edges())
        .map(|e| {
            let (a, b) = l.endpoints(e);
            (a, b, l.weight(e))
        })
        .collect()
}

fn align_doc(a: &Graph, b: &Graph, l: &[(u32, u32, f64)], record: bool) -> Json {
    let mut pairs = vec![
        ("op", Json::str("align")),
        ("method", Json::str("bp")),
        (
            "config",
            Json::obj(vec![("iterations", Json::U64(ITERATIONS))]),
        ),
        ("a", graph_json(a)),
        ("b", graph_json(b)),
        ("l", Json::obj(vec![("entries", triples_json(l))])),
    ];
    if record {
        pairs.push(("record", Json::Bool(true)));
    }
    Json::obj(pairs)
}

/// Parse `doc` exactly as the server does and solve it directly.
fn target(doc: Json, pool: &ThreadPool) -> Result<Target, String> {
    let bytes = doc.render().into_bytes();
    let Ok(Request::Align(req)) = parse_request(&bytes) else {
        return Err("benchmark built an unparsable align document".into());
    };
    let (config, fingerprint) = (req.config, req.fingerprint);
    let problem = pool.install(|| NetAlignProblem::new(req.a, req.b, req.l));
    let outcome = pool
        .install(|| RunHarness::new().run_bp(&problem, &config))
        .map_err(|e| format!("reference solve failed: {e}"))?;
    Ok(Target {
        doc,
        bytes,
        fingerprint: render_fingerprint(fingerprint),
        reference: Reference::of(&outcome.result),
        l: Arc::new(problem.l),
    })
}

/// One connection's recorded delta chain.
struct Chain {
    /// Full align document of each state (warm ops at that state).
    states: Vec<Target>,
    /// `deltas[j]` takes state `j` to state `j + 1` (mod the cycle).
    deltas: Vec<(Json, Vec<u8>)>,
    /// The record request that makes state 0 a delta base.
    record: Vec<u8>,
}

fn chain(problem_seed: u64, pool: &ThreadPool) -> Result<Chain, String> {
    let (a, b, l) = problem_graphs(problem_seed);
    let base = entries(&l);
    let k = base.len().div_ceil(100);
    let mut rng = Rng::new(problem_seed ^ 0xde17a);
    let mut order: Vec<usize> = (0..base.len()).collect();
    for i in 0..CHAIN_SETS * k {
        let j = i + rng.below(order.len() - i);
        order.swap(i, j);
    }
    // Exactly representable new weights that differ from the old ones.
    let sets: Vec<Vec<(usize, f64)>> = (0..CHAIN_SETS)
        .map(|s| {
            order[s * k..(s + 1) * k]
                .iter()
                .map(|&e| {
                    let mut w = (16 + rng.below(48)) as f64 / 16.0;
                    if w == base[e].2 {
                        w += 1.0;
                    }
                    (e, w)
                })
                .collect()
        })
        .collect();
    let mut weights: Vec<f64> = base.iter().map(|t| t.2).collect();
    let mut states = Vec::with_capacity(CHAIN_STATES);
    let mut deltas = Vec::with_capacity(CHAIN_STATES);
    for step in 0..CHAIN_STATES {
        let l_now: Vec<_> = base
            .iter()
            .zip(&weights)
            .map(|(&(x, y, _), &w)| (x, y, w))
            .collect();
        states.push(target(align_doc(&a, &b, &l_now, false), pool)?);
        // Steps 0..SETS apply set `step`; the rest restore set `step - SETS`.
        let (set, restore) = (step % CHAIN_SETS, step >= CHAIN_SETS);
        let reweight: Vec<(u32, u32, f64)> = sets[set]
            .iter()
            .map(|&(e, w)| {
                weights[e] = if restore { base[e].2 } else { w };
                (base[e].0, base[e].1, weights[e])
            })
            .collect();
        deltas.push(reweight);
    }
    let deltas = deltas
        .into_iter()
        .enumerate()
        .map(|(j, reweight)| {
            let doc = Json::obj(vec![
                ("op", Json::str("align_delta")),
                ("base", Json::str(states[j].fingerprint.clone())),
                ("l", Json::obj(vec![("reweight", triples_json(&reweight))])),
            ]);
            let bytes = doc.render().into_bytes();
            (doc, bytes)
        })
        .collect();
    let record = align_doc(&a, &b, &base, true).render().into_bytes();
    Ok(Chain {
        states,
        deltas,
        record,
    })
}

/// Where one connection is in its schedule; carried from set-up into
/// the timed window so the chain state and rings stay in step.
#[derive(Clone, Copy, Default)]
struct Cursor {
    op: usize,
    warm: usize,
    fresh: usize,
    chain: usize,
}

/// One request as the schedule dictates, and what its reply must show.
struct Planned<'a> {
    kind: Kind,
    doc: &'a Json,
    bytes: &'a [u8],
    expect: &'a Target,
    warm: bool,
}

/// Everything one benchmark run of `serve-mix` sends.
pub struct Traffic {
    seed: u64,
    statics: Vec<Target>,
    chains: Vec<Chain>,
    fresh: Vec<Vec<Target>>,
    /// Median squares build of the fresh problems, and one of them.
    pub squares: Instance,
}

impl Traffic {
    pub fn new(seed: u64, pool: &ThreadPool) -> Result<Traffic, String> {
        let base = seed.wrapping_mul(1000);
        let doc = |i: u64| {
            let (a, b, l) = problem_graphs(base + i);
            align_doc(&a, &b, &entries(&l), false)
        };
        let statics = (0..STATIC_PROBLEMS as u64)
            .map(|i| target(doc(i), pool))
            .collect::<Result<_, _>>()?;
        let chains = (0..CONNECTIONS as u64)
            .map(|c| chain(base + 100 + c, pool))
            .collect::<Result<_, _>>()?;
        let mut fresh = Vec::with_capacity(CONNECTIONS);
        let mut builds = Vec::new();
        for c in 0..CONNECTIONS as u64 {
            let ring = (0..FRESH_RING as u64)
                .map(|i| {
                    let (a, b, l) = problem_graphs(base + 200 + 10 * c + i);
                    builds.push(Instance::build(a, b, l, pool).squares_ms);
                    target(doc(200 + 10 * c + i), pool)
                })
                .collect::<Result<_, _>>()?;
            fresh.push(ring);
        }
        let (a, b, l) = problem_graphs(base + 200);
        let mut squares = Instance::build(a, b, l, pool);
        squares.squares_ms = median(&builds);
        Ok(Traffic {
            seed,
            statics,
            chains,
            fresh,
            squares,
        })
    }

    /// The next request of connection `conn`; advances its cursor
    /// (except the chain state, which moves once the delta succeeded).
    fn plan(&self, conn: usize, cur: &mut Cursor) -> Planned<'_> {
        let kind = kind_at(self.seed, conn, cur.op);
        cur.op += 1;
        let chain = &self.chains[conn];
        match kind {
            Kind::Warm => {
                let slot = cur.warm % (STATIC_PROBLEMS + 1);
                cur.warm += 1;
                let t = self.statics.get(slot).unwrap_or(&chain.states[cur.chain]);
                Planned {
                    kind,
                    doc: &t.doc,
                    bytes: &t.bytes,
                    expect: t,
                    warm: true,
                }
            }
            Kind::Fresh => {
                let t = &self.fresh[conn][cur.fresh % FRESH_RING];
                cur.fresh += 1;
                Planned {
                    kind,
                    doc: &t.doc,
                    bytes: &t.bytes,
                    expect: t,
                    warm: false,
                }
            }
            Kind::Delta => {
                let (doc, bytes) = &chain.deltas[cur.chain];
                let t = &chain.states[(cur.chain + 1) % CHAIN_STATES];
                Planned {
                    kind,
                    doc,
                    bytes,
                    expect: t,
                    warm: true,
                }
            }
        }
    }
}

/// What one reply reported, for the layer metrics.
#[derive(Clone, Copy, Debug)]
struct Sample {
    kind: Kind,
    wall_ms: f64,
    queue_ms: f64,
    solve_ms: f64,
    /// `(rows_recomputed, row_slots_total, stages_reused, stages_total)`
    /// of a delta reply.
    delta: Option<[u64; 4]>,
}

fn num(reply: &Json, key: &str) -> f64 {
    reply.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn check_reply(reply: &Json, plan: &Planned) -> Result<(), String> {
    let code = response_code(reply);
    if code != 200 {
        let msg = reply.get("error").and_then(Json::as_str).unwrap_or("");
        return Err(format!("{:?} op got code {code}: {msg}", plan.kind));
    }
    if reply.get("completion").and_then(Json::as_str) != Some("completed") {
        return Err(format!("{:?} op did not complete", plan.kind));
    }
    if reply.get("warm").and_then(Json::as_bool) != Some(plan.warm) {
        return Err(format!("{:?} op expected warm={}", plan.kind, plan.warm));
    }
    if reply.get("fingerprint").and_then(Json::as_str) != Some(plan.expect.fingerprint.as_str()) {
        return Err(format!(
            "{:?} op answered for another fingerprint",
            plan.kind
        ));
    }
    let l = &plan.expect.l;
    let mut m = Matching::empty(l.num_left(), l.num_right());
    for pair in reply.get("matching").and_then(Json::as_arr).unwrap_or(&[]) {
        let ab: Vec<u64> = pair
            .as_arr()
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_u64)
            .collect();
        match ab[..] {
            [a, b] if (a as usize) < l.num_left() && (b as usize) < l.num_right() => {
                if !l.has_edge(a as u32, b as u32) {
                    return Err("matched pair is not a candidate edge".into());
                }
                if m.mate_of_left(a as u32).is_some() || m.mate_of_right(b as u32).is_some() {
                    return Err("vertex matched twice".into());
                }
                m.add_pair(a as u32, b as u32)
            }
            _ => return Err("malformed matching pair".into()),
        }
    }
    plan.expect.reference.check(l, &m, num(reply, "objective"))
}

fn delta_counts(reply: &Json) -> Option<[u64; 4]> {
    let d = reply.get("delta")?;
    let get = |k: &str| d.get(k).and_then(Json::as_u64).unwrap_or(0);
    let reused = get("stages_reused");
    Some([
        get("rows_recomputed"),
        get("row_slots_total"),
        reused,
        reused + get("stages_rematched"),
    ])
}

/// Send one planned request; time it; check it; span it when traced.
fn send(
    client: &mut Client,
    plan: &Planned,
    ledger: Option<(&Mutex<Ledger>, u64)>,
) -> (Sample, Result<(), String>) {
    let root = ledger.map(|(l, op)| {
        (
            l,
            l.lock()
                .expect("ledger lock")
                .open("serve.request", op, None),
        )
    });
    let t0 = Instant::now();
    let reply = client.request_raw(plan.bytes);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Some((l, id)) = root {
        l.lock().expect("ledger lock").close(id);
    }
    let reply = match reply {
        Ok(r) => r,
        Err(e) => {
            let s = Sample {
                kind: plan.kind,
                wall_ms,
                queue_ms: 0.0,
                solve_ms: 0.0,
                delta: None,
            };
            return (s, Err(format!("transport: {e}")));
        }
    };
    let checked = check_reply(&reply, plan);
    let sample = Sample {
        kind: plan.kind,
        wall_ms,
        queue_ms: num(&reply, "queue_ms"),
        solve_ms: num(&reply, "solve_ms"),
        delta: delta_counts(&reply),
    };
    if let (Some((l, id)), true) = (root, checked.is_ok()) {
        // The server's timers, placed inside the round trip with the
        // unaccounted time split evenly before and after them.
        let mut l = l.lock().expect("ledger lock");
        let gap = (wall_ms - sample.queue_ms - sample.solve_ms) / 2.0;
        l.derived("serve.queue", id, gap, sample.queue_ms);
        let solve = match plan.kind {
            Kind::Warm => "serve.solve_warm",
            Kind::Fresh => "serve.solve_cold",
            Kind::Delta => "serve.solve_delta",
        };
        l.derived(solve, id, gap + sample.queue_ms, sample.solve_ms);
    }
    (sample, checked)
}

/// A running server primed with the traffic's cached problems.
pub struct Setup {
    pub traffic: Traffic,
    server: Option<ServerHandle>,
    cursors: Vec<Cursor>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.wait();
        }
    }
}

impl Setup {
    pub fn new(seed: u64, threads: usize, pool: &ThreadPool) -> Result<Setup, String> {
        let traffic = Traffic::new(seed, pool)?;
        let opts = ServerOptions {
            threads: Some(threads),
            ..ServerOptions::default()
        };
        let server = ServerHandle::start(opts).map_err(|e| format!("server start: {e}"))?;
        let mut st = Setup {
            traffic,
            server: Some(server),
            cursors: vec![Cursor::default(); CONNECTIONS],
        };
        let mut client = st.client()?;
        // Prime: the static problems (cold), then record each chain.
        for t in &st.traffic.statics {
            let plan = Planned {
                kind: Kind::Fresh,
                doc: &t.doc,
                bytes: &t.bytes,
                expect: t,
                warm: false,
            };
            send(&mut client, &plan, None).1?;
        }
        for c in &st.traffic.chains {
            let t = &c.states[0];
            let plan = Planned {
                kind: Kind::Fresh,
                doc: &t.doc,
                bytes: &c.record,
                expect: t,
                warm: false,
            };
            send(&mut client, &plan, None).1?;
        }
        for conn in 0..CONNECTIONS {
            let mut cur = st.cursors[conn];
            for _ in 0..WARMUP_OPS {
                let (_, checked) = st.op(&mut client, conn, &mut cur, None);
                checked?;
            }
            st.cursors[conn] = cur;
        }
        Ok(st)
    }

    fn client(&self) -> Result<Client, String> {
        let addr = self.server.as_ref().expect("server runs until drop").addr();
        Client::connect(addr).map_err(|e| format!("connect: {e}"))
    }

    fn op(
        &self,
        client: &mut Client,
        conn: usize,
        cur: &mut Cursor,
        ledger: Option<(&Mutex<Ledger>, u64)>,
    ) -> (Sample, Result<(), String>) {
        let plan = self.traffic.plan(conn, cur);
        let out = send(client, &plan, ledger);
        if plan.kind == Kind::Delta && out.1.is_ok() {
            cur.chain = (cur.chain + 1) % CHAIN_STATES;
        }
        out
    }

    fn cache_counts(&self) -> Result<(f64, f64), String> {
        let reply = self
            .client()?
            .request(&Json::obj(vec![("op", Json::str("metrics"))]))
            .map_err(|e| format!("metrics op: {e}"))?;
        let cache = reply.get("metrics").unwrap_or(&reply).get("cache");
        let get = |k: &str| cache.and_then(|c| c.get(k)).and_then(Json::as_f64);
        match (get("hits"), get("misses")) {
            (Some(h), Some(m)) => Ok((h, m)),
            _ => Err("metrics reply has no cache counters".into()),
        }
    }

    /// Both connections in closed loops for `seconds`. Without a
    /// ledger every op lands in the first window. With one, each
    /// connection alternates whole [`PATTERN`] cycles: untraced ops go
    /// to the first window and traced ops (spans into `ledger`) to the
    /// second, so both see the same mix and the same host conditions.
    fn window(
        &mut self,
        seconds: f64,
        ledger: Option<&Mutex<Ledger>>,
    ) -> (Window, Window, Vec<Sample>) {
        type PerConn = (Window, Window, Vec<Sample>, Cursor);
        let cpu0 = sys::cpu_times().total_ms();
        let t0 = Instant::now();
        let this = &*self;
        let per_conn: Vec<PerConn> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CONNECTIONS)
                .map(|conn| {
                    scope.spawn(move || {
                        let mut cur = this.cursors[conn];
                        let (mut plain, mut traced) = (Window::default(), Window::default());
                        let mut samples = Vec::new();
                        let mut client = match this.client() {
                            Ok(c) => c,
                            Err(e) => {
                                plain.record(0.0, Err(e));
                                return (plain, traced, samples, cur);
                            }
                        };
                        while t0.elapsed().as_secs_f64() < seconds {
                            let op = (conn as u64) << 32 | cur.op as u64;
                            let spans = ledger.filter(|_| (cur.op / PATTERN.len()) % 2 == 1);
                            let (s, checked) =
                                this.op(&mut client, conn, &mut cur, spans.map(|l| (l, op)));
                            let w = if spans.is_some() {
                                &mut traced
                            } else {
                                &mut plain
                            };
                            w.record(s.wall_ms, checked);
                            samples.push(s);
                        }
                        (plain, traced, samples, cur)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let (mut plain, mut traced) = (Window::default(), Window::default());
        let mut samples = Vec::new();
        for (conn, (p, t, s, cur)) in per_conn.into_iter().enumerate() {
            plain.merge(p);
            traced.merge(t);
            samples.extend(s);
            self.cursors[conn] = cur;
        }
        plain.secs = t0.elapsed().as_secs_f64();
        plain.cpu_ms = sys::cpu_times().total_ms() - cpu0;
        (plain, traced, samples)
    }

    /// Median parse and render times and mean size of the first
    /// [`CODEC_OPS`] requests of connection 0's schedule.
    fn codec_costs(&self) -> (f64, f64, f64) {
        let mut cur = Cursor::default();
        let (mut parse, mut encode, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..CODEC_OPS {
            let plan = self.traffic.plan(0, &mut cur);
            let t0 = Instant::now();
            let parsed = parse_request(plan.bytes);
            parse.push(t0.elapsed().as_secs_f64() * 1e3);
            assert!(parsed.is_ok(), "the benchmark's own documents parse");
            let t0 = Instant::now();
            let rendered = plan.doc.render();
            encode.push(t0.elapsed().as_secs_f64() * 1e3);
            bytes.push(rendered.len() as f64);
        }
        (
            median(&parse),
            median(&encode),
            stats::mean(&bytes) / 1024.0,
        )
    }

    /// Run a window of alternating untraced and traced cycles and emit
    /// the serve and delta layer metrics (over every op: the server's
    /// timers do not see client-side tracing). Returns the untraced
    /// window.
    pub fn traced(&mut self, rep: &mut Report, ledger: &Mutex<Ledger>, seconds: f64) -> Window {
        let before = self.cache_counts();
        let (w, traced, samples) = self.window(seconds, Some(ledger));
        rep.count(&w);
        rep.count(&traced);
        let ok: Vec<&Sample> = samples.iter().filter(|s| s.queue_ms.is_finite()).collect();
        let by = |k: Kind| -> Vec<f64> {
            ok.iter()
                .filter(|s| s.kind == k)
                .map(|s| s.solve_ms)
                .collect()
        };
        let (parse, encode, kib) = self.codec_costs();
        rep.metric("serve.parse_ms", parse, "ms");
        rep.metric("serve.encode_ms", encode, "ms");
        rep.metric("serve.request_kib", kib, "KiB");
        rep.metric(
            "serve.queue_ms",
            median(&ok.iter().map(|s| s.queue_ms).collect::<Vec<_>>()),
            "ms",
        );
        rep.metric("serve.solve_warm_ms", median(&by(Kind::Warm)), "ms");
        rep.metric("serve.solve_cold_ms", median(&by(Kind::Fresh)), "ms");
        rep.metric("serve.solve_delta_ms", median(&by(Kind::Delta)), "ms");
        let overhead: Vec<f64> = ok
            .iter()
            .map(|s| s.wall_ms - s.queue_ms - s.solve_ms)
            .collect();
        rep.metric("serve.overhead_ms", median(&overhead), "ms");
        match (before, self.cache_counts()) {
            (Ok((h0, m0)), Ok((h1, m1))) => rep.metric(
                "serve.cache_hit_ratio",
                (h1 - h0) / (h1 - h0 + m1 - m0),
                "ratio",
            ),
            (Err(e), _) | (_, Err(e)) => rep.problems.push(e),
        }
        let d: [u64; 4] = ok.iter().filter_map(|s| s.delta).fold([0; 4], |acc, x| {
            [acc[0] + x[0], acc[1] + x[1], acc[2] + x[2], acc[3] + x[3]]
        });
        rep.metric(
            "delta.rows_recomputed_ratio",
            d[0] as f64 / d[1] as f64,
            "ratio",
        );
        rep.metric(
            "delta.stages_reused_ratio",
            d[2] as f64 / d[3] as f64,
            "ratio",
        );
        w
    }
}

fn kind_context(samples: &[Sample]) -> Json {
    let kinds = [
        (Kind::Warm, "warm"),
        (Kind::Fresh, "fresh"),
        (Kind::Delta, "delta"),
    ];
    Json::obj(
        kinds
            .iter()
            .map(|&(k, name)| {
                let wall = stats::sorted(
                    samples
                        .iter()
                        .filter(|s| s.kind == k)
                        .map(|s| s.wall_ms)
                        .collect(),
                );
                let q =
                    |p: f64| stats::percentile(&wall, p).map_or(Json::Null, |p| Json::F64(p.value));
                let share = wall.len() as f64 / samples.len().max(1) as f64;
                (
                    name,
                    Json::obj(vec![
                        ("ops", Json::U64(wall.len() as u64)),
                        ("share", Json::F64(share)),
                        ("p50_ms", q(0.5)),
                        ("p90_ms", q(0.9)),
                    ]),
                )
            })
            .collect(),
    )
}

pub fn run(args: &Args) -> Report {
    let mut rep = Report::default();
    let threads = sys::pool_threads();
    let pool = bp::pool(threads);
    let (mut st, setup_s) = match repeated_setup(|| Setup::new(args.seed, threads, &pool)) {
        Ok(x) => x,
        Err(e) => {
            rep.problems.push(format!("set-up failed: {e}"));
            return rep;
        }
    };
    rep.context("instance", st.traffic.squares.shape_json());
    rep.context("pool_threads", Json::U64(threads as u64));
    rep.context("connections", Json::U64(CONNECTIONS as u64));
    if !args.trace {
        let (w, _, samples) = st.window(args.seconds, None);
        rep.end_to_end(&setup_s, &w);
        rep.context("kinds", kind_context(&samples));
        return rep;
    }
    let ledger = Mutex::new(Ledger::new());
    let untraced = st.traced(&mut rep, &ledger, args.seconds);
    let mut ledger = ledger.into_inner().expect("ledger lock");
    bp::residual_metrics(&mut rep, &untraced, &ledger, "serve.request");
    // The solves behind the requests, traced in process on a static
    // problem's wire document.
    let t = &st.traffic.statics[0];
    let Ok(Request::Align(req)) = parse_request(&t.bytes) else {
        unreachable!("set-up parsed this document")
    };
    let problem = NetAlignProblem::new(req.a, req.b, req.l);
    let (last, w) = bp::trace_engine(
        &mut ledger,
        1 << 40,
        50,
        &problem,
        &req.config,
        &pool,
        &t.reference,
    );
    rep.count(&w);
    bp::squares_metrics(&mut rep, &st.traffic.squares);
    bp::engine_metrics(&mut rep, &ledger, &problem, &last);
    drop(st);
    dist::probe(&mut rep, &mut ledger, args.seed, &pool);
    crate::write_ledger(&ledger, args, &rep);
    rep
}

/// Length of the probe's traced window.
const PROBE_SECONDS: f64 = 1.0;

/// The serve and delta layer metrics on a short `serve-mix` run with
/// the same seed, for workloads whose own ops do not go through the
/// server.
pub fn probe(rep: &mut Report, ledger: &mut Ledger, seed: u64) {
    let threads = sys::pool_threads();
    let pool = bp::pool(threads);
    match Setup::new(seed, threads, &pool) {
        Ok(mut st) => {
            let shared = Mutex::new(std::mem::take(ledger));
            st.traced(rep, &shared, PROBE_SECONDS);
            *ledger = shared.into_inner().expect("ledger lock");
        }
        Err(e) => rep.problems.push(format!("serve probe set-up failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_has_the_stated_proportions() {
        let count = |k: Kind| PATTERN.iter().filter(|&&x| x == k).count();
        assert_eq!((count(W), count(F), count(D)), (13, 4, 3));
    }

    #[test]
    fn every_seed_hits_the_proportions_on_each_connection() {
        for seed in [0u64, 1, 7, 42, 1 << 40] {
            for conn in 0..CONNECTIONS {
                let ops = 20 * 50;
                let kinds: Vec<Kind> = (0..ops).map(|i| kind_at(seed, conn, i)).collect();
                let share = |k: Kind| kinds.iter().filter(|&&x| x == k).count() as f64 / ops as f64;
                assert_eq!(share(W), 0.65, "seed {seed} conn {conn}");
                assert_eq!(share(F), 0.20);
                assert_eq!(share(D), 0.15);
            }
        }
        // The seed moves where each connection starts in the cycle.
        let offsets: std::collections::BTreeSet<usize> =
            (0..64).map(|s| pattern_offset(s, 0)).collect();
        assert!(offsets.len() > 10);
        assert_eq!(kind_at(9, 1, 3), kind_at(9, 1, 23));
    }

    #[test]
    fn fresh_and_delta_ops_are_spread_through_the_cycle() {
        // Any window of 7 consecutive ops holds at most 2 fresh ops and
        // at least one delta, wrapping around the cycle.
        let n = PATTERN.len();
        for start in 0..n {
            let window: Vec<Kind> = (0..7).map(|i| PATTERN[(start + i) % n]).collect();
            assert!(
                window.iter().filter(|&&k| k == F).count() <= 2,
                "start {start}"
            );
            assert!(window.contains(&D), "start {start}");
        }
    }
}
