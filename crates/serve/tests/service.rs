//! Black-box tests of `netalignd`: every test spawns the real binary
//! on an ephemeral port and speaks the wire protocol — nothing in here
//! reaches into server internals.

mod common;

use common::{align_doc, fetch_metrics, metric_u64, reply_f64, reply_matching, Daemon};
use netalign_core::config::AlignConfig;
use netalign_core::harness::RunHarness;
use netalign_core::problem::NetAlignProblem;
use netalign_graph::BipartiteGraph;
use netalign_matching::MatcherKind;
use netalign_serve::client::response_code;
use netalign_serve::fingerprint::Method;
use netalign_serve::protocol::{default_config, parse_request, AlignRequest, Request};
use netalign_trace::Json;
use std::time::{Duration, Instant};

/// Parse a wire document exactly the way the server does.
fn parse_align_doc(doc: &Json) -> AlignRequest {
    let payload = doc.render();
    let Request::Align(req) = parse_request(payload.as_bytes()).expect("parse own doc") else {
        panic!("expected align request");
    };
    *req
}

/// Solve the request's graphs directly with the run harness under
/// `config`, by the request's method: objective, sorted matching pairs
/// and iterations run.
fn direct_solve(req: &AlignRequest, config: &AlignConfig) -> (f64, Vec<(u64, u64)>, u64) {
    solve_problem(
        &NetAlignProblem::new(req.a.clone(), req.b.clone(), req.l.clone()),
        req.method,
        config,
    )
}

/// [`direct_solve`] over an already built problem.
fn solve_problem(
    problem: &NetAlignProblem,
    method: Method,
    config: &AlignConfig,
) -> (f64, Vec<(u64, u64)>, u64) {
    let harness = RunHarness::new();
    let outcome = match method {
        Method::Bp => harness.run_bp(problem, config),
        Method::Mr => harness.run_mr(problem, config),
    }
    .expect("direct solve");
    let mut pairs: Vec<(u64, u64)> = outcome
        .result
        .matching
        .pairs()
        .map(|(a, b)| (a as u64, b as u64))
        .collect();
    pairs.sort_unstable();
    (
        outcome.result.objective,
        pairs,
        outcome.iterations_run as u64,
    )
}

/// Re-parse a wire document exactly the way the server does and solve
/// it directly with the run harness — the reference the service must
/// match bit for bit.
fn direct_reference(doc: &Json) -> (f64, Vec<(u64, u64)>, u64) {
    let req = parse_align_doc(doc);
    direct_solve(&req, &req.config)
}

#[test]
fn served_alignment_is_bit_identical_to_direct_harness() {
    let daemon = Daemon::spawn(&[]);
    let doc = align_doc(70, 1, 8, None);
    let (objective, pairs, iterations) = direct_reference(&doc);

    let mut client = daemon.client();
    let reply = client.request(&doc).expect("align request");
    assert_eq!(response_code(&reply), 200, "reply: {}", reply.render());
    assert_eq!(
        reply_f64(&reply, "objective").to_bits(),
        objective.to_bits(),
        "served objective must be bit-identical to the direct harness"
    );
    assert_eq!(reply_matching(&reply), pairs);
    assert_eq!(
        reply.get("iterations_run").and_then(Json::as_u64),
        Some(iterations)
    );
    assert_eq!(
        reply.get("completion").and_then(Json::as_str),
        Some("completed")
    );
}

/// The server rounds every iterate with the greedy matcher and by
/// default re-rounds the best iterate exactly, keeping that matching
/// only when it scores at least as well. A request can turn the final
/// exact round off. On this instance the exact matching wins, so the
/// two replies differ. Each reply equals a direct harness solve of a
/// config built here, not parsed, so a parser or `finalize` that
/// ignored the flag would fail.
#[test]
fn final_exact_round_request_flag_is_honoured() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();
    let iterations = 3;
    let default_doc = align_doc(70, 7, iterations, None);
    let mut without = default_doc.clone();
    let Json::Obj(fields) = &mut without else {
        panic!("align doc is an object")
    };
    let (_, Json::Obj(config)) = fields
        .iter_mut()
        .find(|(k, _)| k == "config")
        .expect("config field")
    else {
        panic!("config is an object")
    };
    config.push(("final_exact_round".into(), Json::Bool(false)));

    let mut replies = Vec::new();
    for (doc, final_exact_round) in [(&default_doc, true), (&without, false)] {
        let req = parse_align_doc(doc);
        assert_eq!(req.config.final_exact_round, final_exact_round);
        assert_eq!(req.config.matcher, MatcherKind::Greedy);
        let built = AlignConfig {
            iterations,
            matcher: MatcherKind::Greedy,
            final_exact_round,
            ..AlignConfig::default()
        };
        let (objective, pairs, iterations_run) = direct_solve(&req, &built);
        let reply = client.request(doc).expect("align request");
        assert_eq!(response_code(&reply), 200, "reply: {}", reply.render());
        assert_eq!(
            reply_f64(&reply, "objective").to_bits(),
            objective.to_bits(),
            "served objective must be bit-identical to the direct harness \
             (final_exact_round {final_exact_round})"
        );
        assert_eq!(reply_matching(&reply), pairs);
        assert_eq!(
            reply.get("iterations_run").and_then(Json::as_u64),
            Some(iterations_run)
        );
        replies.push((objective, pairs));
    }
    assert!(
        replies[0].0 > replies[1].0,
        "the exact matching should win here: {} vs {}",
        replies[0].0,
        replies[1].0
    );
    assert_ne!(replies[0].1, replies[1].1);
}

/// Assert that a 200 reply carries exactly `expected`'s objective bits,
/// matching and iteration count.
fn assert_reply_equals(reply: &Json, expected: &(f64, Vec<(u64, u64)>, u64), label: &str) {
    assert_eq!(response_code(reply), 200, "{label}: {}", reply.render());
    assert_eq!(
        reply_f64(reply, "objective").to_bits(),
        expected.0.to_bits(),
        "{label}: objective"
    );
    assert_eq!(reply_matching(reply), expected.1, "{label}: matching");
    assert_eq!(
        reply.get("iterations_run").and_then(Json::as_u64),
        Some(expected.2),
        "{label}: iterations_run"
    );
}

/// netalignd's default matcher used to be the parallel LD matcher and
/// is now greedy. Both return the one unique matching under the total
/// edge order, so the switch changes no reply: a BP request, an MR
/// request and every step of a three-step `align_delta` chain each
/// equal a direct solve of the same graphs under `default_config()`
/// with the old matcher, bit for bit.
#[test]
fn default_matcher_switch_changes_no_reply() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();
    let iterations = 10;
    let old_default = AlignConfig {
        iterations,
        matcher: MatcherKind::ParallelLocalDominant,
        ..default_config()
    };

    let mut doc = align_doc(70, 13, iterations, None);
    let Json::Obj(fields) = &mut doc else {
        panic!("align doc is an object")
    };
    fields.push(("record".to_string(), Json::Bool(true)));
    let req = parse_align_doc(&doc);
    let base_reply = client.request(&doc).expect("recorded bp align");
    assert_reply_equals(&base_reply, &direct_solve(&req, &old_default), "bp");

    let mut mr_doc = align_doc(70, 13, iterations, None);
    let Json::Obj(fields) = &mut mr_doc else {
        panic!("align doc is an object")
    };
    fields.retain(|(k, _)| k != "method");
    fields.push(("method".to_string(), Json::str("mr")));
    let mr_req = parse_align_doc(&mr_doc);
    assert_eq!(mr_req.method, Method::Mr);
    let mr_reply = client.request(&mr_doc).expect("mr align");
    assert_reply_equals(&mr_reply, &direct_solve(&mr_req, &old_default), "mr");

    // Three chained deltas, each reweighting one candidate edge; the
    // reference applies the same edits to its own copy of L.
    let mut entries: Vec<(u32, u32, f64)> = (0..req.l.num_edges())
        .map(|e| {
            let (a, b) = req.l.endpoints(e);
            (a, b, req.l.weight(e))
        })
        .collect();
    let mut base = base_reply
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint")
        .to_string();
    for (step, (e, w)) in [(0, 1.75), (5, 0.25), (9, 1.5)].into_iter().enumerate() {
        entries[e].2 = w;
        let (a, b, _) = entries[e];
        let delta_doc = Json::obj(vec![
            ("op", Json::str("align_delta")),
            ("base", Json::str(base.clone())),
            (
                "l",
                Json::obj(vec![(
                    "reweight",
                    Json::Arr(vec![Json::Arr(vec![
                        Json::U64(a as u64),
                        Json::U64(b as u64),
                        Json::F64(w),
                    ])]),
                )]),
            ),
        ]);
        let reply = client.request(&delta_doc).expect("align_delta");
        let l = BipartiteGraph::from_entries(req.l.num_left(), req.l.num_right(), entries.clone());
        let patched = NetAlignProblem::new(req.a.clone(), req.b.clone(), l);
        let expected = solve_problem(&patched, Method::Bp, &old_default);
        assert_reply_equals(&reply, &expected, &format!("delta step {}", step + 1));
        base = reply
            .get("fingerprint")
            .and_then(Json::as_str)
            .expect("new fingerprint")
            .to_string();
    }
}

#[test]
fn warm_repeat_is_flagged_and_faster_and_still_bit_identical() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();
    // Build-heavy problem, one iteration: the squares-matrix build the
    // warm serve skips is ~a third of the cold serve, far above timing
    // noise.
    let doc = common::heavy_align_doc(200, 2, 1);

    let cold = client.request(&doc).expect("cold request");
    assert_eq!(response_code(&cold), 200);
    assert_eq!(cold.get("warm").and_then(Json::as_bool), Some(false));

    let warm_started = Instant::now();
    let warm = client.request(&doc).expect("warm request");
    let warm_wall = warm_started.elapsed();
    assert_eq!(response_code(&warm), 200);
    assert_eq!(
        warm.get("warm").and_then(Json::as_bool),
        Some(true),
        "second identical request must be served from the engine cache"
    );

    // Warm reuse must never change the answer.
    assert_eq!(
        reply_f64(&warm, "objective").to_bits(),
        reply_f64(&cold, "objective").to_bits()
    );
    assert_eq!(reply_matching(&warm), reply_matching(&cold));

    // And it must be measurably cheaper: the warm serve skips the
    // problem build entirely.
    let cold_solve = reply_f64(&cold, "solve_ms");
    let warm_solve = reply_f64(&warm, "solve_ms");
    assert!(
        warm_solve < cold_solve,
        "warm solve ({warm_solve:.2}ms) should beat cold ({cold_solve:.2}ms)"
    );
    assert!(
        warm_wall < Duration::from_secs(30),
        "warm serve took implausibly long"
    );

    let metrics = fetch_metrics(&daemon);
    assert!(metric_u64(&metrics, "cache.hits") >= 1);
    assert_eq!(metric_u64(&metrics, "cache.misses"), 1);
}

#[test]
fn tight_deadline_returns_best_so_far_not_an_error() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();
    // Far more iterations than 20ms allows: the SLO must clip the run.
    let doc = align_doc(120, 3, 200_000, Some(20));
    let reply = client.request(&doc).expect("deadline request");
    assert_eq!(
        response_code(&reply),
        200,
        "a tight deadline is not an error: {}",
        reply.render()
    );
    assert_eq!(
        reply.get("completion").and_then(Json::as_str),
        Some("deadline-best-so-far")
    );
    let iterations = reply
        .get("iterations_run")
        .and_then(Json::as_u64)
        .expect("iterations_run");
    assert!(
        iterations < 200_000,
        "the run must have been clipped, ran {iterations}"
    );
    // Best-so-far still carries a usable (feasible, scored) result.
    assert!(reply_f64(&reply, "objective").is_finite());
    let metrics = fetch_metrics(&daemon);
    assert_eq!(metric_u64(&metrics, "deadline_best_so_far"), 1);
}

#[test]
fn align_delta_replays_the_recorded_base_and_matches_a_cold_realign() {
    let daemon = Daemon::spawn(&[]);
    let mut client = daemon.client();

    // Recorded base align: same doc as a plain align plus record:true.
    let mut doc = align_doc(70, 9, 10, None);
    let Json::Obj(pairs) = &mut doc else { panic!() };
    pairs.push(("record".to_string(), Json::Bool(true)));
    let base_reply = client.request(&doc).expect("recorded align");
    assert_eq!(response_code(&base_reply), 200, "{}", base_reply.render());
    assert_eq!(
        base_reply.get("recorded").and_then(Json::as_bool),
        Some(true)
    );
    let base_fp = base_reply
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint")
        .to_string();

    // Pick delta edits against our own doc: reweight the first
    // candidate edge and insert a currently-absent candidate pair.
    let Request::Align(req) = parse_request(doc.render().as_bytes()).expect("parse own doc") else {
        panic!("expected align request");
    };
    let (r0, r1) = req.l.endpoints(0);
    let existing: std::collections::HashSet<(u32, u32)> =
        (0..req.l.num_edges()).map(|e| req.l.endpoints(e)).collect();
    let (iu, iv) = (0..req.l.num_left() as u32)
        .flat_map(|u| (0..req.l.num_right() as u32).map(move |v| (u, v)))
        .find(|p| !existing.contains(p))
        .expect("a free candidate slot");

    let delta_doc = Json::obj(vec![
        ("op", Json::str("align_delta")),
        ("id", Json::str("d-1")),
        ("base", Json::str(base_fp.clone())),
        (
            "l",
            Json::obj(vec![
                (
                    "insert",
                    Json::Arr(vec![Json::Arr(vec![
                        Json::U64(iu as u64),
                        Json::U64(iv as u64),
                        Json::F64(0.5),
                    ])]),
                ),
                (
                    "reweight",
                    Json::Arr(vec![Json::Arr(vec![
                        Json::U64(r0 as u64),
                        Json::U64(r1 as u64),
                        Json::F64(1.25),
                    ])]),
                ),
            ]),
        ),
    ]);
    let delta_reply = client.request(&delta_doc).expect("align_delta");
    assert_eq!(response_code(&delta_reply), 200, "{}", delta_reply.render());
    let new_fp = delta_reply
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("new fingerprint")
        .to_string();
    assert_ne!(new_fp, base_fp, "the patched problem must be re-keyed");
    let reused = delta_reply
        .get("delta")
        .and_then(|d| d.get("reused_iterations"))
        .and_then(Json::as_u64)
        .expect("delta.reused_iterations");
    assert!(reused >= 1, "replay must reuse recorded iterations");

    // The reference: a cold align of the *patched* graphs, solved
    // directly. Entry order is immaterial — L is canonicalized on
    // build — so the client-side rebuild is the same problem.
    let patched_entries: Vec<Json> = (0..req.l.num_edges())
        .map(|e| {
            let (a, b) = req.l.endpoints(e);
            let w = if (a, b) == (r0, r1) {
                1.25
            } else {
                req.l.weight(e)
            };
            Json::Arr(vec![Json::U64(a as u64), Json::U64(b as u64), Json::F64(w)])
        })
        .chain(std::iter::once(Json::Arr(vec![
            Json::U64(iu as u64),
            Json::U64(iv as u64),
            Json::F64(0.5),
        ])))
        .collect();
    let patched_doc = Json::obj(vec![
        ("op", Json::str("align")),
        ("method", Json::str("bp")),
        ("config", Json::obj(vec![("iterations", Json::U64(10))])),
        ("a", common::graph_json(&req.a)),
        ("b", common::graph_json(&req.b)),
        (
            "l",
            Json::obj(vec![("entries", Json::Arr(patched_entries))]),
        ),
    ]);
    let Request::Align(patched_req) = parse_request(patched_doc.render().as_bytes()).unwrap()
    else {
        panic!("expected align request");
    };
    assert_eq!(
        netalign_serve::fingerprint::render_fingerprint(patched_req.fingerprint),
        new_fp,
        "the delta reply's fingerprint must equal a cold client's key for the patched graphs"
    );
    let (objective, matching, _) = direct_reference(&patched_doc);
    assert_eq!(
        reply_f64(&delta_reply, "objective").to_bits(),
        objective.to_bits(),
        "delta re-align must be bit-identical to a cold solve of the patched problem"
    );
    assert_eq!(reply_matching(&delta_reply), matching);

    // Deltas chain: the re-keyed entry answers to the new fingerprint.
    let chain_doc = Json::obj(vec![
        ("op", Json::str("align_delta")),
        ("base", Json::str(new_fp.clone())),
        (
            "l",
            Json::obj(vec![(
                "reweight",
                Json::Arr(vec![Json::Arr(vec![
                    Json::U64(r0 as u64),
                    Json::U64(r1 as u64),
                    Json::F64(0.75),
                ])]),
            )]),
        ),
    ]);
    let chain_reply = client.request(&chain_doc).expect("chained delta");
    assert_eq!(response_code(&chain_reply), 200, "{}", chain_reply.render());

    // The old key is gone (re-keyed away) → typed 422, the fallback
    // signal a client needs to re-align with record:true.
    let stale = client.request(&delta_doc).expect("stale-base delta");
    assert_eq!(response_code(&stale), 422, "{}", stale.render());

    // An align served WITHOUT record cannot be a delta base → 422.
    let unrecorded = align_doc(40, 4, 4, None);
    let reply = client.request(&unrecorded).expect("plain align");
    assert_eq!(response_code(&reply), 200);
    let plain_fp = reply
        .get("fingerprint")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let bad = Json::obj(vec![
        ("op", Json::str("align_delta")),
        ("base", Json::str(plain_fp)),
        (
            "l",
            Json::obj(vec![(
                "reweight",
                Json::Arr(vec![Json::Arr(vec![
                    Json::U64(0),
                    Json::U64(0),
                    Json::F64(2.0),
                ])]),
            )]),
        ),
    ]);
    let reply = client.request(&bad).expect("unrecorded-base delta");
    assert_eq!(response_code(&reply), 422, "{}", reply.render());

    let metrics = fetch_metrics(&daemon);
    assert_eq!(metric_u64(&metrics, "delta.served"), 2);
    assert_eq!(metric_u64(&metrics, "delta.rejected"), 2);
    assert!(metric_u64(&metrics, "delta.reused_iterations") >= 1);
}

#[test]
fn malformed_and_oversized_requests_get_typed_errors_and_service_continues() {
    let daemon = Daemon::spawn(&["--max-frame-bytes", "4096"]);
    let mut client = daemon.client();

    // Garbage bytes → 400.
    let reply = client.request_raw(b"this is not json").expect("raw send");
    assert_eq!(response_code(&reply), 400);

    // Valid JSON, unknown op → 400.
    let reply = client
        .request(&Json::obj(vec![("op", Json::str("teleport"))]))
        .expect("unknown op");
    assert_eq!(response_code(&reply), 400);

    // Well-formed align with an out-of-range edge → 422.
    let bad = r#"{"op":"align","a":{"n":2,"edges":[[0,7]]},
                  "b":{"n":2,"edges":[[0,1]]},"l":{"entries":[[0,0,1.0]]}}"#;
    let reply = client.request_raw(bad.as_bytes()).expect("invalid align");
    assert_eq!(response_code(&reply), 422);

    // A frame over the limit → 413, and the connection stays usable.
    let reply = client.request_raw(&vec![b'x'; 8192]).expect("oversized");
    assert_eq!(response_code(&reply), 413);

    // Same connection, same server: real work still succeeds.
    let reply = client
        .request(&Json::obj(vec![("op", Json::str("ping"))]))
        .expect("ping after errors");
    assert_eq!(response_code(&reply), 200);
    let reply = client.request(&align_doc(40, 4, 4, None)).expect("align");
    assert_eq!(response_code(&reply), 200);

    let metrics = fetch_metrics(&daemon);
    assert_eq!(metric_u64(&metrics, "errors.malformed"), 2);
    assert_eq!(metric_u64(&metrics, "errors.invalid"), 1);
    assert_eq!(metric_u64(&metrics, "errors.oversized"), 1);
}

#[test]
fn metrics_and_health_expose_distributed_run_counters() {
    let daemon = Daemon::spawn(&[]);

    // The counters must be present (and zero) even in a daemon that
    // has never coordinated a distributed run — dashboards scrape them
    // unconditionally, and `metric_u64` panics on a missing key.
    let metrics = fetch_metrics(&daemon);
    for key in [
        "dist.solves",
        "dist.worker_restarts",
        "dist.retransmissions",
        "dist.repartitions",
        "dist.recoveries",
    ] {
        assert_eq!(metric_u64(&metrics, key), 0, "{key}");
    }

    // `health` carries the same counters so a supervisor can spot
    // recovery churn without the full metrics document.
    let mut client = daemon.client();
    let reply = client
        .request(&Json::obj(vec![("op", Json::str("health"))]))
        .expect("health request");
    assert_eq!(response_code(&reply), 200, "{}", reply.render());
    let dist = reply.get("dist").expect("health reply must carry dist");
    assert_eq!(dist.get("solves").and_then(Json::as_u64), Some(0));
    assert_eq!(dist.get("recoveries").and_then(Json::as_u64), Some(0));
}

#[test]
fn shutdown_drains_in_flight_work_then_exits_cleanly() {
    let daemon = Daemon::spawn(&[]);

    // Client A: a solve heavy enough to still be running when the
    // shutdown lands (no deadline — it must be drained, not clipped).
    let mut client_a = daemon.client();
    let in_flight = std::thread::spawn(move || client_a.request(&align_doc(150, 5, 400, None)));
    std::thread::sleep(Duration::from_millis(200));

    // Client B orders the drain.
    let mut client_b = daemon.client();
    let reply = client_b
        .request(&Json::obj(vec![("op", Json::str("shutdown"))]))
        .expect("shutdown request");
    assert_eq!(response_code(&reply), 200);

    // New work is refused (typed 503) or the connection is already
    // closed — either way, nothing new is admitted.
    match client_b.request(&align_doc(40, 6, 4, None)) {
        Ok(reply) => assert_eq!(response_code(&reply), 503, "{}", reply.render()),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
    }

    // The in-flight request is answered in full, not dropped.
    let reply = in_flight
        .join()
        .expect("client thread")
        .expect("in-flight reply");
    assert_eq!(response_code(&reply), 200, "{}", reply.render());
    assert_eq!(
        reply.get("completion").and_then(Json::as_str),
        Some("completed")
    );

    // And the daemon exits 0 on its own.
    let status = daemon
        .wait_for_exit(Duration::from_secs(30))
        .expect("daemon should exit after draining");
    assert!(status.success(), "exit status: {status:?}");
}
