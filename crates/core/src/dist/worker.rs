//! The worker process: one rank of the distributed BP/matching run.
//!
//! A worker is the *same binary* as the coordinator, re-entered via the
//! `NETALIGN_DIST_WORKER=<addr>#<slot>` environment variable — every
//! distributed-capable binary calls [`maybe_run_worker`] first thing in
//! `main`. The worker dials the coordinator, says `Hello{slot}`, and
//! then serves requests forever:
//!
//! * BP supersteps compute through the engine's Listing 2 kernels
//!   ([`crate::bp`]'s scalar functions and the statistics of
//!   [`othermax`](mod@crate::bp::othermax)) over this rank's block of
//!   edges and rows of `S`, with the transpose values of those rows fed
//!   by the halo exchange, so the iterates are the engine's bit for
//!   bit,
//! * matcher phases delegate to the transport-agnostic
//!   [`RankCore`](netalign_matching::distributed::RankCore),
//! * every `Finish` writes an `NADC` checkpoint **before** replying, so
//!   the coordinator's last gathered iteration is always durable,
//! * requests are deduplicated by sequence number: a repeat of the last
//!   `seq` re-serves the cached reply without re-executing (the
//!   coordinator retransmits on timeout; execution must stay
//!   exactly-once).
//!
//! A torn or closed connection makes the worker re-dial and re-`Hello`;
//! if the coordinator is gone the worker exits cleanly. Deterministic
//! crash points (`NETALIGN_FAULT_KILL=dist-recv|dist-solve|dist-send`)
//! abort the process at exact protocol moments for the chaos suite.

use super::ckpt::{self, CkptBlock};
use super::rpc::MAX_FRAME;
use super::wire::{decode_frame, encode_frame, Frame, MatchPhase, Reply, Request, SetupMsg};
use crate::bp::othermax::{self, column_positions, max2, othermax, push, Max2};
use crate::bp::{damped, edge_messages, f_row};
use crate::frame::{self, FrameRead};
use netalign_graph::BipartiteGraph;
use netalign_matching::distributed::RankCore;
use netalign_trace::faults;
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Environment variable that turns a process into a worker.
pub const WORKER_ENV: &str = "NETALIGN_DIST_WORKER";

/// If this process was spawned as a distributed worker, run the worker
/// loop and exit; otherwise return immediately. Call first in `main`.
pub fn maybe_run_worker() {
    if let Ok(spec) = std::env::var(WORKER_ENV) {
        faults::load_env();
        let code = worker_main(&spec);
        std::process::exit(code);
    }
}

/// One rank's solver state: its block of the BP iterates — the edges of
/// the left vertices `a_lo..a_hi`, `e_lo..e_hi`, and their rows of `S`,
/// the values `v_lo..v_hi` — each vector indexed from its block's start.
struct WorkerState {
    l: BipartiteGraph,
    part_index: usize,
    num_parts: usize,
    a_lo: usize,
    a_hi: usize,
    e_lo: usize,
    e_hi: usize,
    v_lo: usize,
    v_hi: usize,
    /// `rowptr[e_lo..=e_hi]`, shifted to start at zero.
    rowptr: Vec<usize>,
    /// Each edge's position in its right vertex's list.
    col_pos: Vec<u32>,
    send_plan: Vec<Vec<u32>>,
    scatter_plan: Vec<Vec<u32>>,
    alpha: f64,
    beta: f64,
    state_dir: PathBuf,
    // The committed iterate, and the `Finish` output swapped in for it.
    y: Vec<f64>,
    z: Vec<f64>,
    sk: Vec<f64>,
    y_next: Vec<f64>,
    z_next: Vec<f64>,
    sk_next: Vec<f64>,
    /// `S⁽ᵏ⁻¹⁾ᵀ` at this rank's entries, as the halo exchange delivers it.
    skt: Vec<f64>,
    // `Solve`'s F and d for `Finish`.
    d: Vec<f64>,
    fv: Vec<f64>,
    matcher: Option<(RankCore, Vec<f64>)>,
}

impl WorkerState {
    fn build(msg: SetupMsg) -> WorkerState {
        let l = BipartiteGraph::from_entries(
            msg.na as usize,
            msg.nb as usize,
            msg.edges.iter().map(|&(a, b, w)| (a, b, w)),
        );
        let (e_lo, e_hi) = (msg.e_lo as usize, msg.e_hi as usize);
        let (v_lo, v_hi) = (msg.v_lo as usize, msg.v_hi as usize);
        let ne = e_hi - e_lo;
        let nv = v_hi - v_lo;
        let or_zeros = |v: Vec<f64>, len: usize| if v.is_empty() { vec![0.0; len] } else { v };
        WorkerState {
            col_pos: column_positions(&l),
            l,
            part_index: msg.part_index as usize,
            num_parts: msg.num_parts as usize,
            a_lo: msg.a_lo as usize,
            a_hi: msg.a_hi as usize,
            e_lo,
            e_hi,
            v_lo,
            v_hi,
            rowptr: msg.rowptr.iter().map(|&v| v as usize - v_lo).collect(),
            send_plan: msg.send_plan,
            scatter_plan: msg.scatter_plan,
            alpha: msg.alpha,
            beta: msg.beta,
            state_dir: PathBuf::from(msg.state_dir),
            y: or_zeros(msg.y_prev, ne),
            z: or_zeros(msg.z_prev, ne),
            sk: or_zeros(msg.sk_prev, nv),
            y_next: vec![0.0; ne],
            z_next: vec![0.0; ne],
            sk_next: vec![0.0; nv],
            skt: vec![0.0; nv],
            d: vec![0.0; ne],
            fv: vec![0.0; nv],
            matcher: None,
        }
    }

    /// The local entries of edge `e`'s row of `S`.
    #[inline]
    fn row(&self, e: usize) -> std::ops::Range<usize> {
        self.rowptr[e - self.e_lo]..self.rowptr[e - self.e_lo + 1]
    }

    /// Superstep A, producer half.
    fn produce_halo(&self) -> Vec<Vec<f64>> {
        self.send_plan
            .iter()
            .map(|plan| plan.iter().map(|&pos| self.sk[pos as usize]).collect())
            .collect()
    }

    /// Superstep A, consumer half.
    fn scatter_halo(&mut self, payloads: &[Vec<f64>]) {
        for (src, vals) in payloads.iter().enumerate() {
            for (&pos, &v) in self.scatter_plan[src].iter().zip(vals.iter()) {
                self.skt[pos as usize] = v;
            }
        }
    }

    /// Superstep B: F and d of this rank's rows, and the `othermaxcol`
    /// statistic of the committed `z` over this rank's run of each right
    /// vertex's list (see [`super::partition`]), one per right vertex in
    /// order of first appearance.
    fn solve(&mut self) -> Vec<(u32, Max2)> {
        let w = self.l.weights();
        for e in self.e_lo..self.e_hi {
            let r = self.row(e);
            let t = self.skt[r.clone()].iter().copied();
            self.d[e - self.e_lo] = f_row(self.alpha * w[e], self.beta, t, &mut self.fv[r]);
        }
        // slot[b] is b's position in the list.
        let mut partials: Vec<(u32, Max2)> = Vec::new();
        let mut slot = vec![u32::MAX; self.l.num_right()];
        for e in self.e_lo..self.e_hi {
            let b = self.l.endpoints(e).1 as usize;
            if slot[b] == u32::MAX {
                slot[b] = partials.len() as u32;
                partials.push((b as u32, othermax::EMPTY));
            }
            let stat = &mut partials[slot[b] as usize].1;
            *stat = push(*stat, self.z[e - self.e_lo], self.col_pos[e] as usize);
        }
        partials
    }

    /// Superstep D: finish this rank's iterate from the merged column
    /// statistics and commit it; then durably checkpoint it for
    /// iteration `k` before the caller replies.
    fn finish(&mut self, k: u32, gk: f64, stats: &[(u32, Max2)]) -> Reply {
        // The merged list names each right vertex once.
        let mut col_stats = vec![othermax::EMPTY; self.l.num_right()];
        for &(b, stat) in stats {
            col_stats[b as usize] = stat;
        }
        let lo = self.e_lo;
        for a in self.a_lo..self.a_hi {
            let edges = self.l.left_range(a as u32);
            let row_stat = max2(self.y[edges.start - lo..edges.end - lo].iter().copied());
            for e in edges.clone() {
                let le = e - lo;
                let omr = othermax(row_stat, e - edges.start);
                let b = self.l.endpoints(e).1 as usize;
                let omc = othermax(col_stats[b], self.col_pos[e] as usize);
                let (y, z, scale) = edge_messages(gk, self.d[le], omr, omc, self.y[le], self.z[le]);
                (self.y_next[le], self.z_next[le]) = (y, z);
                for i in self.row(e) {
                    self.sk_next[i] = damped(gk, scale - self.fv[i], self.sk[i]);
                }
            }
        }
        std::mem::swap(&mut self.y, &mut self.y_next);
        std::mem::swap(&mut self.z, &mut self.z_next);
        std::mem::swap(&mut self.sk, &mut self.sk_next);
        let block = CkptBlock {
            part: self.part_index as u32,
            iteration: k,
            e_lo: self.e_lo as u64,
            e_hi: self.e_hi as u64,
            v_lo: self.v_lo as u64,
            v_hi: self.v_hi as u64,
            y_prev: self.y.clone(),
            z_prev: self.z.clone(),
            sk_prev: self.sk.clone(),
        };
        if let Err(e) = ckpt::write(&self.state_dir, &block) {
            return Reply::Err(format!("checkpoint write failed: {e}"));
        }
        Reply::Blocks {
            y: self.y.clone(),
            z: self.z.clone(),
        }
    }
}

fn handle(state: &mut Option<WorkerState>, req: Request) -> Reply {
    if let Request::Setup(msg) = req {
        *state = Some(WorkerState::build(*msg));
        return Reply::Ack;
    }
    let Some(st) = state.as_mut() else {
        return Reply::Err("request before Setup".to_string());
    };
    match req {
        Request::Setup(_) | Request::Shutdown => unreachable!("handled by caller"),
        Request::ProduceHalo => Reply::HaloPayloads(st.produce_halo()),
        Request::ScatterHalo { payloads } => {
            st.scatter_halo(&payloads);
            Reply::Ack
        }
        Request::Solve { .. } => {
            if faults::kill_due("dist-solve") {
                std::process::abort();
            }
            Reply::Partials(st.solve())
        }
        Request::Finish { k, gk, stats } => st.finish(k, gk, &stats),
        Request::MatchStart { weights, faulty } => {
            let core = RankCore::new(&st.l, st.part_index, st.num_parts, faulty);
            st.matcher = Some((core, weights));
            Reply::Ack
        }
        Request::MatchPropose { round } => {
            let WorkerState { l, matcher, .. } = st;
            let Some((core, weights)) = matcher.as_mut() else {
                return Reply::Err("MatchPropose before MatchStart".to_string());
            };
            let mut out = Vec::new();
            core.phase_propose(l, weights, round as usize, |dest, msg| {
                out.push((dest as u32, msg));
            });
            Reply::MatchOut(out)
        }
        Request::MatchExchange { phase, inbox } => {
            let WorkerState { l, matcher, .. } = st;
            let Some((core, weights)) = matcher.as_mut() else {
                return Reply::Err("MatchExchange before MatchStart".to_string());
            };
            match phase {
                MatchPhase::Match => {
                    let mut out = Vec::new();
                    core.phase_match(&inbox, |dest, msg| out.push((dest as u32, msg)));
                    Reply::MatchOut(out)
                }
                MatchPhase::Invalidate => {
                    Reply::Progress(core.phase_invalidate(l, weights, &inbox))
                }
            }
        }
        Request::MatchPairs => {
            let Some((core, _)) = st.matcher.as_ref() else {
                return Reply::Err("MatchPairs before MatchStart".to_string());
            };
            Reply::Pairs(core.pairs())
        }
    }
}

fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let mut wire = Vec::new();
    frame::write_frame(&mut wire, &encode_frame(frame)).expect("in-memory frame write");
    wire
}

/// Dial the coordinator, retrying briefly (it may be mid-accept-loop
/// or this may be a reconnect racing a supervisor decision).
fn dial(addr: &str) -> Option<TcpStream> {
    for _ in 0..60 {
        if let Ok(s) = TcpStream::connect(addr) {
            return Some(s);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    None
}

fn worker_main(spec: &str) -> i32 {
    let Some((addr, slot)) = spec.rsplit_once('#') else {
        eprintln!("netalign worker: bad {WORKER_ENV} spec {spec:?}");
        return 2;
    };
    let Ok(slot) = slot.parse::<u32>() else {
        eprintln!("netalign worker: bad slot in {spec:?}");
        return 2;
    };

    // Replies and heartbeats share one writer behind a mutex; the
    // reader is a cloned handle so blocking reads never hold the lock.
    let writer: Arc<Mutex<Option<TcpStream>>> = Arc::new(Mutex::new(None));
    {
        let writer = Arc::clone(&writer);
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(100));
            let beat = frame_bytes(&Frame::Heartbeat { slot });
            let mut guard = writer.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(s) = guard.as_mut() {
                // Write errors are left for the main loop's reader to
                // notice; the beat is best-effort by design.
                let _ = s.write_all(&beat).and_then(|_| s.flush());
            }
        });
    }

    let mut state: Option<WorkerState> = None;
    let mut cache: Option<(u64, Vec<u8>)> = None;
    'outer: loop {
        let Some(stream) = dial(addr) else {
            // Coordinator gone: a clean end of the run.
            return 0;
        };
        let _ = stream.set_nodelay(true);
        let Ok(mut reader) = stream.try_clone() else {
            continue 'outer;
        };
        {
            let mut guard = writer.lock().unwrap_or_else(|e| e.into_inner());
            let mut s = stream;
            if s.write_all(&frame_bytes(&Frame::Hello { slot }))
                .and_then(|_| s.flush())
                .is_err()
            {
                continue 'outer;
            }
            *guard = Some(s);
        }
        loop {
            let payload = match frame::read_frame(&mut reader, MAX_FRAME) {
                Ok(FrameRead::Frame(p)) => p,
                Ok(FrameRead::Oversized(_)) => continue,
                Ok(FrameRead::Closed) | Err(_) => continue 'outer,
            };
            let Ok(Frame::Request { seq, req }) = decode_frame(&payload) else {
                // Undecodable or unexpected frame: resync by
                // reconnecting.
                continue 'outer;
            };
            if faults::kill_due("dist-recv") {
                std::process::abort();
            }
            if let Some((last, bytes)) = &cache {
                if seq == *last {
                    // Retransmitted request: re-serve the cached reply,
                    // do not re-execute.
                    let mut guard = writer.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(s) = guard.as_mut() {
                        let _ = s.write_all(bytes).and_then(|_| s.flush());
                    }
                    continue;
                }
                if seq < *last {
                    // A late duplicate of an older request; the
                    // coordinator no longer waits on it.
                    continue;
                }
            }
            if matches!(req, Request::Shutdown) {
                return 0;
            }
            let reply = handle(&mut state, req);
            let bytes = frame_bytes(&Frame::Reply { seq, reply });
            if faults::kill_due("dist-send") {
                std::process::abort();
            }
            cache = Some((seq, bytes.clone()));
            let mut guard = writer.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(s) = guard.as_mut() {
                if s.write_all(&bytes).and_then(|_| s.flush()).is_err() {
                    continue 'outer;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bp::BpEngine;
    use crate::config::AlignConfig;
    use crate::dist::partition::{merge_col_partials, Partition};
    use crate::problem::NetAlignProblem;
    use crate::trace::faults;
    use netalign_graph::generators::{add_random_edges, identity_plus_noise_l, power_law_graph};
    use std::path::Path;

    const ITERATIONS: usize = 8;

    /// A power-law instance whose candidate weights all tie at 1.0, so
    /// every vertex statistic has tied maxima.
    fn instance(n: usize, seed: u64) -> NetAlignProblem {
        let g = power_law_graph(n, 2.5, 10, seed);
        let a = add_random_edges(&g, 0.03, seed + 1);
        let b = add_random_edges(&g, 0.03, seed + 2);
        let l = identity_plus_noise_l(n, n, 5.0 / n as f64, 1.0, 1.0, seed + 3);
        NetAlignProblem::new(a, b, l)
    }

    /// Part `r`'s worker state as a fresh `Setup` from the coordinator
    /// builds it.
    fn worker(
        p: &NetAlignProblem,
        cfg: &AlignConfig,
        part: &Partition,
        r: usize,
        dir: &Path,
    ) -> WorkerState {
        let pt = &part.parts[r];
        WorkerState::build(SetupMsg {
            na: p.l.num_left() as u32,
            nb: p.l.num_right() as u32,
            edges: (0..p.l.num_edges())
                .map(|e| {
                    let (a, b) = p.l.endpoints(e);
                    (a, b, p.l.weights()[e])
                })
                .collect(),
            part_index: r as u32,
            num_parts: part.num_ranks() as u32,
            a_lo: pt.a_lo as u64,
            a_hi: pt.a_hi as u64,
            e_lo: pt.e_lo as u64,
            e_hi: pt.e_hi as u64,
            v_lo: pt.v_lo as u64,
            v_hi: pt.v_hi as u64,
            rowptr: p.s.rowptr()[pt.e_lo..=pt.e_hi]
                .iter()
                .map(|&v| v as u64)
                .collect(),
            send_plan: pt.send_plan.clone(),
            scatter_plan: pt.scatter_plan.clone(),
            alpha: cfg.alpha,
            beta: cfg.beta,
            state_dir: dir.display().to_string(),
            ..SetupMsg::default()
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Drive every part of a `ranks`-way partition in process through
    /// the coordinator's supersteps A–D — the halo routed by part, the
    /// column partials merged with `merge_col_partials` — and compare
    /// the concatenated blocks each part checkpointed with the engine's
    /// committed iterate after every iteration, bit for bit.
    fn check(p: &NetAlignProblem, ranks: usize, dir: &Path) {
        let cfg = AlignConfig {
            iterations: ITERATIONS,
            ..Default::default()
        };
        let part = Partition::new(p, ranks);
        let np = part.num_ranks();
        let mut workers: Vec<WorkerState> =
            (0..np).map(|r| worker(p, &cfg, &part, r, dir)).collect();
        let mut engine = BpEngine::new(p, &cfg);
        for k in 1..=ITERATIONS {
            let gk = cfg.damping.fresh_weight(cfg.gamma, k);
            let halo: Vec<Vec<Vec<f64>>> = workers.iter().map(|w| w.produce_halo()).collect();
            for (r, w) in workers.iter_mut().enumerate() {
                let routed: Vec<Vec<f64>> = (0..np).map(|src| halo[src][r].clone()).collect();
                w.scatter_halo(&routed);
            }
            let partials: Vec<_> = workers.iter_mut().map(|w| w.solve()).collect();
            let stats = merge_col_partials(&partials, p.l.num_right(), np);
            let (mut y, mut z, mut sk) = (Vec::new(), Vec::new(), Vec::new());
            for (r, w) in workers.iter_mut().enumerate() {
                let Reply::Blocks { y: yb, z: zb } = w.finish(k as u32, gk, &stats) else {
                    panic!("part {r} did not finish iteration {k}");
                };
                let block = ckpt::read(&dir.join(ckpt::file_name(r as u32, k as u32)))
                    .expect("finish checkpoints before it replies");
                assert!(bits(&yb) == bits(&block.y_prev) && bits(&zb) == bits(&block.z_prev));
                y.extend_from_slice(&block.y_prev);
                z.extend_from_slice(&block.z_prev);
                sk.extend_from_slice(&block.sk_prev);
            }

            engine.step();
            engine.discard_pending();
            let state = engine.checkpoint_state();
            let at = format!("{ranks} ranks, iteration {k}");
            assert!(bits(&y) == bits(&state.y), "{at}: y differs");
            assert!(bits(&z) == bits(&state.z), "{at}: z differs");
            assert!(bits(&sk) == bits(&state.sk), "{at}: S differs");
        }
    }

    #[test]
    fn worker_iterates_match_the_engine_bit_for_bit() {
        // The engine's step is a fault point that other tests arm.
        let _guard = faults::test_lock();
        let dir = std::env::temp_dir().join(format!("netalign-worker-gate-{}", std::process::id()));
        for (n, seed) in [(60, 3), (90, 17)] {
            let p = instance(n, seed);
            for ranks in 1..=5 {
                let _ = std::fs::remove_dir_all(&dir);
                check(&p, ranks, &dir);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
