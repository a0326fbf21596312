//! The worker process: one rank of the distributed BP/matching run.
//!
//! A worker is the *same binary* as the coordinator, re-entered via the
//! `NETALIGN_DIST_WORKER=<addr>#<slot>` environment variable — every
//! distributed-capable binary calls [`maybe_run_worker`] first thing in
//! `main`. The worker dials the coordinator, says `Hello{slot}`, and
//! then serves requests forever:
//!
//! * BP supersteps run the **same floating-point operations in the
//!   same order** as the single-process engine (bit-identity),
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
use super::partition::ColStat;
use super::rpc::MAX_FRAME;
use super::wire::{decode_frame, encode_frame, Frame, MatchPhase, Reply, Request, SetupMsg};
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

/// One rank's solver state: its block of the BP iterates.
struct WorkerState {
    l: BipartiteGraph,
    part_index: usize,
    num_parts: usize,
    e_lo: usize,
    e_hi: usize,
    v_lo: usize,
    v_hi: usize,
    /// Global `rowptr[e_lo..=e_hi]` (indexed locally by `e - e_lo`).
    rowptr: Vec<usize>,
    send_plan: Vec<Vec<u32>>,
    scatter_plan: Vec<Vec<u32>>,
    alpha: f64,
    beta: f64,
    state_dir: PathBuf,
    y: Vec<f64>,
    z: Vec<f64>,
    y_prev: Vec<f64>,
    z_prev: Vec<f64>,
    d: Vec<f64>,
    sk: Vec<f64>,
    sk_prev: Vec<f64>,
    skt: Vec<f64>,
    fv: Vec<f64>,
    omr: Vec<f64>,
    omc: Vec<f64>,
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
            l,
            part_index: msg.part_index as usize,
            num_parts: msg.num_parts as usize,
            e_lo,
            e_hi,
            v_lo,
            v_hi,
            rowptr: msg.rowptr.iter().map(|&v| v as usize).collect(),
            send_plan: msg.send_plan,
            scatter_plan: msg.scatter_plan,
            alpha: msg.alpha,
            beta: msg.beta,
            state_dir: PathBuf::from(msg.state_dir),
            y: vec![0.0; ne],
            z: vec![0.0; ne],
            y_prev: or_zeros(msg.y_prev, ne),
            z_prev: or_zeros(msg.z_prev, ne),
            d: vec![0.0; ne],
            sk: vec![0.0; nv],
            sk_prev: or_zeros(msg.sk_prev, nv),
            skt: vec![0.0; nv],
            fv: vec![0.0; nv],
            omr: vec![0.0; ne],
            omc: vec![0.0; ne],
            matcher: None,
        }
    }

    /// Local rowptr access: the shipped slice is global values indexed
    /// by `e - e_lo`.
    #[inline]
    fn row(&self, e: usize) -> std::ops::Range<usize> {
        self.rowptr[e - self.e_lo]..self.rowptr[e - self.e_lo + 1]
    }

    /// Superstep A, producer half.
    fn produce_halo(&self) -> Vec<Vec<f64>> {
        self.send_plan
            .iter()
            .map(|plan| plan.iter().map(|&pos| self.sk_prev[pos as usize]).collect())
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

    /// Superstep B: F/d kernels, othermaxrow, column partials.
    fn solve(&mut self) -> Vec<(u32, ColStat)> {
        let w = self.l.weights();
        for i in 0..self.fv.len() {
            self.fv[i] = (self.beta + self.skt[i]).clamp(0.0, self.beta);
        }
        for e in self.e_lo..self.e_hi {
            let le = e - self.e_lo;
            let mut acc = 0.0;
            for idx in self.row(e) {
                acc += self.fv[idx - self.v_lo];
            }
            self.d[le] = self.alpha * w[e] + acc;
        }
        // othermaxrow on y_prev: rows are local.
        for a in 0..self.l.num_left() as u32 {
            let r = self.l.left_range(a);
            if r.start < self.e_lo || r.end > self.e_hi || r.is_empty() {
                continue;
            }
            let mut stat = ColStat::EMPTY;
            for e in r.clone() {
                stat.push(self.y_prev[e - self.e_lo], e as u32);
            }
            for e in r {
                let v = if e as u32 == stat.arg_eid {
                    stat.max2
                } else {
                    stat.max1
                };
                self.omr[e - self.e_lo] = v.max(0.0);
            }
        }
        // Column partials over z_prev, one per right vertex in order of
        // first appearance; slot[b] is b's position in the list.
        let mut partials: Vec<(u32, ColStat)> = Vec::new();
        let mut slot = vec![u32::MAX; self.l.num_right()];
        for e in self.e_lo..self.e_hi {
            let b = self.l.endpoints(e).1 as usize;
            if slot[b] == u32::MAX {
                slot[b] = partials.len() as u32;
                partials.push((b as u32, ColStat::EMPTY));
            }
            partials[slot[b] as usize]
                .1
                .push(self.z_prev[e - self.e_lo], e as u32);
        }
        partials
    }

    /// Superstep D: finish othermax, S update, damping; then durably
    /// checkpoint the damped state for iteration `k` before the caller
    /// replies.
    fn finish(&mut self, k: u32, gk: f64, stats: &[(u32, ColStat)]) -> Reply {
        // The merged list names each right vertex once.
        let mut col = vec![ColStat::EMPTY; self.l.num_right()];
        for &(b, stat) in stats {
            col[b as usize] = stat;
        }
        for e in self.e_lo..self.e_hi {
            let le = e - self.e_lo;
            let stat = col[self.l.endpoints(e).1 as usize];
            let v = if e as u32 == stat.arg_eid {
                stat.max2
            } else {
                stat.max1
            };
            self.omc[le] = v.max(0.0);
        }
        for le in 0..self.y.len() {
            self.y[le] = self.d[le] - self.omc[le];
            self.z[le] = self.d[le] - self.omr[le];
        }
        // S^(k) = diag(y + z - d) S - F (local rows).
        for e in self.e_lo..self.e_hi {
            let le = e - self.e_lo;
            let scale = self.y[le] + self.z[le] - self.d[le];
            for idx in self.row(e) {
                self.sk[idx - self.v_lo] = scale - self.fv[idx - self.v_lo];
            }
        }
        for (c, pr) in self.y.iter_mut().zip(self.y_prev.iter_mut()) {
            *c = gk * *c + (1.0 - gk) * *pr;
            *pr = *c;
        }
        for (c, pr) in self.z.iter_mut().zip(self.z_prev.iter_mut()) {
            *c = gk * *c + (1.0 - gk) * *pr;
            *pr = *c;
        }
        for (c, pr) in self.sk.iter_mut().zip(self.sk_prev.iter_mut()) {
            *c = gk * *c + (1.0 - gk) * *pr;
            *pr = *c;
        }
        let block = CkptBlock {
            part: self.part_index as u32,
            iteration: k,
            e_lo: self.e_lo as u64,
            e_hi: self.e_hi as u64,
            v_lo: self.v_lo as u64,
            v_hi: self.v_hi as u64,
            y_prev: self.y_prev.clone(),
            z_prev: self.z_prev.clone(),
            sk_prev: self.sk_prev.clone(),
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
