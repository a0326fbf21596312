//! The coordinator: spawns worker processes, drives the BSP supersteps
//! over reliable RPC, supervises failures, and assembles the final
//! alignment.
//!
//! One BP iteration is five supersteps, each a round of RPCs to every
//! worker:
//!
//! * **A** — gather halo payloads (`ProduceHalo`), route them by the
//!   static plans, scatter (`ScatterHalo`);
//! * **B** — `Solve` runs F/d and the column partials on every worker
//!   concurrently;
//! * **C** — the coordinator merges column partials with
//!   [`merge_col_partials`];
//! * **D** — `Finish` completes othermax, the messages, the S update
//!   and damping on the workers, which checkpoint durably *before*
//!   replying and return their damped `y`/`z` blocks;
//! * **E** — rounding runs the distributed locally-dominant matcher
//!   *over the same RPC transport*, the coordinator acting as the
//!   message router between rank phases.
//!
//! Failure handling is a single loop invariant: any slot failure at any
//! point unwinds to the epoch boundary, where [`recover`] respawns the
//! dead worker (bounded backoff) or — past its respawn budget —
//! repartitions its rows onto the survivors, and [`resync`] re-seeds
//! every worker from the newest complete checkpoint tiling. Because
//! checkpoints are written before `Finish` replies, the resume point
//! never trails what the coordinator has gathered, and deterministic
//! re-execution makes the final result **bit-identical** to the
//! single-process engine no matter which faults fired.

use super::ckpt;
use super::partition::{merge_col_partials, Partition};
use super::rpc::{LinkDead, Rpc, Timeouts, MAX_FRAME};
use super::wire::{decode_frame, Frame, MatchPhase, Reply, Request, SetupMsg};
use super::worker::WORKER_ENV;
use crate::bp::exact_final_round;
use crate::bp::othermax::Max2;
use crate::config::AlignConfig;
use crate::frame::{self, FrameRead};
use crate::objective::evaluate_matching;
use crate::problem::NetAlignProblem;
use crate::result::{fold_incumbent, AlignmentResult, IterationRecord};
use crate::rounding::RoundedSolution;
use crate::trace::RunTrace;
use netalign_matching::distributed::{pairs_to_matching, DistMsg, Quiescence};
use netalign_matching::Matching;
use netalign_trace::faults::{parse_net_fault, NetFault};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment variables stripped from worker processes so a fault
/// plan armed on the coordinator never arms every worker (which would
/// crash respawned replacements forever). Kills are forwarded
/// explicitly — to slot 0's first spawn only.
const FAULT_VARS: [&str; 7] = [
    "NETALIGN_FAULT_NAN",
    "NETALIGN_FAULT_PANIC",
    "NETALIGN_FAULT_CHUNK_PANIC",
    "NETALIGN_FAULT_CKPT",
    "NETALIGN_FAULT_DEADLINE",
    "NETALIGN_FAULT_KILL",
    "NETALIGN_FAULT_NET",
];

/// How long a freshly spawned worker gets to dial back and say Hello.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);
/// Respawn backoff: `base * 2^attempt`, capped.
const BACKOFF_BASE: Duration = Duration::from_millis(50);
const BACKOFF_CAP: Duration = Duration::from_millis(1000);

/// Configuration of a distributed run.
#[derive(Clone, Debug)]
pub struct DistConfig {
    /// Worker process count (the partition is additionally capped at
    /// the number of left vertices).
    pub workers: usize,
    /// Listening port for worker connections; 0 picks an ephemeral
    /// port.
    pub base_port: u16,
    /// Worker executable; defaults to the current executable (every
    /// distributed-capable binary re-enters via
    /// [`super::maybe_run_worker`]).
    pub worker_bin: Option<PathBuf>,
    /// Checkpoint directory; defaults to a fresh per-run temp dir,
    /// removed afterwards.
    pub state_dir: Option<PathBuf>,
    /// Respawns allowed per slot before its rows move to survivors.
    pub respawn_budget: u32,
    /// Transport timing knobs.
    pub timeouts: Timeouts,
    /// Deterministic transport fault injected on the coordinator's
    /// outgoing first transmissions.
    pub net_fault: Option<NetFault>,
    /// `NETALIGN_FAULT_KILL` value forwarded to slot 0's *first* spawn
    /// (respawned replacements never inherit it).
    pub worker_kill: Option<String>,
    /// Drop every Nth routed matcher message (the workers run the
    /// loss-tolerant matcher protocol when set).
    pub matcher_msg_drop: Option<u64>,
}

impl DistConfig {
    pub fn new(workers: usize) -> DistConfig {
        DistConfig {
            workers,
            base_port: 0,
            worker_bin: None,
            state_dir: None,
            respawn_budget: 2,
            timeouts: Timeouts::default(),
            net_fault: None,
            worker_kill: None,
            matcher_msg_drop: None,
        }
    }

    /// [`DistConfig::new`] plus the process environment: the
    /// `NETALIGN_FAULT_NET` / `NETALIGN_FAULT_KILL` grammars and a
    /// `NETALIGN_DIST_WORKER_BIN` override (the CLI path).
    pub fn from_env(workers: usize) -> DistConfig {
        let mut dc = DistConfig::new(workers);
        dc.net_fault = std::env::var("NETALIGN_FAULT_NET")
            .ok()
            .and_then(|v| parse_net_fault(&v));
        dc.worker_kill = std::env::var("NETALIGN_FAULT_KILL").ok();
        dc.worker_bin = std::env::var_os("NETALIGN_DIST_WORKER_BIN").map(PathBuf::from);
        dc
    }
}

/// Why a distributed run could not complete.
#[derive(Debug)]
pub enum DistError {
    /// A worker process (or the listening socket) could not be created.
    Spawn(std::io::Error),
    /// Every worker slot exhausted its respawn budget.
    NoSurvivors,
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Spawn(e) => write!(f, "cannot start distributed run: {e}"),
            DistError::NoSurvivors => {
                write!(f, "all worker slots exhausted their respawn budgets")
            }
        }
    }
}

impl std::error::Error for DistError {}

/// A completed distributed run: the alignment plus the recovery
/// counters accumulated while producing it.
#[derive(Debug)]
pub struct DistReport {
    pub result: AlignmentResult,
    /// Worker processes at launch.
    pub workers: usize,
    /// Worker respawns during this run.
    pub worker_restarts: u64,
    /// RPC retransmissions during this run.
    pub retransmissions: u64,
    /// Permanent slot deaths re-partitioned onto survivors.
    pub repartitions: u64,
    /// Recovery rounds (respawn or repartition + checkpoint resync).
    pub recoveries: u64,
}

/// A slot failed mid-protocol; unwind to the epoch boundary.
struct DeadSlot(usize);

struct Cluster {
    rpc: Rpc,
    children: Vec<Option<Child>>,
    respawns: Vec<u32>,
    dead: Vec<bool>,
    worker_bin: PathBuf,
    addr: String,
    worker_kill: Option<String>,
    kill_forwarded: bool,
    accept_stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Cluster {
    fn alive_slots(&self) -> Vec<usize> {
        (0..self.dead.len()).filter(|&s| !self.dead[s]).collect()
    }

    fn spawn(&mut self, slot: usize) -> Result<(), DistError> {
        let mut cmd = Command::new(&self.worker_bin);
        cmd.env(WORKER_ENV, format!("{}#{}", self.addr, slot));
        for var in FAULT_VARS {
            cmd.env_remove(var);
        }
        if slot == 0 && !self.kill_forwarded {
            if let Some(kill) = &self.worker_kill {
                cmd.env("NETALIGN_FAULT_KILL", kill);
            }
            self.kill_forwarded = true;
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::null());
        let child = cmd.spawn().map_err(DistError::Spawn)?;
        self.children[slot] = Some(child);
        Ok(())
    }

    fn kill(&mut self, slot: usize) {
        if let Some(mut child) = self.children[slot].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    fn shutdown(&mut self) {
        for slot in self.alive_slots() {
            self.rpc.send_best_effort(slot, Request::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_millis(500);
        for child in self.children.iter_mut().flatten() {
            while child.try_wait().map(|s| s.is_none()).unwrap_or(false)
                && Instant::now() < deadline
            {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        for slot in 0..self.children.len() {
            self.kill(slot);
        }
        self.accept_stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: TcpListener, tx: Sender<(u32, TcpStream)>, stop: Arc<AtomicBool>) {
    let _ = listener.set_nonblocking(true);
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Read the Hello synchronously on a helper thread so a
                // silent connection cannot stall the accept loop.
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                    if let Ok(FrameRead::Frame(payload)) = frame::read_frame(&mut stream, MAX_FRAME)
                    {
                        if let Ok(Frame::Hello { slot }) = decode_frame(&payload) {
                            let _ = stream.set_read_timeout(None);
                            let _ = tx.send((slot, stream));
                        }
                    }
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return,
        }
    }
}

/// Run belief propagation + locally-dominant rounding across real
/// worker processes. The result is bit-identical to
/// [`crate::bp::belief_propagation`] with the parallel locally-dominant
/// matcher at every worker count, regardless of injected transport
/// faults or worker crashes — or the run fails with a typed
/// [`DistError`].
pub fn align_distributed(
    problem: &NetAlignProblem,
    config: &AlignConfig,
    dc: &DistConfig,
) -> Result<DistReport, DistError> {
    config.validate();
    let stats = netalign_trace::dist::global();
    stats.solves.fetch_add(1, Ordering::Relaxed);
    let before = stats.snapshot();

    let (result, slots) = run_with_cluster(dc, |cluster, state_dir| {
        drive(cluster, problem, config, dc, state_dir)
    });

    let after = stats.snapshot();
    result.map(|result| DistReport {
        result,
        workers: slots,
        worker_restarts: after.worker_restarts - before.worker_restarts,
        retransmissions: after.retransmissions - before.retransmissions,
        repartitions: after.repartitions - before.repartitions,
        recoveries: after.recoveries - before.recoveries,
    })
}

/// Run **only** the distributed locally-dominant matcher over real
/// worker processes: every part gets the candidate graph, then the
/// propose/match/invalidate phases run with the coordinator routing
/// (and, when [`DistConfig::matcher_msg_drop`] is set, deterministically
/// dropping) the inter-rank messages. Without loss the matching is the
/// serial locally-dominant one; under loss the protocol keeps its
/// guarantees — validity, half-approximation, termination.
pub fn match_distributed(
    problem: &NetAlignProblem,
    weights: &[f64],
    dc: &DistConfig,
) -> Result<Matching, DistError> {
    assert_eq!(
        weights.len(),
        problem.l.num_edges(),
        "one weight per edge of L"
    );
    let config = AlignConfig::default();
    let (result, _slots) = run_with_cluster(dc, |cluster, state_dir| loop {
        let setup = resync(cluster, problem, &config, state_dir, 0).and_then(|(_, assign, _)| {
            round_distributed(cluster, problem, weights, &assign, dc.matcher_msg_drop)
        });
        match setup {
            Ok(m) => return Ok(m),
            Err(DeadSlot(slot)) => recover(cluster, slot, dc)?,
        }
    });
    result
}

/// Shared lifecycle of every coordinator entry point: state dir,
/// listening socket, accept thread, worker spawn + attach (with
/// recovery), then `f`, then teardown. Returns `f`'s result plus the
/// launched slot count.
fn run_with_cluster<T>(
    dc: &DistConfig,
    f: impl FnOnce(&mut Cluster, &std::path::Path) -> Result<T, DistError>,
) -> (Result<T, DistError>, usize) {
    static RUN_ID: AtomicU64 = AtomicU64::new(0);
    let own_state_dir = dc.state_dir.is_none();
    let state_dir = dc.state_dir.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!(
            "netalign-dist-{}-{}",
            std::process::id(),
            RUN_ID.fetch_add(1, Ordering::Relaxed)
        ))
    });
    let slots = dc.workers.max(1);

    let setup = (|| -> Result<Cluster, DistError> {
        std::fs::create_dir_all(&state_dir).map_err(DistError::Spawn)?;
        let listener = TcpListener::bind(("127.0.0.1", dc.base_port)).map_err(DistError::Spawn)?;
        let addr = listener.local_addr().map_err(DistError::Spawn)?.to_string();
        let (tx, rx) = std::sync::mpsc::channel();
        let accept_stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let stop = Arc::clone(&accept_stop);
            std::thread::spawn(move || accept_loop(listener, tx, stop))
        };
        let worker_bin = dc
            .worker_bin
            .clone()
            .or_else(|| std::env::current_exe().ok())
            .ok_or_else(|| {
                DistError::Spawn(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "no worker binary",
                ))
            })?;
        Ok(Cluster {
            rpc: Rpc::new(slots, rx, dc.timeouts, dc.net_fault),
            children: (0..slots).map(|_| None).collect(),
            respawns: vec![0; slots],
            dead: vec![false; slots],
            worker_bin,
            addr,
            worker_kill: dc.worker_kill.clone(),
            kill_forwarded: false,
            accept_stop,
            accept_thread: Some(accept_thread),
        })
    })();
    let mut cluster = match setup {
        Ok(cluster) => cluster,
        Err(e) => return (Err(e), slots),
    };

    let launch = (|| -> Result<(), DistError> {
        for slot in 0..slots {
            cluster.spawn(slot)?;
        }
        Ok(())
    })();
    let result = launch.and_then(|_| {
        let deadline = Instant::now() + HELLO_TIMEOUT;
        for slot in 0..slots {
            if !cluster.rpc.wait_attached(slot, deadline) {
                recover(&mut cluster, slot, dc)?;
            }
        }
        f(&mut cluster, &state_dir)
    });

    cluster.shutdown();
    if own_state_dir {
        let _ = std::fs::remove_dir_all(&state_dir);
    }
    (result, slots)
}

/// Handle a failed slot: kill it, respawn with exponential backoff
/// while its budget lasts, otherwise retire it (its rows will be
/// re-partitioned by the next [`resync`]). Errors only when no worker
/// survives.
fn recover(cluster: &mut Cluster, slot: usize, dc: &DistConfig) -> Result<(), DistError> {
    let stats = netalign_trace::dist::global();
    stats.recoveries.fetch_add(1, Ordering::Relaxed);
    cluster.kill(slot);
    cluster.rpc.clear_inflight(slot);
    loop {
        if cluster.respawns[slot] < dc.respawn_budget {
            let attempt = cluster.respawns[slot];
            cluster.respawns[slot] += 1;
            stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
            let backoff = BACKOFF_BASE
                .saturating_mul(1u32 << attempt.min(10))
                .min(BACKOFF_CAP);
            std::thread::sleep(backoff);
            cluster.spawn(slot)?;
            if cluster
                .rpc
                .wait_attached(slot, Instant::now() + HELLO_TIMEOUT)
            {
                return Ok(());
            }
            // No Hello in time: burn another budget unit and retry.
            cluster.kill(slot);
        } else {
            cluster.dead[slot] = true;
            cluster.rpc.mark_dead(slot);
            stats.repartitions.fetch_add(1, Ordering::Relaxed);
            if cluster.alive_slots().is_empty() {
                return Err(DistError::NoSurvivors);
            }
            return Ok(());
        }
    }
}

/// Issue `reqs\[i\]` to `assign\[i\]` concurrently (begin-all, then
/// wait-all) and collect the replies in part order.
fn broadcast(
    cluster: &mut Cluster,
    assign: &[usize],
    reqs: Vec<Request>,
) -> Result<Vec<Reply>, DeadSlot> {
    debug_assert_eq!(assign.len(), reqs.len());
    let seqs: Vec<u64> = assign
        .iter()
        .zip(reqs)
        .map(|(&slot, req)| cluster.rpc.begin(slot, req))
        .collect();
    let mut replies = Vec::with_capacity(assign.len());
    for (&slot, seq) in assign.iter().zip(seqs) {
        match cluster.rpc.wait(slot, seq) {
            Ok(Reply::Err(_)) | Err(LinkDead) => return Err(DeadSlot(slot)),
            Ok(reply) => replies.push(reply),
        }
    }
    Ok(replies)
}

/// Re-seed every live worker: partition over the survivors, find the
/// newest complete checkpoint tiling at or before `completed`, delete
/// anything newer, and `Setup` all parts at that resume point. Returns
/// the partition, the part→slot assignment, and the resume iteration.
fn resync(
    cluster: &mut Cluster,
    p: &NetAlignProblem,
    config: &AlignConfig,
    state_dir: &std::path::Path,
    completed: u32,
) -> Result<(Partition, Vec<usize>, u32), DeadSlot> {
    let alive = cluster.alive_slots();
    let partition = Partition::new(p, alive.len());
    let np = partition.num_ranks();
    let assign: Vec<usize> = alive[..np].to_vec();

    let m = p.l.num_edges();
    let tiling = ckpt::newest_tiling(state_dir, completed, m as u64);
    let (j, gy, gz, gsk) = match tiling {
        Some((j, blocks)) => {
            let mut gy = Vec::with_capacity(m);
            let mut gz = Vec::with_capacity(m);
            let mut gsk = Vec::new();
            for b in &blocks {
                gy.extend_from_slice(&b.y_prev);
                gz.extend_from_slice(&b.z_prev);
                gsk.extend_from_slice(&b.sk_prev);
            }
            (j, gy, gz, gsk)
        }
        None => (0, Vec::new(), Vec::new(), Vec::new()),
    };
    ckpt::prune_beyond(state_dir, j);

    let rowptr = p.s.rowptr();
    let edges: Vec<(u32, u32, f64)> = (0..m)
        .map(|e| {
            let (a, b) = p.l.endpoints(e);
            (a, b, p.l.weights()[e])
        })
        .collect();
    let reqs: Vec<Request> = (0..np)
        .map(|i| {
            let pt = &partition.parts[i];
            Request::Setup(Box::new(SetupMsg {
                na: p.l.num_left() as u32,
                nb: p.l.num_right() as u32,
                edges: edges.clone(),
                part_index: i as u32,
                num_parts: np as u32,
                a_lo: pt.a_lo as u64,
                a_hi: pt.a_hi as u64,
                e_lo: pt.e_lo as u64,
                e_hi: pt.e_hi as u64,
                v_lo: pt.v_lo as u64,
                v_hi: pt.v_hi as u64,
                rowptr: rowptr[pt.e_lo..=pt.e_hi]
                    .iter()
                    .map(|&v| v as u64)
                    .collect(),
                send_plan: pt.send_plan.clone(),
                scatter_plan: pt.scatter_plan.clone(),
                alpha: config.alpha,
                beta: config.beta,
                state_dir: state_dir.display().to_string(),
                start_iter: j,
                y_prev: if j > 0 {
                    gy[pt.e_lo..pt.e_hi].to_vec()
                } else {
                    Vec::new()
                },
                z_prev: if j > 0 {
                    gz[pt.e_lo..pt.e_hi].to_vec()
                } else {
                    Vec::new()
                },
                sk_prev: if j > 0 {
                    gsk[pt.v_lo..pt.v_hi].to_vec()
                } else {
                    Vec::new()
                },
            }))
        })
        .collect();
    for reply in broadcast(cluster, &assign, reqs)? {
        debug_assert!(matches!(reply, Reply::Ack));
    }
    Ok((partition, assign, j))
}

/// One BP iteration across the cluster (supersteps A–D); returns the
/// gathered damped `y`/`z` iterates.
fn iterate_once(
    cluster: &mut Cluster,
    p: &NetAlignProblem,
    partition: &Partition,
    assign: &[usize],
    k: u32,
    gk: f64,
) -> Result<(Vec<f64>, Vec<f64>), DeadSlot> {
    let np = partition.num_ranks();

    // A: halo exchange through the coordinator.
    let produced = broadcast(cluster, assign, vec![Request::ProduceHalo; np])?;
    let payloads: Vec<Vec<Vec<f64>>> = produced
        .into_iter()
        .enumerate()
        .map(|(i, reply)| match reply {
            Reply::HaloPayloads(v) => Ok(v),
            _ => Err(DeadSlot(assign[i])),
        })
        .collect::<Result<_, _>>()?;
    let scatter_reqs: Vec<Request> = (0..np)
        .map(|r| Request::ScatterHalo {
            payloads: (0..np).map(|src| payloads[src][r].clone()).collect(),
        })
        .collect();
    broadcast(cluster, assign, scatter_reqs)?;

    // B: concurrent local solves.
    let solved = broadcast(cluster, assign, vec![Request::Solve { k }; np])?;
    let all_partials: Vec<Vec<(u32, Max2)>> = solved
        .into_iter()
        .enumerate()
        .map(|(i, reply)| match reply {
            Reply::Partials(v) => Ok(v),
            _ => Err(DeadSlot(assign[i])),
        })
        .collect::<Result<_, _>>()?;

    // C: deterministic merge.
    let stats = merge_col_partials(&all_partials, p.l.num_right(), np);

    // D: finish + damping + durable checkpoint; gather damped blocks.
    let finish_reqs: Vec<Request> = (0..np)
        .map(|_| Request::Finish {
            k,
            gk,
            stats: stats.clone(),
        })
        .collect();
    let finished = broadcast(cluster, assign, finish_reqs)?;
    let m = p.l.num_edges();
    let mut gy = Vec::with_capacity(m);
    let mut gz = Vec::with_capacity(m);
    for (i, reply) in finished.into_iter().enumerate() {
        match reply {
            Reply::Blocks { y, z } => {
                gy.extend_from_slice(&y);
                gz.extend_from_slice(&z);
            }
            _ => return Err(DeadSlot(assign[i])),
        }
    }
    Ok((gy, gz))
}

/// Per-rank matcher output: `(rank, [(dest_rank, message)])`.
type RankOuts = Vec<(usize, Vec<(u32, DistMsg)>)>;

/// Round one gathered iterate with the distributed locally-dominant
/// matcher, the coordinator routing messages between rank phases
/// (dropping every Nth when the loss fault is armed).
fn round_distributed(
    cluster: &mut Cluster,
    p: &NetAlignProblem,
    weights: &[f64],
    assign: &[usize],
    matcher_msg_drop: Option<u64>,
) -> Result<Matching, DeadSlot> {
    let np = assign.len();
    let faulty = matcher_msg_drop.is_some();
    let start_reqs: Vec<Request> = (0..np)
        .map(|_| Request::MatchStart {
            weights: weights.to_vec(),
            faulty,
        })
        .collect();
    broadcast(cluster, assign, start_reqs)?;

    let n = p.l.num_left() + p.l.num_right();
    let mut q = Quiescence::new(faulty, n);
    let mut drop_tick: u64 = 0;
    let mut route = |outs: RankOuts| -> Vec<Vec<DistMsg>> {
        let mut inboxes: Vec<Vec<DistMsg>> = vec![Vec::new(); np];
        for (_, msgs) in outs {
            for (dest, msg) in msgs {
                if let Some(every) = matcher_msg_drop {
                    drop_tick += 1;
                    if drop_tick.is_multiple_of(every) {
                        continue;
                    }
                }
                if let Some(inbox) = inboxes.get_mut(dest as usize) {
                    inbox.push(msg);
                }
            }
        }
        inboxes
    };
    let collect_outs = |replies: Vec<Reply>, assign: &[usize]| -> Result<RankOuts, DeadSlot> {
        replies
            .into_iter()
            .enumerate()
            .map(|(i, reply)| match reply {
                Reply::MatchOut(msgs) => Ok((i, msgs)),
                _ => Err(DeadSlot(assign[i])),
            })
            .collect()
    };

    loop {
        let round = q.round() as u32;
        let proposes = broadcast(cluster, assign, vec![Request::MatchPropose { round }; np])?;
        let inboxes = route(collect_outs(proposes, assign)?);

        let match_reqs: Vec<Request> = inboxes
            .into_iter()
            .map(|inbox| Request::MatchExchange {
                phase: MatchPhase::Match,
                inbox,
            })
            .collect();
        let matches = broadcast(cluster, assign, match_reqs)?;
        let inboxes = route(collect_outs(matches, assign)?);

        let inval_reqs: Vec<Request> = inboxes
            .into_iter()
            .map(|inbox| Request::MatchExchange {
                phase: MatchPhase::Invalidate,
                inbox,
            })
            .collect();
        let mut keep_going = false;
        for (i, reply) in broadcast(cluster, assign, inval_reqs)?
            .into_iter()
            .enumerate()
        {
            match reply {
                Reply::Progress(p) => keep_going |= p,
                _ => return Err(DeadSlot(assign[i])),
            }
        }
        if q.step(keep_going) {
            break;
        }
    }

    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (i, reply) in broadcast(cluster, assign, vec![Request::MatchPairs; np])?
        .into_iter()
        .enumerate()
    {
        match reply {
            Reply::Pairs(p) => pairs.extend(p),
            _ => return Err(DeadSlot(assign[i])),
        }
    }
    Ok(pairs_to_matching(&p.l, pairs))
}

/// The coordinator's rounding state, kept across epochs: iterates
/// gathered but not yet rounded, the recorded history, the incumbent
/// `(objective, iteration)` and its iterate, and the run trace.
struct Rounding {
    pending: Vec<(usize, Vec<f64>)>,
    history: Vec<IterationRecord>,
    best: Option<(f64, usize)>,
    best_g: Vec<f64>,
    trace: RunTrace,
}

impl Rounding {
    /// Roll back to the resume point `j`; anything newer re-executes
    /// deterministically. `best` is a running strict max, so dropping a
    /// post-`j` best regenerates it identically.
    fn rollback(&mut self, j: u32) {
        self.pending.retain(|(ik, _)| *ik as u32 <= j);
        self.history.retain(|r| r.iteration as u32 <= j);
        if self.best.is_some_and(|(_, bi)| bi as u32 > j) {
            self.best = None;
        }
    }

    /// Round the pending iterates in order as one batch, recording each
    /// in the history and keeping the strict-max incumbent. A slot
    /// failure returns with the unrounded tail still pending.
    fn flush(
        &mut self,
        cluster: &mut Cluster,
        p: &NetAlignProblem,
        config: &AlignConfig,
        assign: &[usize],
        matcher_msg_drop: Option<u64>,
    ) -> Result<(), DeadSlot> {
        self.trace.algo.rounding_invocations += 1;
        self.trace
            .algo
            .rounding_batch_sizes
            .push(self.pending.len() as u64);
        while let Some((_, g)) = self.pending.first() {
            let matching = round_distributed(cluster, p, g, assign, matcher_msg_drop)?;
            let (ik, g) = self.pending.remove(0);
            let value = evaluate_matching(p, &matching, config.alpha, config.beta);
            let (history, best) = (&mut self.history, &mut self.best);
            if fold_incumbent(history, config.record_history, best, ik, value, None) {
                self.best_g = g;
                self.trace.algo.best_improvements += 1;
            }
        }
        Ok(())
    }
}

/// The epoch loop: every slot failure unwinds here, recovery reseeds
/// the cluster from the newest durable checkpoint tiling, and the
/// deterministic re-execution continues where it left off.
fn drive(
    cluster: &mut Cluster,
    p: &NetAlignProblem,
    config: &AlignConfig,
    dc: &DistConfig,
    state_dir: &std::path::Path,
) -> Result<AlignmentResult, DistError> {
    let mut rounding = Rounding {
        pending: Vec::new(),
        history: Vec::new(),
        best: None,
        best_g: Vec::new(),
        trace: RunTrace::new(),
    };
    // Last iteration whose Finish replies were all gathered — its
    // checkpoints are durable on every worker.
    let mut completed: u32 = 0;

    'epoch: loop {
        let (partition, assign, j) = match resync(cluster, p, config, state_dir, completed) {
            Ok(sync) => sync,
            Err(DeadSlot(slot)) => {
                recover(cluster, slot, dc)?;
                continue 'epoch;
            }
        };
        rounding.rollback(j);
        completed = j;
        let mut k = j as usize + 1;

        while k <= config.iterations {
            let gk = config.damping.fresh_weight(config.gamma, k);
            let (gy, gz) = match iterate_once(cluster, p, &partition, &assign, k as u32, gk) {
                Ok(v) => v,
                Err(DeadSlot(slot)) => {
                    recover(cluster, slot, dc)?;
                    continue 'epoch;
                }
            };
            completed = k as u32;
            rounding.pending.push((k, gy));
            rounding.pending.push((k, gz));
            if rounding.pending.len() >= config.batch.max(1) * 2 || k == config.iterations {
                if let Err(DeadSlot(slot)) =
                    rounding.flush(cluster, p, config, &assign, dc.matcher_msg_drop)
                {
                    recover(cluster, slot, dc)?;
                    continue 'epoch;
                }
            }
            k += 1;
        }

        // Crash-resume leftovers: a recovery at the final iteration can
        // land here with the unrounded tail of the last batch.
        if !rounding.pending.is_empty() {
            if let Err(DeadSlot(slot)) =
                rounding.flush(cluster, p, config, &assign, dc.matcher_msg_drop)
            {
                recover(cluster, slot, dc)?;
                continue 'epoch;
            }
        }

        // Final re-rounding of the best iterate (the single-process
        // engine's closing step); the exact conversion runs on the
        // coordinator because the exact matcher is centralized.
        let (best_obj, best_iter) = rounding.best.expect("at least one rounding happened");
        let best_g = &rounding.best_g;
        let RoundedSolution { matching, value } =
            match round_distributed(cluster, p, best_g, &assign, dc.matcher_msg_drop) {
                Ok(m) => exact_final_round(p, config, best_g, best_obj, || m),
                Err(DeadSlot(slot)) => {
                    recover(cluster, slot, dc)?;
                    continue 'epoch;
                }
            };
        return Ok(AlignmentResult {
            matching,
            objective: value.total,
            weight: value.weight,
            overlap: value.overlap,
            best_iteration: best_iter,
            upper_bound: None,
            history: rounding.history,
            trace: rounding.trace,
        });
    }
}
