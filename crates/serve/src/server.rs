//! `netalignd` runtime: blocking accept loop + per-connection framing
//! threads + ONE solver thread over a bounded admission queue.
//!
//! The solver stays single-threaded at the *request* level even though
//! cancellation no longer forces it to be: `netalign_trace::cancel`
//! keys its token registry on the runtime's per-thread cancel scope,
//! so concurrent harness runs in one process no longer observe each
//! other's deadlines. What still wants a single owner is the engine
//! cache — `align_delta` patches entries in place, which one solver
//! thread gets for free with no locking or entry pinning.
//! Parallelism lives where the paper puts it — inside each solve, on
//! the persistent worker pool — and at the service edge, where
//! connection threads parse/validate/reply concurrently. Concurrent
//! requests therefore queue at admission: a bounded `sync_channel`
//! whose overflow is a typed 429, never an unbounded buildup.
//!
//! Shutdown drains: the flag stops new admissions (503) and unblocks
//! the accept loop; the solver keeps answering every job already
//! admitted, then exits; connection threads notice the flag at their
//! next read-timeout tick and close.

use crate::cache::EngineCache;
use crate::durable::DurableStore;
use crate::fingerprint::{problem_fingerprint, Method};
use crate::metrics::ServerMetrics;
use crate::protocol::{
    self, AlignRequest, DeltaRequest, FrameRead, Request, CODE_INTERNAL, CODE_INVALID, CODE_OK,
    CODE_OVERLOAD, CODE_OVERSIZED, CODE_SHUTTING_DOWN, CODE_TIMEOUT,
};
use netalign_core::config::TimeBudget;
use netalign_core::delta as core_delta;
use netalign_core::harness::{AlignOutcome, Completion, RunHarness};
use netalign_core::problem::NetAlignProblem;
use netalign_trace::{faults, Json};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Fault point: abort before the solver touches an admitted job.
pub const KILL_SOLVE: &str = "solve";
/// Fault point: abort after the solve, before the reply is sent — the
/// client-facing half of a crash (work done, answer lost).
pub const KILL_REPLY: &str = "reply";

/// `retry_after_ms` hinted to clients that arrive while boot recovery
/// is still rebuilding the cache.
const RECOVERY_RETRY_MS: u64 = 200;

/// Tunables of one server instance.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Bind address, e.g. `127.0.0.1:7464` (`:0` for ephemeral).
    pub addr: String,
    /// Problems kept warm in the engine cache.
    pub cache_capacity: usize,
    /// Admission queue bound; overflow is a typed 429.
    pub queue_capacity: usize,
    /// Largest accepted request frame in bytes.
    pub max_frame_bytes: u32,
    /// Watchdog stall budget applied to every solve (`None` = off).
    pub watchdog_ms: Option<u64>,
    /// Worker threads for the solve pool (`None` = the global pool).
    pub threads: Option<usize>,
    /// Durable state directory (`None` = purely in-memory serving).
    /// With it set, recorded bases are spilled + journaled and a boot
    /// replays the journal back into the cache.
    pub state_dir: Option<PathBuf>,
    /// Journal rotation threshold in bytes.
    pub journal_max_bytes: u64,
    /// Ceiling on how long one *frame* may take to arrive once its
    /// first byte has (`None` = patient forever). Tripping it is a
    /// typed 408 and a close; idle time between frames is never
    /// limited.
    pub conn_timeout_ms: Option<u64>,
    /// Honor the `crash` op (chaos testing) instead of 422-ing it.
    pub allow_crash_op: bool,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".to_string(),
            cache_capacity: 8,
            queue_capacity: 64,
            max_frame_bytes: 16 << 20,
            watchdog_ms: Some(30_000),
            threads: None,
            state_dir: None,
            journal_max_bytes: 8 << 20,
            conn_timeout_ms: None,
            allow_crash_op: false,
        }
    }
}

/// Work admitted to the solver.
enum Work {
    /// Full align (optionally recording a delta base).
    Align(Box<AlignRequest>),
    /// Delta re-align of a recorded cached base.
    Delta(Box<DeltaRequest>),
}

impl Work {
    fn id(&self) -> Option<&str> {
        match self {
            Work::Align(r) => r.id.as_deref(),
            Work::Delta(r) => r.id.as_deref(),
        }
    }
}

/// One admitted request en route to the solver.
struct Job {
    work: Work,
    admitted: Instant,
    reply: Sender<Json>,
}

struct Shared {
    opts: ServerOptions,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    /// `false` until boot recovery (if a state dir is set) has
    /// rebuilt the cache; align work arriving earlier gets a 503 with
    /// `retry_after_ms` instead of racing the replay.
    ready: AtomicBool,
    addr: SocketAddr,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    fn ready(&self) -> bool {
        self.ready.load(Ordering::Acquire)
    }
}

/// A running server; dropping the handle does NOT stop it — call
/// [`shutdown`](Self::shutdown) or send the `shutdown` op.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    solver_thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Bind and start serving. Returns once the listener is live; the
    /// actual bound address (ephemeral ports resolved) is
    /// [`addr`](Self::addr).
    pub fn start(opts: ServerOptions) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        // Serving starts not-ready iff there is boot recovery to do;
        // the solver flips the flag once the cache is rebuilt.
        let ready = opts.state_dir.is_none();
        let shared = Arc::new(Shared {
            opts,
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            ready: AtomicBool::new(ready),
            addr,
        });
        // A supervised child learns its restart ordinal from the
        // supervisor so `metrics`/`health` can report it.
        if let Some(k) = std::env::var("NETALIGND_RESTARTS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
        {
            shared.metrics.restarts.store(k, Ordering::Relaxed);
        }
        let (job_tx, job_rx) = mpsc::sync_channel::<Job>(shared.opts.queue_capacity);

        let solver_shared = shared.clone();
        let solver_thread = std::thread::Builder::new()
            .name("netalignd-solver".into())
            .spawn(move || solver_loop(solver_shared, job_rx))
            .expect("spawn solver thread");

        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("netalignd-accept".into())
            .spawn(move || accept_loop(accept_shared, listener, job_tx))
            .expect("spawn accept thread");

        Ok(ServerHandle {
            shared,
            accept_thread: Some(accept_thread),
            solver_thread: Some(solver_thread),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Trigger a drain-and-stop from inside the process (equivalent to
    /// the `shutdown` op).
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared);
    }

    /// Block until the server has fully drained and stopped.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.solver_thread.take() {
            let _ = t.join();
        }
        // Give connection threads (detached) a bounded grace period to
        // flush their final replies before the caller exits.
        let grace = Instant::now();
        while self.shared.metrics.connections.load(Ordering::Relaxed) > 0
            && grace.elapsed() < Duration::from_secs(2)
        {
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

fn begin_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::AcqRel) {
        return;
    }
    // Unblock the accept loop with a throwaway connection.
    let _ = TcpStream::connect_timeout(&shared.addr, Duration::from_millis(500));
}

// ---------------------------------------------------------------------
// Accept + connection threads
// ---------------------------------------------------------------------

fn accept_loop(shared: Arc<Shared>, listener: TcpListener, job_tx: SyncSender<Job>) {
    for stream in listener.incoming() {
        if shared.shutting_down() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let conn_shared = shared.clone();
        let conn_tx = job_tx.clone();
        let _ = std::thread::Builder::new()
            .name("netalignd-conn".into())
            .spawn(move || {
                ServerMetrics::bump(&conn_shared.metrics.connections);
                let _ = handle_connection(&conn_shared, stream, conn_tx);
                conn_shared
                    .metrics
                    .connections
                    .fetch_sub(1, Ordering::Relaxed);
            });
    }
    // Dropping the last sender lets the solver exit as soon as the
    // queue is drained.
    drop(job_tx);
}

/// `read_frame` that tolerates read timeouts: a timeout checks the
/// shutdown flag and otherwise keeps reading the same frame, so a slow
/// sender is never desynced. With `conn_timeout_ms` set, a frame that
/// has *started* but not finished within the budget surfaces as a
/// `TimedOut` error (progress does not reset the clock — the budget
/// bounds total frame receipt, so a drip-feeding peer cannot pin the
/// thread); idle connections between frames are never timed out.
fn read_frame_patient(
    shared: &Shared,
    stream: &mut TcpStream,
) -> std::io::Result<Option<FrameRead>> {
    struct Patient<'a> {
        shared: &'a Shared,
        stream: &'a mut TcpStream,
        started: bool,
        interrupted: bool,
        frame_started: Option<Instant>,
        conn_timeout: Option<Duration>,
    }
    impl Read for Patient<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            loop {
                match self.stream.read(buf) {
                    Ok(n) => {
                        self.started = true;
                        if n > 0 && self.frame_started.is_none() {
                            self.frame_started = Some(Instant::now());
                        }
                        return Ok(n);
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        // Between frames a shutdown closes the
                        // connection; mid-frame we keep waiting so a
                        // half-read frame still completes.
                        if self.shared.shutting_down() && !self.started {
                            self.interrupted = true;
                            return Ok(0);
                        }
                        if let (Some(limit), Some(t0)) = (self.conn_timeout, self.frame_started) {
                            if t0.elapsed() > limit {
                                return Err(std::io::Error::new(
                                    std::io::ErrorKind::TimedOut,
                                    "frame exceeded the connection timeout",
                                ));
                            }
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }
    let mut patient = Patient {
        shared,
        stream,
        started: false,
        interrupted: false,
        frame_started: None,
        conn_timeout: shared.opts.conn_timeout_ms.map(Duration::from_millis),
    };
    let frame = protocol::read_frame(&mut patient, shared.opts.max_frame_bytes);
    if patient.interrupted {
        return Ok(None);
    }
    frame.map(Some)
}

fn handle_connection(
    shared: &Shared,
    mut stream: TcpStream,
    job_tx: SyncSender<Job>,
) -> std::io::Result<()> {
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .ok();
    if let Some(ms) = shared.opts.conn_timeout_ms {
        stream
            .set_write_timeout(Some(Duration::from_millis(ms.max(100))))
            .ok();
    }
    loop {
        let frame = match read_frame_patient(shared, &mut stream) {
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {
                // The frame budget tripped: answer with a typed 408 so
                // the peer knows why, then close (the stream is no
                // longer frame-aligned).
                ServerMetrics::bump(&shared.metrics.timeouts);
                let reply = protocol::error_response(
                    CODE_TIMEOUT,
                    "frame did not complete within the connection timeout",
                    None,
                );
                let _ = protocol::write_json(&mut stream, &reply);
                return Ok(());
            }
            other => other?,
        };
        let frame = match frame {
            None | Some(FrameRead::Closed) => return Ok(()),
            Some(FrameRead::Oversized(len)) => {
                ServerMetrics::bump(&shared.metrics.oversized);
                let reply = protocol::error_response(
                    CODE_OVERSIZED,
                    &format!(
                        "frame of {len} bytes exceeds the limit of {}",
                        shared.opts.max_frame_bytes
                    ),
                    None,
                );
                protocol::write_json(&mut stream, &reply)?;
                continue;
            }
            Some(FrameRead::Frame(payload)) => payload,
        };
        let request = match protocol::parse_request(&frame) {
            Ok(r) => r,
            Err(e) => {
                ServerMetrics::bump(if e.code == protocol::CODE_MALFORMED {
                    &shared.metrics.malformed
                } else {
                    &shared.metrics.invalid
                });
                let reply = protocol::error_response(e.code, &e.message, None);
                protocol::write_json(&mut stream, &reply)?;
                continue;
            }
        };
        ServerMetrics::bump(&shared.metrics.requests_total);
        let reply = match request {
            Request::Ping => Json::obj(vec![
                ("code", Json::U64(CODE_OK as u64)),
                ("op", Json::str("pong")),
            ]),
            Request::Metrics => Json::obj(vec![
                ("code", Json::U64(CODE_OK as u64)),
                (
                    "metrics",
                    shared
                        .metrics
                        .to_json(shared.opts.queue_capacity, shared.opts.cache_capacity),
                ),
            ]),
            Request::Health => {
                let ready = shared.ready() && !shared.shutting_down();
                Json::obj(vec![
                    ("code", Json::U64(CODE_OK as u64)),
                    (
                        "status",
                        Json::str(if ready { "ready" } else { "degraded" }),
                    ),
                    ("ready", Json::Bool(ready)),
                    (
                        "restarts",
                        Json::U64(shared.metrics.restarts.load(Ordering::Relaxed)),
                    ),
                    (
                        "recoveries",
                        Json::U64(shared.metrics.recoveries.load(Ordering::Relaxed)),
                    ),
                    ("dist", netalign_trace::dist::global().snapshot().to_json()),
                ])
            }
            Request::Crash => {
                if shared.opts.allow_crash_op {
                    // Chaos hook: die the way a SIGKILL would — no
                    // unwinding, no flushing, no reply.
                    std::process::abort();
                }
                ServerMetrics::bump(&shared.metrics.invalid);
                protocol::error_response(CODE_INVALID, "crash op requires --allow-crash-op", None)
            }
            Request::Shutdown => {
                begin_shutdown(shared);
                Json::obj(vec![
                    ("code", Json::U64(CODE_OK as u64)),
                    ("draining", Json::Bool(true)),
                ])
            }
            Request::Align(req) => admit_job(shared, &job_tx, Work::Align(req)),
            Request::AlignDelta(req) => admit_job(shared, &job_tx, Work::Delta(req)),
        };
        protocol::write_json(&mut stream, &reply)?;
    }
}

fn admit_job(shared: &Shared, job_tx: &SyncSender<Job>, work: Work) -> Json {
    let id = work.id().map(str::to_string);
    if shared.shutting_down() {
        ServerMetrics::bump(&shared.metrics.shutting_down);
        return protocol::error_response(
            CODE_SHUTTING_DOWN,
            "server is draining; no new work accepted",
            id.as_deref(),
        );
    }
    if !shared.ready() {
        // Boot recovery is still replaying the journal. Unlike the
        // drain 503 above, this one carries `retry_after_ms`: the
        // condition is transient and the client should come back.
        ServerMetrics::bump(&shared.metrics.shutting_down);
        return protocol::retry_response(
            CODE_SHUTTING_DOWN,
            "recovering durable state; retry shortly",
            RECOVERY_RETRY_MS,
            id.as_deref(),
        );
    }
    let (reply_tx, reply_rx) = mpsc::channel();
    let job = Job {
        work,
        admitted: Instant::now(),
        reply: reply_tx,
    };
    match job_tx.try_send(job) {
        Ok(()) => {
            ServerMetrics::bump(&shared.metrics.queue_depth);
        }
        Err(TrySendError::Full(_)) => {
            ServerMetrics::bump(&shared.metrics.overload);
            return protocol::error_response(
                CODE_OVERLOAD,
                "admission queue is full; retry later",
                id.as_deref(),
            );
        }
        Err(TrySendError::Disconnected(_)) => {
            ServerMetrics::bump(&shared.metrics.shutting_down);
            return protocol::error_response(
                CODE_SHUTTING_DOWN,
                "solver has stopped",
                id.as_deref(),
            );
        }
    }
    // The solver always replies (panics are caught into a 500), so a
    // recv error means it died hard; surface that as internal.
    match reply_rx.recv() {
        Ok(reply) => reply,
        Err(_) => {
            ServerMetrics::bump(&shared.metrics.internal);
            protocol::error_response(CODE_INTERNAL, "solver terminated", id.as_deref())
        }
    }
}

// ---------------------------------------------------------------------
// Solver thread
// ---------------------------------------------------------------------

/// Open the state directory, replay the journal into a fresh cache,
/// and publish the recovery accounting. Runs on the solver thread
/// before the first job; align work arriving earlier is parried with
/// a retryable 503 by `admit_job`.
fn recover_durable(shared: &Shared, cache: &mut EngineCache) -> Option<DurableStore> {
    let dir = shared.opts.state_dir.as_deref()?;
    let (store, report, entries) = match DurableStore::open(dir, shared.opts.journal_max_bytes) {
        Ok(opened) => opened,
        Err(e) => {
            // Serving beats durability: fall back to in-memory mode
            // rather than refusing to boot.
            eprintln!("netalignd: state dir {} unusable: {e}", dir.display());
            ServerMetrics::bump(&shared.metrics.spill_write_errors);
            return None;
        }
    };
    let m = &shared.metrics;
    if report.journal_replayed > 0 {
        ServerMetrics::bump(&m.recoveries);
    }
    m.journal_replayed
        .fetch_add(report.journal_replayed, Ordering::Relaxed);
    m.journal_torn_discarded
        .fetch_add(report.journal_torn_discarded, Ordering::Relaxed);
    m.spill_load_errors
        .fetch_add(report.spill_load_errors, Ordering::Relaxed);
    for entry in entries {
        cache.insert(entry.fingerprint, entry.method, entry.problem, entry.config);
        if let Some(cached) = cache.peek_mut(entry.fingerprint) {
            cached.trajectory = entry.trajectory;
        }
    }
    m.cache_entries.store(cache.len() as u64, Ordering::Relaxed);
    Some(store)
}

fn solver_loop(shared: Arc<Shared>, job_rx: Receiver<Job>) {
    let pool = shared.opts.threads.map(|n| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .expect("build solver pool")
    });
    let mut cache = EngineCache::new(shared.opts.cache_capacity);
    let mut durable = recover_durable(&shared, &mut cache);
    shared.ready.store(true, Ordering::Release);
    loop {
        let job = match job_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                // The queue is empty right now; if we are draining,
                // every admitted job has been answered — stop.
                if shared.shutting_down() {
                    break;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let reply = match &pool {
            Some(pool) => pool.install(|| solve_one(&shared, &mut cache, &mut durable, &job)),
            None => solve_one(&shared, &mut cache, &mut durable, &job),
        };
        shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        shared
            .metrics
            .service_latency
            .record(job.admitted.elapsed());
        if faults::kill_due(KILL_REPLY) {
            // Crash with the work fully done but the answer unsent:
            // the client must see a clean error or reconnect, never a
            // half frame.
            std::process::abort();
        }
        let _ = job.reply.send(reply);
    }
}

fn solve_one(
    shared: &Shared,
    cache: &mut EngineCache,
    durable: &mut Option<DurableStore>,
    job: &Job,
) -> Json {
    if faults::kill_due(KILL_SOLVE) {
        // Crash with the job admitted but untouched: any journaled
        // `begin` stays uncommitted and recovery must discard it.
        std::process::abort();
    }
    let queue_wait = job.admitted.elapsed();
    let solved = catch_unwind(AssertUnwindSafe(|| match &job.work {
        Work::Align(req) => run_aligned(shared, cache, durable, req, queue_wait),
        Work::Delta(req) => run_delta(shared, cache, durable, req, queue_wait),
    }));
    match solved {
        Ok(reply) => reply,
        Err(_) => {
            ServerMetrics::bump(&shared.metrics.internal);
            protocol::error_response(
                CODE_INTERNAL,
                "solver panicked on this request; the server keeps serving",
                job.work.id(),
            )
        }
    }
}

fn run_aligned(
    shared: &Shared,
    cache: &mut EngineCache,
    durable: &mut Option<DurableStore>,
    req: &AlignRequest,
    queue_wait: Duration,
) -> Json {
    let fp = req.fingerprint;
    // The solve clock starts before the cache probe so a cold serve's
    // dominant cost — building the problem, squares matrix included —
    // shows up in solve_ms and the warm/cold histograms.
    let solve_start = Instant::now();

    // Cache probe. A miss pays the full problem build (squares matrix
    // included) and caches it; a hit reuses the built problem.
    let hit = cache.get_mut(fp).is_some();
    if hit {
        ServerMetrics::bump(&shared.metrics.cache_hits);
    } else {
        ServerMetrics::bump(&shared.metrics.cache_misses);
        let problem = NetAlignProblem::new(req.a.clone(), req.b.clone(), req.l.clone());
        if cache.insert(fp, req.method, problem, req.config).is_some() {
            ServerMetrics::bump(&shared.metrics.cache_evictions);
        }
    }
    shared
        .metrics
        .cache_entries
        .store(cache.len() as u64, Ordering::Relaxed);

    let entry = cache.peek_mut(fp).expect("entry just probed/inserted");

    let mut harness = RunHarness::new();
    if let Some(deadline_ms) = req.deadline_ms {
        // The SLO covers queue wait too: hand the solver whatever is
        // left (floor 1ms — the harness then returns best-so-far).
        let remaining = deadline_ms
            .saturating_sub(queue_wait.as_millis() as u64)
            .max(1);
        harness = harness.with_time_budget(TimeBudget::from_deadline_ms(remaining));
    }
    if let Some(watchdog_ms) = shared.opts.watchdog_ms {
        harness = harness.with_watchdog(Duration::from_millis(watchdog_ms));
    }

    // A recorded run captures the BP trajectory as a delta base; it
    // runs uninterrupted (the recording must be deterministic), so the
    // deadline/watchdog budget does not apply to it.
    let mut recorded = false;
    if req.record {
        if let Some(store) = durable.as_mut() {
            // Journal intent before the solve: a crash anywhere past
            // this point leaves a begin with no commit, which recovery
            // discards — never a half-recorded base.
            if let Err(e) = store.begin_record(fp) {
                ServerMetrics::bump(&shared.metrics.spill_write_errors);
                eprintln!("netalignd: journal begin for {fp:016x} failed: {e}");
            }
        }
    }
    let run =
        match (req.method, req.record) {
            (Method::Bp, true) => harness.run_bp_recorded(&entry.problem, &entry.config).map(
                |(outcome, trajectory)| {
                    entry.trajectory = Some(trajectory);
                    recorded = true;
                    outcome
                },
            ),
            (Method::Bp, false) => harness.run_bp(&entry.problem, &entry.config),
            (Method::Mr, _) => harness.run_mr(&entry.problem, &entry.config),
        };
    let solve = solve_start.elapsed();

    match run {
        Ok(outcome) => {
            if recorded {
                if let Some(store) = durable.as_mut() {
                    // Spill first, commit second: a commit in the
                    // journal is a promise the spill file is durable.
                    let persisted = store
                        .spill(
                            fp,
                            req.method,
                            &entry.problem,
                            &entry.config,
                            entry.trajectory.as_ref(),
                        )
                        .and_then(|()| store.commit_record(fp).map_err(|e| e.to_string()));
                    if let Err(e) = persisted {
                        // Served but not durable: the reply still goes
                        // out, the entry just won't survive a crash.
                        ServerMetrics::bump(&shared.metrics.spill_write_errors);
                        eprintln!("netalignd: recorded base {fp:016x} not durable: {e}");
                    }
                }
            }
            record_outcome(shared, &outcome, hit, solve);
            protocol::align_response(
                req,
                &outcome,
                hit,
                recorded,
                queue_wait.as_secs_f64() * 1e3,
                solve.as_secs_f64() * 1e3,
            )
        }
        Err(e) => {
            ServerMetrics::bump(&shared.metrics.internal);
            protocol::error_response(
                CODE_INTERNAL,
                &format!("harness error: {e}"),
                req.id.as_deref(),
            )
        }
    }
}

/// Serve an `align_delta`: replay the recorded base against the edge
/// delta, patch the cached entry in place, and re-key it to the
/// patched problem's fingerprint. Every failure a client can cause —
/// unknown base, unrecorded base, semantically invalid delta — is a
/// typed 422 that leaves the cached base intact, so the client can
/// fall back to a full recorded `align`.
fn run_delta(
    shared: &Shared,
    cache: &mut EngineCache,
    durable: &mut Option<DurableStore>,
    req: &DeltaRequest,
    queue_wait: Duration,
) -> Json {
    let reject = |shared: &Shared, msg: &str| {
        ServerMetrics::bump(&shared.metrics.invalid);
        ServerMetrics::bump(&shared.metrics.delta_rejected);
        protocol::error_response(CODE_INVALID, msg, req.id.as_deref())
    };
    let solve_start = Instant::now();
    let replayed = {
        let Some(entry) = cache.get_mut(req.base) else {
            ServerMetrics::bump(&shared.metrics.cache_misses);
            return reject(
                shared,
                "unknown base fingerprint; re-align with record:true",
            );
        };
        ServerMetrics::bump(&shared.metrics.cache_hits);
        if entry.method != Method::Bp {
            return reject(shared, "delta re-alignment requires a bp base");
        }
        let Some(mut trajectory) = entry.trajectory.take() else {
            return reject(
                shared,
                "base fingerprint was not recorded; re-align with record:true",
            );
        };
        if let Some(store) = durable.as_mut() {
            // Same discipline as the record path: intent first, so a
            // crash mid-replay leaves the committed base untouched on
            // disk and an uncommitted begin recovery discards.
            if let Err(e) = store.begin_delta(req.base) {
                ServerMetrics::bump(&shared.metrics.spill_write_errors);
                eprintln!(
                    "netalignd: journal begin for delta {:016x} failed: {e}",
                    req.base
                );
            }
        }
        match core_delta::replay_bp(&entry.problem, &entry.config, &mut trajectory, &req.delta) {
            Ok(out) => {
                entry.problem = out.problem;
                entry.trajectory = Some(trajectory);
                let new_fp = problem_fingerprint(
                    &entry.problem.a,
                    &entry.problem.b,
                    &entry.problem.l,
                    Method::Bp,
                    &entry.config,
                );
                let outcome = AlignOutcome::completed(out.result, entry.config.iterations);
                Ok((new_fp, outcome, out.stats))
            }
            Err(e) => {
                // Replay validates and patches before touching the
                // trajectory, so the base stays replayable.
                entry.trajectory = Some(trajectory);
                Err(e)
            }
        }
    };
    let solve = solve_start.elapsed();
    match replayed {
        Ok((new_fp, outcome, stats)) => {
            // The entry now holds the patched problem: it answers to
            // the patched graphs' fingerprint, exactly what a client
            // cold-aligning those graphs would compute.
            cache.rekey(req.base, new_fp);
            if let Some(store) = durable.as_mut() {
                let persisted = match cache.peek_mut(new_fp) {
                    Some(entry) => store
                        .spill(
                            new_fp,
                            Method::Bp,
                            &entry.problem,
                            &entry.config,
                            entry.trajectory.as_ref(),
                        )
                        .and_then(|()| {
                            store
                                .commit_delta(req.base, new_fp)
                                .map_err(|e| e.to_string())
                        }),
                    None => Err("rekeyed entry vanished".to_string()),
                };
                match persisted {
                    Ok(()) => store.remove_spill(req.base),
                    Err(e) => {
                        ServerMetrics::bump(&shared.metrics.spill_write_errors);
                        eprintln!("netalignd: patched base {new_fp:016x} not durable: {e}");
                    }
                }
            }
            ServerMetrics::bump(&shared.metrics.delta_served);
            shared
                .metrics
                .delta_reused_iterations
                .fetch_add(stats.delta_reused_iterations as u64, Ordering::Relaxed);
            record_outcome(shared, &outcome, true, solve);
            protocol::delta_response(
                req,
                new_fp,
                &outcome,
                &stats,
                queue_wait.as_secs_f64() * 1e3,
                solve.as_secs_f64() * 1e3,
            )
        }
        Err(e) => reject(shared, &format!("delta rejected: {e}")),
    }
}

fn record_outcome(shared: &Shared, outcome: &AlignOutcome, warm: bool, solve: Duration) {
    ServerMetrics::bump(&shared.metrics.align_ok);
    if warm {
        shared.metrics.solve_warm.record(solve);
    } else {
        shared.metrics.solve_cold.record(solve);
    }
    if outcome.completion == Completion::DeadlineBestSoFar {
        ServerMetrics::bump(&shared.metrics.deadline_best_so_far);
    }
}
