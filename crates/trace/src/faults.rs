//! Deterministic fault injection for the resilience test suite.
//!
//! A [`FaultPlan`] names *where* a fault fires — a step name plus a
//! 1-based iteration, an Nth chunk claim, an Nth checkpoint write —
//! never *when* in wall-clock terms, so every injected failure is
//! reproducible bit-for-bit. Plans come from two sources:
//!
//! * **Tests** call [`install`] / [`clear`] directly (and serialize
//!   themselves through [`test_lock`]: the plan is process-global and
//!   `cargo test` runs a binary's tests on parallel threads).
//! * **Processes** (CI's fault matrix, manual runs) set the
//!   `NETALIGN_FAULT_*` environment variables, parsed once on first
//!   query:
//!   - `NETALIGN_FAULT_NAN=<step>@<iter>` — poison the named step's
//!     output with a NaN at that iteration,
//!   - `NETALIGN_FAULT_PANIC=<step>@<iter>` — panic at the top of the
//!     named step at that iteration (a deterministic "kill"),
//!   - `NETALIGN_FAULT_CHUNK_PANIC=<n>` — panic inside the worker that
//!     makes the `n`-th chunk claim after arming,
//!   - `NETALIGN_FAULT_CKPT=truncate@<n>` or `corrupt@<n>` — damage the
//!     `n`-th checkpoint write,
//!   - `NETALIGN_FAULT_DEADLINE=<iter>` — treat the end of aligner
//!     iteration `iter` as an expired time budget (a deterministic
//!     deadline: the harness stops there exactly as it would on a
//!     wall-clock expiry, without any real clock in the loop),
//!   - `NETALIGN_FAULT_HOLD=<iter>` — hold the run at the end of
//!     aligner iteration `iter` until its cancel token fires, so a
//!     cancel lands at a known iteration instead of racing the run,
//!   - `NETALIGN_FAULT_KILL=<point>[@<n>]` — hard-abort the process
//!     (no unwinding, no destructors — a deterministic `SIGKILL`
//!     stand-in) the `n`-th time the named serving fault point is
//!     reached (default: the first). `netalignd` probes `solve`,
//!     `journal-append`, `spill-rename`, and `reply`; distributed
//!     workers probe `dist-solve`, `dist-send`, and `dist-recv`; the
//!     chaos suites use this to crash a process at exact protocol
//!     moments,
//!   - `NETALIGN_FAULT_NET=<drop|dup|delay|torn>[@<n>]` — damage every
//!     `n`-th frame the armed process sends on a distributed-transport
//!     endpoint (default: every frame): `drop` discards it, `dup`
//!     sends it twice, `delay` stalls it, `torn` writes only a prefix
//!     and severs the connection. Counted process-wide, so a given
//!     run always tears the same frames.
//!
//! The module only *decides*; the subsystems under test do the
//! injecting: the aligner engines query [`nan_due`] / [`panic_point`],
//! the vendored runtime calls [`chunk_claim_tick`] through a hook, and
//! the checkpoint writer queries [`checkpoint_damage`]. Everything is
//! gated on one relaxed atomic ([`active`]), so a disarmed process pays
//! a single predictable branch per probe.

use crate::cancel::CancelToken;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant};

/// A named step/iteration pair: "fire in step `step` at 1-based
/// aligner iteration `iteration`".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StepTrigger {
    /// Injection-point name (e.g. `"bp.damping"`, `"mr.daxpy"`); the
    /// engines document which names they probe.
    pub step: String,
    /// 1-based iteration at which the fault fires.
    pub iteration: u64,
}

impl StepTrigger {
    /// `step@iteration` trigger.
    pub fn new(step: impl Into<String>, iteration: u64) -> Self {
        StepTrigger {
            step: step.into(),
            iteration,
        }
    }
}

/// What to do to a checkpoint file on its way to disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointDamage {
    /// Drop the second half of the serialized bytes.
    Truncate,
    /// Flip bits in the middle of the payload (checksum must catch it).
    Corrupt,
}

/// Damage the `nth_write`-th checkpoint written after arming (1-based).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointFault {
    /// The kind of damage.
    pub damage: CheckpointDamage,
    /// 1-based index of the checkpoint write to damage.
    pub nth_write: u64,
}

/// Hard-abort the process the `nth`-th time the named fault point is
/// reached (1-based, counted from plan installation). Unlike
/// [`FaultPlan::panic`] this does not unwind: [`kill_due`] callers
/// `std::process::abort()`, the closest deterministic stand-in for a
/// `SIGKILL`/OOM kill that still fires at an exact protocol moment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// Fault-point name (e.g. `"solve"`, `"journal-append"`,
    /// `"spill-rename"`, `"reply"`); the daemon documents which names
    /// it probes.
    pub point: String,
    /// 1-based hit count at which the kill fires.
    pub nth: u64,
}

/// What to do to a transport frame on its way out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Discard the frame (the reliability layer must retransmit).
    Drop,
    /// Send the frame twice (the receiver must deduplicate).
    Dup,
    /// Stall the frame long enough to trip the sender's answer
    /// timeout (the retransmission path must tolerate the late copy).
    Delay,
    /// Write only a prefix of the frame and sever the connection (the
    /// peer sees a typed torn-frame error and must reconnect).
    Torn,
}

/// Damage every `every`-th frame sent on a fault-armed transport
/// endpoint (1 = every frame). Counted process-wide from plan
/// installation, so a run's fault pattern is reproducible.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetFault {
    /// The kind of damage.
    pub kind: NetFaultKind,
    /// Apply to every `every`-th frame (1-based counter, ≥ 1).
    pub every: u64,
}

/// A complete fault-injection plan. Every field is independent; `None`
/// disables that fault class.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Poison the named step's output with a NaN once.
    pub nan: Option<StepTrigger>,
    /// Panic at the top of the named step once (deterministic kill).
    pub panic: Option<StepTrigger>,
    /// Panic inside the worker making the Nth chunk claim (1-based,
    /// counted process-wide from the moment the plan is installed).
    pub chunk_panic: Option<u64>,
    /// Damage the Nth checkpoint write.
    pub checkpoint: Option<CheckpointFault>,
    /// Treat the end of this 1-based aligner iteration as an expired
    /// time budget (deterministic deadline, no wall clock involved).
    pub deadline: Option<u64>,
    /// Hold the run at the end of this 1-based aligner iteration until
    /// its cancel token fires (bounded by [`HOLD_LIMIT`]).
    pub hold: Option<u64>,
    /// Hard-abort the process at the Nth hit of a named fault point.
    pub kill: Option<KillSpec>,
    /// Damage every Nth outgoing transport frame.
    pub net: Option<NetFault>,
}

impl FaultPlan {
    /// True when no fault class is armed.
    pub fn is_empty(&self) -> bool {
        self.nan.is_none()
            && self.panic.is_none()
            && self.chunk_panic.is_none()
            && self.checkpoint.is_none()
            && self.deadline.is_none()
            && self.hold.is_none()
            && self.kill.is_none()
            && self.net.is_none()
    }
}

// ---------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------

/// Fast gate: true iff a non-empty plan is installed. Probes check this
/// with one relaxed load before touching the lock.
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<FaultPlan>> = RwLock::new(None);
/// Chunk claims observed since the plan was installed.
static CHUNK_CLAIMS: AtomicU64 = AtomicU64::new(0);
/// Checkpoint writes observed since the plan was installed.
static CKPT_WRITES: AtomicU64 = AtomicU64::new(0);
/// Kill-point hits observed since the plan was installed.
static KILL_HITS: AtomicU64 = AtomicU64::new(0);
/// Transport frames sent since the plan was installed.
static NET_SENDS: AtomicU64 = AtomicU64::new(0);
/// Runs held at the hold point since the plan was installed.
static HOLDS: AtomicU64 = AtomicU64::new(0);
static ENV_LOADED: OnceLock<()> = OnceLock::new();
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// Serialize tests that install fault plans: the plan is process-wide
/// global state and `cargo test` runs one binary's tests on parallel
/// threads. Recovers the guard if a previous holder panicked (panicking
/// while holding the lock is routine for fault tests).
pub fn test_lock() -> MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Install a plan (resets trigger counters, arms the fast gate).
pub fn install(plan: FaultPlan) {
    let armed = !plan.is_empty();
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = Some(plan);
    CHUNK_CLAIMS.store(0, Ordering::Relaxed);
    CKPT_WRITES.store(0, Ordering::Relaxed);
    KILL_HITS.store(0, Ordering::Relaxed);
    NET_SENDS.store(0, Ordering::Relaxed);
    HOLDS.store(0, Ordering::Relaxed);
    ARMED.store(armed, Ordering::Release);
}

/// Remove any installed plan and disarm every probe.
pub fn clear() {
    ARMED.store(false, Ordering::Release);
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = None;
    CHUNK_CLAIMS.store(0, Ordering::Relaxed);
    CKPT_WRITES.store(0, Ordering::Relaxed);
    KILL_HITS.store(0, Ordering::Relaxed);
    NET_SENDS.store(0, Ordering::Relaxed);
    HOLDS.store(0, Ordering::Relaxed);
}

/// Parse the `NETALIGN_FAULT_*` environment variables once and install
/// the resulting plan if any variable is set. Called implicitly by the
/// probes; safe (and cheap) to call repeatedly. A plan already
/// installed via [`install`] is never overwritten.
pub fn load_env() {
    ENV_LOADED.get_or_init(|| {
        let plan = plan_from_env();
        if !plan.is_empty() && PLAN.read().unwrap_or_else(|e| e.into_inner()).is_none() {
            install(plan);
        }
    });
}

fn plan_from_env() -> FaultPlan {
    plan_from_lookup(&|key| std::env::var(key).ok())
}

/// Parse a plan from explicit `(variable, value)` pairs — the same
/// grammar as the `NETALIGN_FAULT_*` environment variables, exposed so
/// tests can exercise the parser without mutating the process
/// environment (which is read only once).
pub fn plan_from_env_pairs(pairs: &[(&str, &str)]) -> FaultPlan {
    plan_from_lookup(&|key| {
        pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| (*v).to_string())
    })
}

fn plan_from_lookup(get: &dyn Fn(&str) -> Option<String>) -> FaultPlan {
    FaultPlan {
        nan: get("NETALIGN_FAULT_NAN").and_then(|v| parse_step_trigger(&v)),
        panic: get("NETALIGN_FAULT_PANIC").and_then(|v| parse_step_trigger(&v)),
        chunk_panic: get("NETALIGN_FAULT_CHUNK_PANIC").and_then(|v| v.trim().parse().ok()),
        checkpoint: get("NETALIGN_FAULT_CKPT").and_then(|v| parse_checkpoint_fault(&v)),
        deadline: get("NETALIGN_FAULT_DEADLINE").and_then(|v| v.trim().parse().ok()),
        hold: get("NETALIGN_FAULT_HOLD").and_then(|v| v.trim().parse().ok()),
        kill: get("NETALIGN_FAULT_KILL").and_then(|v| parse_kill_spec(&v)),
        net: get("NETALIGN_FAULT_NET").and_then(|v| parse_net_fault(&v)),
    }
}

/// Parse the `NETALIGN_FAULT_NET` grammar (`drop|dup|delay|torn[@n]`).
/// Public so transport layers can interpret the variable themselves
/// without installing a process-global plan.
pub fn parse_net_fault(text: &str) -> Option<NetFault> {
    let (kind, every) = match text.split_once('@') {
        Some((kind, n)) => (kind, n.trim().parse().ok()?),
        None => (text, 1),
    };
    let kind = match kind.trim() {
        "drop" => NetFaultKind::Drop,
        "dup" => NetFaultKind::Dup,
        "delay" => NetFaultKind::Delay,
        "torn" => NetFaultKind::Torn,
        _ => return None,
    };
    if every == 0 {
        return None;
    }
    Some(NetFault { kind, every })
}

fn parse_kill_spec(text: &str) -> Option<KillSpec> {
    let (point, nth) = match text.split_once('@') {
        Some((point, nth)) => (point, nth.trim().parse().ok()?),
        None => (text, 1),
    };
    let point = point.trim();
    if point.is_empty() || nth == 0 {
        return None;
    }
    Some(KillSpec {
        point: point.to_string(),
        nth,
    })
}

fn parse_step_trigger(text: &str) -> Option<StepTrigger> {
    let (step, iter) = text.split_once('@')?;
    let iteration = iter.trim().parse().ok()?;
    if step.is_empty() {
        return None;
    }
    Some(StepTrigger::new(step.trim(), iteration))
}

fn parse_checkpoint_fault(text: &str) -> Option<CheckpointFault> {
    let (kind, nth) = text.split_once('@')?;
    let damage = match kind.trim() {
        "truncate" => CheckpointDamage::Truncate,
        "corrupt" => CheckpointDamage::Corrupt,
        _ => return None,
    };
    let nth_write = nth.trim().parse().ok()?;
    Some(CheckpointFault { damage, nth_write })
}

/// True when a non-empty plan is armed (also triggers the one-time env
/// parse, so call sites need no separate init).
#[inline]
pub fn active() -> bool {
    load_env();
    ARMED.load(Ordering::Acquire)
}

fn with_plan<T>(f: impl FnOnce(&FaultPlan) -> T) -> Option<T> {
    let guard = PLAN.read().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().map(f)
}

// ---------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------

/// Should the caller poison the named step's output at this iteration?
#[inline]
pub fn nan_due(step: &str, iteration: u64) -> bool {
    if !active() {
        return false;
    }
    with_plan(|p| {
        p.nan
            .as_ref()
            .is_some_and(|t| t.step == step && t.iteration == iteration)
    })
    .unwrap_or(false)
}

/// Panic (the deterministic "kill") if the plan targets this
/// step/iteration. Called at the top of the engines' `step()`.
#[inline]
pub fn panic_point(step: &str, iteration: u64) {
    if !active() {
        return;
    }
    let due = with_plan(|p| {
        p.panic
            .as_ref()
            .is_some_and(|t| t.step == step && t.iteration == iteration)
    })
    .unwrap_or(false);
    if due {
        panic!("injected fault: kill in {step} at iteration {iteration}");
    }
}

/// Chunk-claim hook for the vendored runtime: counts claims and panics
/// on the Nth one. Installed into the pool (as a plain `fn` pointer) by
/// `netalign-core`; the disarmed cost is one relaxed load.
pub fn chunk_claim_tick() {
    if !ARMED.load(Ordering::Acquire) {
        return;
    }
    let target = with_plan(|p| p.chunk_panic).flatten();
    if let Some(n) = target {
        let claim = CHUNK_CLAIMS.fetch_add(1, Ordering::Relaxed) + 1;
        if claim == n {
            panic!("injected fault: worker panic on chunk claim {n}");
        }
    }
}

/// Counts a checkpoint write; returns the damage to apply to this one,
/// if the plan targets it.
pub fn checkpoint_damage() -> Option<CheckpointDamage> {
    if !active() {
        return None;
    }
    let fault = with_plan(|p| p.checkpoint).flatten()?;
    let write = CKPT_WRITES.fetch_add(1, Ordering::Relaxed) + 1;
    (write == fault.nth_write).then_some(fault.damage)
}

/// The injected deadline iteration, if the plan carries one. The
/// harness compares it against the just-finished 1-based iteration and
/// stops exactly as if the wall-clock budget had expired there.
#[inline]
pub fn deadline_iteration() -> Option<u64> {
    if !active() {
        return None;
    }
    with_plan(|p| p.deadline).flatten()
}

/// Longest a run waits at the hold point for its cancel token.
pub const HOLD_LIMIT: Duration = Duration::from_secs(30);

/// The hold point, probed by the harness at the end of every aligner
/// iteration `k` (1-based): when the plan holds at `k`, count the hit
/// and wait until `token` is cancelled or [`HOLD_LIMIT`] has passed.
pub fn hold_point(k: u64, token: &CancelToken) {
    if !active() || with_plan(|p| p.hold) != Some(Some(k)) {
        return;
    }
    HOLDS.fetch_add(1, Ordering::Relaxed);
    let start = Instant::now();
    while !token.is_cancelled() && start.elapsed() < HOLD_LIMIT {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// How many runs reached the hold point since the plan was installed.
pub fn holds_reached() -> u64 {
    HOLDS.load(Ordering::Relaxed)
}

/// Should the caller hard-abort at this named fault point? Counts a
/// hit whenever the armed plan's kill targets `point`, and returns
/// `true` exactly on the Nth hit. Callers are expected to
/// `std::process::abort()` when this returns `true` — the probe only
/// *decides*, keeping the decision testable without dying.
#[inline]
pub fn kill_due(point: &str) -> bool {
    if !active() {
        return false;
    }
    let nth = with_plan(|p| {
        p.kill
            .as_ref()
            .and_then(|k| (k.point == point).then_some(k.nth))
    })
    .flatten();
    match nth {
        Some(n) => KILL_HITS.fetch_add(1, Ordering::Relaxed) + 1 == n,
        None => false,
    }
}

/// Counts one outgoing transport frame; returns the damage to apply
/// to it, if the armed plan's net fault targets this send (every
/// `every`-th frame since installation).
#[inline]
pub fn net_fault_tick() -> Option<NetFaultKind> {
    if !active() {
        return None;
    }
    let fault = with_plan(|p| p.net).flatten()?;
    let sent = NET_SENDS.fetch_add(1, Ordering::Relaxed) + 1;
    sent.is_multiple_of(fault.every).then_some(fault.kind)
}

/// Apply [`CheckpointDamage`] to a serialized checkpoint buffer.
pub fn damage_bytes(bytes: &mut Vec<u8>, damage: CheckpointDamage) {
    match damage {
        CheckpointDamage::Truncate => {
            let keep = bytes.len() / 2;
            bytes.truncate(keep);
        }
        CheckpointDamage::Corrupt => {
            let mid = bytes.len() / 2;
            for b in bytes.iter_mut().skip(mid).take(8) {
                *b ^= 0xA5;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_env_grammar() {
        assert_eq!(
            parse_step_trigger("bp.damping@7"),
            Some(StepTrigger::new("bp.damping", 7))
        );
        assert_eq!(parse_step_trigger("@7"), None);
        assert_eq!(parse_step_trigger("bp.damping"), None);
        assert_eq!(parse_step_trigger("bp.damping@x"), None);
        assert_eq!(
            parse_checkpoint_fault("truncate@2"),
            Some(CheckpointFault {
                damage: CheckpointDamage::Truncate,
                nth_write: 2
            })
        );
        assert_eq!(
            parse_checkpoint_fault("corrupt@1"),
            Some(CheckpointFault {
                damage: CheckpointDamage::Corrupt,
                nth_write: 1
            })
        );
        assert_eq!(parse_checkpoint_fault("shred@1"), None);
    }

    #[test]
    fn parses_deadline_from_env_pairs() {
        let plan = plan_from_env_pairs(&[("NETALIGN_FAULT_DEADLINE", "5")]);
        assert_eq!(plan.deadline, Some(5));
        assert!(!plan.is_empty());
        let bad = plan_from_env_pairs(&[("NETALIGN_FAULT_DEADLINE", "soon")]);
        assert_eq!(bad.deadline, None);
        assert!(bad.is_empty());
    }

    #[test]
    fn deadline_probe_reports_installed_iteration() {
        let _guard = test_lock();
        assert_eq!(deadline_iteration(), None);
        install(FaultPlan {
            deadline: Some(7),
            ..Default::default()
        });
        assert_eq!(deadline_iteration(), Some(7));
        clear();
        assert_eq!(deadline_iteration(), None);
    }

    #[test]
    fn install_clear_round_trip() {
        let _guard = test_lock();
        assert!(!active());
        install(FaultPlan {
            nan: Some(StepTrigger::new("bp.damping", 3)),
            ..Default::default()
        });
        assert!(active());
        assert!(nan_due("bp.damping", 3));
        assert!(!nan_due("bp.damping", 4));
        assert!(!nan_due("mr.daxpy", 3));
        clear();
        assert!(!active());
        assert!(!nan_due("bp.damping", 3));
    }

    #[test]
    fn empty_plan_does_not_arm() {
        let _guard = test_lock();
        install(FaultPlan::default());
        assert!(!active());
        clear();
    }

    #[test]
    fn panic_point_fires_only_at_target() {
        let _guard = test_lock();
        install(FaultPlan {
            panic: Some(StepTrigger::new("mr.step", 2)),
            ..Default::default()
        });
        panic_point("mr.step", 1); // not yet
        panic_point("bp.step", 2); // wrong step
        let err = std::panic::catch_unwind(|| panic_point("mr.step", 2));
        clear();
        let payload = err.expect_err("must panic at the trigger");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected fault"), "got: {msg}");
    }

    #[test]
    fn chunk_claims_count_until_target() {
        let _guard = test_lock();
        install(FaultPlan {
            chunk_panic: Some(3),
            ..Default::default()
        });
        chunk_claim_tick();
        chunk_claim_tick();
        let err = std::panic::catch_unwind(chunk_claim_tick);
        clear();
        assert!(err.is_err(), "third claim must panic");
    }

    #[test]
    fn checkpoint_damage_targets_nth_write() {
        let _guard = test_lock();
        install(FaultPlan {
            checkpoint: Some(CheckpointFault {
                damage: CheckpointDamage::Corrupt,
                nth_write: 2,
            }),
            ..Default::default()
        });
        assert_eq!(checkpoint_damage(), None);
        assert_eq!(checkpoint_damage(), Some(CheckpointDamage::Corrupt));
        assert_eq!(checkpoint_damage(), None);
        clear();
    }

    #[test]
    fn parses_kill_spec() {
        assert_eq!(
            parse_kill_spec("journal-append"),
            Some(KillSpec {
                point: "journal-append".to_string(),
                nth: 1
            })
        );
        assert_eq!(
            parse_kill_spec("solve@3"),
            Some(KillSpec {
                point: "solve".to_string(),
                nth: 3
            })
        );
        assert_eq!(parse_kill_spec(""), None);
        assert_eq!(parse_kill_spec("@2"), None);
        assert_eq!(parse_kill_spec("solve@0"), None);
        assert_eq!(parse_kill_spec("solve@x"), None);
        let plan = plan_from_env_pairs(&[("NETALIGN_FAULT_KILL", "spill-rename@2")]);
        assert_eq!(
            plan.kill,
            Some(KillSpec {
                point: "spill-rename".to_string(),
                nth: 2
            })
        );
        assert!(!plan.is_empty());
    }

    #[test]
    fn kill_due_counts_hits_on_named_point() {
        let _guard = test_lock();
        install(FaultPlan {
            kill: Some(KillSpec {
                point: "reply".to_string(),
                nth: 2,
            }),
            ..Default::default()
        });
        assert!(!kill_due("solve")); // wrong point: no hit counted
        assert!(!kill_due("reply")); // hit 1 of 2
        assert!(!kill_due("solve"));
        assert!(kill_due("reply")); // hit 2: fire
        assert!(!kill_due("reply")); // fires exactly once
        clear();
        assert!(!kill_due("reply"));
    }

    #[test]
    fn parses_net_fault_grammar() {
        assert_eq!(
            parse_net_fault("drop@3"),
            Some(NetFault {
                kind: NetFaultKind::Drop,
                every: 3
            })
        );
        assert_eq!(
            parse_net_fault("torn"),
            Some(NetFault {
                kind: NetFaultKind::Torn,
                every: 1
            })
        );
        assert_eq!(
            parse_net_fault("delay@10"),
            Some(NetFault {
                kind: NetFaultKind::Delay,
                every: 10
            })
        );
        assert_eq!(parse_net_fault("shred@2"), None);
        assert_eq!(parse_net_fault("drop@0"), None);
        assert_eq!(parse_net_fault("drop@x"), None);
        let plan = plan_from_env_pairs(&[("NETALIGN_FAULT_NET", "dup@4")]);
        assert_eq!(
            plan.net,
            Some(NetFault {
                kind: NetFaultKind::Dup,
                every: 4
            })
        );
        assert!(!plan.is_empty());
    }

    #[test]
    fn net_fault_tick_fires_on_every_nth_send() {
        let _guard = test_lock();
        install(FaultPlan {
            net: Some(NetFault {
                kind: NetFaultKind::Drop,
                every: 3,
            }),
            ..Default::default()
        });
        assert_eq!(net_fault_tick(), None);
        assert_eq!(net_fault_tick(), None);
        assert_eq!(net_fault_tick(), Some(NetFaultKind::Drop));
        assert_eq!(net_fault_tick(), None);
        assert_eq!(net_fault_tick(), None);
        assert_eq!(net_fault_tick(), Some(NetFaultKind::Drop));
        clear();
        assert_eq!(net_fault_tick(), None);
    }

    #[test]
    fn damage_bytes_truncates_and_corrupts() {
        let original: Vec<u8> = (0..64).collect();
        let mut t = original.clone();
        damage_bytes(&mut t, CheckpointDamage::Truncate);
        assert_eq!(t.len(), 32);
        let mut c = original.clone();
        damage_bytes(&mut c, CheckpointDamage::Corrupt);
        assert_eq!(c.len(), 64);
        assert_ne!(c, original);
    }
}
