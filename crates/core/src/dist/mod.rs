//! Distributed execution: multi-process BP and matching over localhost
//! TCP with crash recovery — paper §IX's distributed setting, with
//! sparse matrix primitives and a distributed half-approximate matcher.
//!
//! The ranks are actual worker **processes** wired to a coordinator
//! over length-prefixed frames ([`crate::frame`]):
//!
//! * [`partition`] — the static left-vertex partition, its halo plans
//!   and the column-statistics merge that the coordinator, the workers
//!   and the codec share;
//! * [`wire`] — the bit-exact binary codec for coordinator↔worker
//!   messages;
//! * [`rpc`] — reliable request/response over a lossy transport
//!   (sequence numbers, retransmission, reconnect handling,
//!   deterministic fault injection on first transmissions);
//! * [`worker`] — the worker process loop: the BP superstep kernels
//!   and matcher phases, exactly-once execution via seq dedup, durable
//!   per-iteration checkpoints, deterministic crash points;
//! * [`ckpt`] — the `NADC` checkpoint files recovery resumes from;
//! * [`coordinator`] — supervision (heartbeats, bounded respawn,
//!   repartition onto survivors) and the BSP driver whose results are
//!   bit-identical to the single-process engine under every injected
//!   fault.
//!
//! Entry points: [`align_distributed`] from the coordinator side, and
//! [`maybe_run_worker`] — which every distributed-capable binary must
//! call first in `main` so spawned workers re-enter the worker loop.

pub(crate) mod ckpt;
pub(crate) mod coordinator;
pub(crate) mod partition;
pub(crate) mod rpc;
pub(crate) mod wire;
pub(crate) mod worker;

pub use coordinator::{align_distributed, match_distributed, DistConfig, DistError, DistReport};
pub use netalign_trace::faults::{parse_net_fault, NetFault, NetFaultKind};
pub use rpc::Timeouts;
pub use worker::{maybe_run_worker, WORKER_ENV};
