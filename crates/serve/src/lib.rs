//! netalign-serve: alignment-as-a-service.
//!
//! A long-lived daemon (`netalignd`) wraps the PR-1..5 alignment stack
//! behind a length-prefixed JSON protocol:
//!
//! - **Engine cache** ([`cache`]): problems are fingerprinted
//!   ([`fingerprint`]) and kept resident — repeat requests skip the
//!   squares-matrix build.
//! - **Per-request SLOs** ([`server`]): each request's `deadline_ms`
//!   (measured from admission, queue wait included) maps onto the
//!   existing [`netalign_core::config::TimeBudget`] / watchdog /
//!   degradation-ladder machinery, so every align reply is a
//!   well-formed outcome — best-so-far under pressure, never a hang.
//! - **Bounded admission** ([`server`]): a typed 429 when the queue is
//!   full, a typed 503 while draining.
//! - **Observability** ([`metrics`]): counters, cache and queue gauges,
//!   and latency histograms behind the `metrics` op.
//!
//! The wire format ([`protocol`]) is a 4-byte big-endian length prefix
//! followed by one UTF-8 JSON object; [`json`] is the strict,
//! dependency-free parser for inbound frames and [`client`] a minimal
//! blocking client used by the tests and `loadgen`.

pub mod cache;
pub mod client;
pub mod durable;
pub mod fingerprint;
pub mod json;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use cache::EngineCache;
pub use client::Client;
pub use fingerprint::{problem_fingerprint, Method};
pub use server::{ServerHandle, ServerOptions};
