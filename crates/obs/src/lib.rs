//! Query observability for the Jackpine engine: lock-cheap counters and
//! histograms, an engine-wide metrics registry, and per-query traces.
//!
//! The crate is deliberately dependency-free and engine-agnostic: it
//! knows about *stages* and *counters*, not about SQL or geometry, so it
//! sits below every other crate in the workspace. Recording costs one
//! relaxed atomic op per event (sharded to avoid cache-line contention),
//! which keeps always-on metrics under the 2% overhead budget documented
//! in DESIGN.md.
//!
//! The surfaces, bottom-up:
//!
//! * [`Counter`] — sharded atomic event counter.
//! * [`Histogram`] / [`HistogramSnapshot`] — fixed log2-bucket latency
//!   histogram.
//! * [`EngineMetrics`] / [`MetricsSnapshot`] — the named registry every
//!   subsystem records into, with canonical counter ordering, snapshot
//!   deltas, and a split between deterministic and scheduling-dependent
//!   counters that the test harness relies on.
//! * [`QueryTrace`] — per-query view (stage timings + counter delta),
//!   rendered as `EXPLAIN ANALYZE`-style text with an explicit
//!   `unaccounted` remainder.
//! * [`FlightRecorder`] / [`SlowQueryLog`] — the always-on retrospective
//!   ring of completed traces and its threshold-gated slow-query view.
//! * [`QueryStatsTable`] / [`FingerprintStats`] — per-fingerprint
//!   rolling statistics (`pg_stat_statements`-style), keyed by the
//!   stable [`digest`] of a normalized statement.
//!
//! The engine serves all of it as SQL through its `jp_*` system tables;
//! this crate renders nothing but the `EXPLAIN ANALYZE` text.

#![forbid(unsafe_code)]

mod counter;
mod fingerprint;
mod histogram;
mod metrics;
mod ring;
mod trace;

pub use counter::Counter;
pub use fingerprint::{digest, FingerprintStats, QueryStatsTable};
pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use metrics::{
    EngineMetrics, MetricsSnapshot, Stage, TxnSite, DETERMINISTIC_COUNTERS, GAUGES,
    SCHEDULING_COUNTERS, WAIT_HISTOGRAMS,
};
pub use ring::{FlightRecorder, SlowQueryLog};
pub use trace::QueryTrace;
