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
//!   rendered as `EXPLAIN ANALYZE`-style text or JSON.
//! * [`FlightRecorder`] / [`SlowQueryLog`] — the always-on retrospective
//!   ring of completed traces and its threshold-gated slow-query view.
//! * [`QueryStatsTable`] / [`FingerprintStats`] — per-fingerprint
//!   rolling statistics (`pg_stat_statements`-style), keyed by the
//!   stable [`digest`] of a normalized statement.
//! * [`Gauge`] / [`MetricsHistory`] — point-in-time levels (pinned
//!   snapshots, vacuum backlog) and a retrospective ring of whole-engine
//!   snapshots sampled at a configurable interval.
//! * [`chrome_trace_json`] — Chrome trace-event (Perfetto-loadable)
//!   export of a trace sequence.
//! * [`prometheus_text`] / [`lint_prometheus_text`] — `/metrics`-style
//!   text exposition of a snapshot (counters, gauges, log2 histograms as
//!   cumulative `_bucket` series) and the strict lint the CI gate runs
//!   over it.

#![forbid(unsafe_code)]

mod counter;
mod export;
mod fingerprint;
mod gauge;
mod histogram;
mod history;
mod metrics;
mod ring;
mod trace;

pub use counter::Counter;
pub use export::{chrome_trace_json, lint_prometheus_text, prometheus_text};
pub use fingerprint::{digest, FingerprintStats, QueryStatsTable};
pub use gauge::Gauge;
pub use histogram::{bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use history::{HistoryPoint, MetricsHistory};
pub use metrics::{
    EngineMetrics, MetricsSnapshot, Stage, TxnSite, DETERMINISTIC_COUNTERS, GAUGES,
    METRICS_JSON_SCHEMA_VERSION, SCHEDULING_COUNTERS, WAIT_HISTOGRAMS,
};
pub use ring::{FlightRecorder, SlowQueryLog};
pub use trace::QueryTrace;
