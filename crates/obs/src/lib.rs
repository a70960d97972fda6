//! `esp-obs` — the workspace-wide observability substrate.
//!
//! Every layer of the reproduction (corpus profiling, the runtime pool,
//! network training, the evaluation folds, the prediction server) reports
//! into this crate instead of carrying its own ad-hoc counters. Three
//! pieces, all std-only like the rest of the workspace:
//!
//! * [`trace`] — a lightweight span/event tracing API. [`span!`] returns a
//!   guard that records a complete event (start timestamp + duration) into
//!   a **bounded per-thread ring buffer** ([`ring::TraceRing`]) when it is
//!   dropped; [`trace::drain`] collects every thread's events and
//!   [`trace::render_json`] turns them into the Chrome trace-event format
//!   (one event object per line) that `chrome://tracing` and Perfetto load
//!   directly.
//! * [`metrics`] — a registry of named atomic [`Counter`]s, [`Gauge`]s and
//!   [`Log2Histogram`]s (the log-bucketed latency histogram generalized out
//!   of `esp-serve`) with a Prometheus-style text exposition encoder.
//! * [`quantile`] — exact and histogram-based quantile estimators shared by
//!   the load generator and the `STATS` snapshot.
//!
//! Two production-telemetry pieces ride on top:
//!
//! * [`ledger`] — the per-site accuracy [`Ledger`]: serve-side predictions
//!   joined with `PROFILE`-fed observed outcomes into live
//!   miss-rate-vs-observed gauges, a 10-bucket calibration histogram, and
//!   the `/sitez` hot-site table. Deterministic exposition regardless of
//!   update order; same zero-cost-when-disabled contract as tracing.
//! * [`window`] — a [`SlidingWindow`] ring of fixed-width time buckets
//!   behind a [`Clock`] trait (with a manual [`TestClock`]), so windowed
//!   rps/p99/mispredict-rate are unit-testable deterministically.
//!
//! # The zero-cost-when-disabled contract
//!
//! Tracing is off by default. A [`span!`] or [`instant!`] in a hot loop
//! costs exactly one relaxed atomic load plus a branch while tracing is
//! disabled: no timestamp is taken, no argument is formatted, nothing is
//! allocated (asserted by a counted-allocator test). Telemetry is
//! observation-only by design — it never touches an RNG stream or a
//! floating-point accumulation, so results are bitwise identical with
//! tracing on and off (asserted by a Table 4 regression test in
//! `esp-eval`).
//!
//! # Determinism note
//!
//! Metrics counters are always live (their per-event cost is one relaxed
//! `fetch_add` at coarse granularity); histograms and timestamps on hot
//! paths are gated behind the tracing flag. Thread ids are small integers
//! assigned in first-use order, so traces from parallel runs are stable in
//! shape though not in interleaving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
pub mod metrics;
pub mod quantile;
pub mod ring;
pub mod trace;
pub mod window;

pub use ledger::{Ledger, LedgerSummary, OutcomeRecord, SiteReport};
pub use metrics::{Counter, Gauge, Log2Histogram, MetricsRegistry};
pub use quantile::exact_quantile;
pub use trace::{ArgValue, Recorder, SpanGuard, TraceEvent};
pub use window::{Clock, SlidingWindow, SystemClock, TestClock, WindowSnapshot};

use std::sync::OnceLock;

static GLOBAL_METRICS: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide metrics registry. Training, runtime-pool and evaluation
/// series live here; `esp-serve` keeps a per-server registry so concurrent
/// servers in one process do not share counters.
pub fn global_metrics() -> &'static MetricsRegistry {
    GLOBAL_METRICS.get_or_init(MetricsRegistry::new)
}

/// Open a span: `span!("cat", "name")` or
/// `span!("cat", "name", key = value, …)`. Returns a [`SpanGuard`] that
/// records a complete trace event when dropped. Argument expressions are
/// only evaluated when tracing is enabled.
#[macro_export]
macro_rules! span {
    ($cat:expr, $name:expr) => {
        $crate::Recorder::current().span($cat, $name, ::std::vec::Vec::new())
    };
    ($cat:expr, $name:expr, $($k:ident = $v:expr),+ $(,)?) => {{
        let __r = $crate::Recorder::current();
        let __args = if __r.is_enabled() {
            vec![$((stringify!($k), $crate::ArgValue::from($v))),+]
        } else {
            ::std::vec::Vec::new()
        };
        __r.span($cat, $name, __args)
    }};
}

/// Record an instant (zero-duration) trace event:
/// `instant!("cat", "name", key = value, …)`. Argument expressions are only
/// evaluated when tracing is enabled.
#[macro_export]
macro_rules! instant {
    ($cat:expr, $name:expr) => {
        $crate::Recorder::current().instant($cat, $name, ::std::vec::Vec::new())
    };
    ($cat:expr, $name:expr, $($k:ident = $v:expr),+ $(,)?) => {{
        let __r = $crate::Recorder::current();
        if __r.is_enabled() {
            __r.instant($cat, $name, vec![$((stringify!($k), $crate::ArgValue::from($v))),+]);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_metrics_is_a_singleton() {
        let a = global_metrics() as *const MetricsRegistry;
        let b = global_metrics() as *const MetricsRegistry;
        assert_eq!(a, b);
    }
}
