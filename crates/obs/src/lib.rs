//! # splitserve-obs — the unified observability layer
//!
//! The paper's whole evaluation (the Figure 7 execution timelines, the
//! per-executor work distributions, the shuffle-store comparisons of §6)
//! is built from fine-grained runtime telemetry. This crate is the
//! substrate that produces it:
//!
//! - [`MetricsRegistry`] — named counters, gauges and fixed-bucket
//!   histograms, labelled by executor kind, stage, store backend, …
//! - [`SpanRecorder`] — structured, nested spans stamped with the
//!   deterministic simulation clock ([`SimTime`]): task runs, shuffle
//!   writes/fetches, Lambda cold/warm starts, segue drains, rollbacks.
//! - Exporters — Chrome trace-event JSON ([`SpanRecorder::to_chrome_trace`],
//!   loadable in `chrome://tracing` / Perfetto to reproduce Figure-7-style
//!   timelines) and Prometheus text exposition
//!   ([`MetricsRegistry::render_prometheus`]).
//!
//! Everything hangs off an [`Obs`] handle. The handle is **off by
//! default**: a disabled handle holds no allocation and every record call
//! is a single branch on an `Option`, so instrumented hot paths cost
//! nothing measurable when observability is not requested (see the
//! `obs_overhead` benchmark in `splitserve-bench`).
//!
//! ```
//! use splitserve_des::SimTime;
//! use splitserve_obs::Obs;
//!
//! let obs = Obs::enabled();
//! obs.metrics.counter_add("tasks_completed_total", &[("kind", "vm")], 1);
//! let span = obs.spans.open(SimTime::ZERO, "vm", "exec-0", "task 0.0");
//! obs.spans.close(span, SimTime::from_secs(2));
//! assert!(obs.spans.to_chrome_trace().contains("traceEvents"));
//!
//! // Disabled: same calls, no effect, no allocation.
//! let off = Obs::disabled();
//! off.metrics.counter_add("tasks_completed_total", &[("kind", "vm")], 1);
//! assert_eq!(off.metrics.counter_value("tasks_completed_total", &[("kind", "vm")]), 0);
//! ```

#![warn(missing_docs)]

mod chrome;
mod digest;
mod flight;
mod ledger;
mod prometheus;
mod registry;
mod span;
mod timeseries;

pub use digest::{QuantileDigest, DEFAULT_DIGEST_ALPHA, MIN_TRACKABLE};
pub use flight::{FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use ledger::{BillLedger, BillPoint, SloLedger, SloPoint, TenantId};
pub use registry::{
    CounterHandle, HistogramHandle, HistogramSnapshot, MetricsRegistry, QuantileHandle,
    DEFAULT_LATENCY_BUCKETS,
};
pub use span::{Span, SpanId, SpanRecorder};
pub use timeseries::{RollupSpec, Rollups, WindowSnapshot};

use splitserve_des::SimTime;

/// The bundle instrumented layers carry: a metrics registry plus a span
/// recorder, both sharing one enabled/disabled state.
///
/// Cloneable handle; clones share the underlying storage.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Counters, gauges, histograms and streaming quantile digests.
    pub metrics: MetricsRegistry,
    /// Structured spans for timeline export.
    pub spans: SpanRecorder,
    /// Windowed time-series rollups over virtual time.
    pub rollups: Rollups,
    /// Bounded ring of recent structured events, dumpable as a
    /// replayable JSON snapshot on failure.
    pub flight: FlightRecorder,
}

impl Obs {
    /// A disabled handle: every record call is a no-op branch. This is
    /// also what [`Obs::default`] returns — observability is opt-in.
    pub fn disabled() -> Self {
        Obs::default()
    }

    /// An enabled handle recording into fresh storage.
    pub fn enabled() -> Self {
        Obs {
            metrics: MetricsRegistry::enabled(),
            spans: SpanRecorder::enabled(),
            rollups: Rollups::enabled(),
            flight: FlightRecorder::enabled(),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.metrics.is_enabled()
            || self.spans.is_enabled()
            || self.rollups.is_enabled()
            || self.flight.is_enabled()
    }

    /// Records one injected fault of `kind` as
    /// `faults_injected_total{kind}` — the counter the chaos plane bumps
    /// for every kill, drain, straggle, latency window and storage fault
    /// it performs, so a metrics dump distinguishes injected trouble from
    /// organic trouble.
    pub fn count_fault(&self, kind: &str) {
        self.metrics
            .counter_add("faults_injected_total", &[("kind", kind)], 1);
    }

    /// [`Obs::count_fault`] plus a flight-recorder event, for injectors
    /// that know *when* the fault fired — so a post-mortem dump shows
    /// injected trouble inline with the task transitions it caused.
    pub fn fault_event(&self, at: SimTime, kind: &str) {
        self.count_fault(kind);
        self.flight.record(at, "fault-injected", &[("kind", kind)]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let obs = Obs::default();
        assert!(!obs.is_enabled());
        obs.spans.instant(SimTime::ZERO, "driver", "driver", "noop");
        obs.metrics.counter_add("noop_total", &[], 1);
        assert!(obs.spans.finished_spans().is_empty());
        assert_eq!(obs.metrics.render_prometheus(), "");
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        clone.metrics.counter_add("x_total", &[], 3);
        assert_eq!(obs.metrics.counter_value("x_total", &[]), 3);
    }
}
