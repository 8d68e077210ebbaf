//! The engine's single recorder.
//!
//! Every state change the scheduler makes — an executor joining, a task
//! starting, finishing or failing, a stage completing or rolling back, a
//! job completing, a higher layer's marker — is one typed
//! [`EngineEventKind`] handed to [`Telemetry::emit`]. One `match` folds it
//! into every view that depends on it, in a fixed order: the per-job
//! [`JobMetrics`], the cluster-wide
//! [`MetricsRegistry`](splitserve_obs::MetricsRegistry) handles, the
//! windowed rollups, the executor-lane spans the Chrome trace turns into
//! Figure-7-style timelines and the flight ring. The event is then moved
//! into the [`EventLog`]. The scheduler never touches a view directly, so
//! no view can drift from the log.
//!
//! Measurements the log does not carry — shuffle bytes, shuffle-phase
//! spans, task CPU and straggler suspicions — are direct calls on
//! [`Telemetry`]: they have no event to fold.
//!
//! Registry series the hot loop hits are resolved once at construction
//! into [`CounterHandle`]/[`HistogramHandle`]/[`QuantileHandle`] cells —
//! the per-task cost with observability on is atomic bumps, not key
//! builds. Span and flight recording (and the `format!` arguments they
//! consume) are gated on their recorders being enabled, so a run without
//! observability pays one branch per view, not a pile of `String`s.

use std::sync::Arc;

use splitserve_des::SimTime;
use splitserve_obs::{CounterHandle, HistogramHandle, Obs, QuantileHandle, SpanId};

use crate::events::{EngineEventKind, EventLog, FailureKind};
use crate::executor::{ExecutorId, ExecutorKind};
use crate::metrics::JobMetrics;

fn kind_label(kind: ExecutorKind) -> &'static str {
    match kind {
        ExecutorKind::Vm => "vm",
        ExecutorKind::Lambda => "lambda",
    }
}

fn kind_idx(kind: ExecutorKind) -> usize {
    match kind {
        ExecutorKind::Vm => 0,
        ExecutorKind::Lambda => 1,
    }
}

/// The two halves of a task's shuffle I/O, each with its own nested span
/// and `shuffle_phase_seconds{phase}` series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShufflePhase {
    /// Reading the task's input blocks.
    Fetch,
    /// Writing the task's map-output buckets.
    Write,
}

impl ShufflePhase {
    fn span_name(self) -> &'static str {
        match self {
            ShufflePhase::Fetch => "shuffle fetch",
            ShufflePhase::Write => "shuffle write",
        }
    }

    fn idx(self) -> usize {
        match self {
            ShufflePhase::Fetch => 0,
            ShufflePhase::Write => 1,
        }
    }
}

/// Buckets for whole-job execution times (seconds).
const JOB_EXECUTION_BUCKETS: &[f64] = &[1.0, 5.0, 15.0, 30.0, 60.0, 120.0, 300.0, 600.0, 1800.0];

/// Every registry series the scheduler records on its steady-state path,
/// resolved once. Indexed arrays follow [`kind_idx`] (vm, lambda),
/// [`FailureKind::idx`], or [`ShufflePhase::idx`].
#[derive(Debug, Default)]
struct Handles {
    executors_registered: [CounterHandle; 2],
    tasks_completed: [CounterHandle; 2],
    task_cpu_seconds: [HistogramHandle; 2],
    task_run_seconds: [QuantileHandle; 2],
    tasks_failed: [CounterHandle; 3],
    stragglers_suspected: CounterHandle,
    shuffle_bytes_read: CounterHandle,
    shuffle_bytes_written: CounterHandle,
    shuffle_phase_seconds_hist: [HistogramHandle; 2],
    shuffle_phase_seconds_quant: [QuantileHandle; 2],
    stages_completed: CounterHandle,
    stage_rollbacks: CounterHandle,
    stage_rollback_missing: CounterHandle,
    jobs_completed: CounterHandle,
    job_execution_seconds_hist: HistogramHandle,
    job_execution_seconds_quant: QuantileHandle,
}

impl Handles {
    fn resolve(obs: &Obs) -> Self {
        let m = &obs.metrics;
        let per_kind_counter =
            |name: &str| [0, 1].map(|i| m.counter_handle(name, &[("kind", ["vm", "lambda"][i])]));
        Handles {
            executors_registered: per_kind_counter("executors_registered_total"),
            tasks_completed: per_kind_counter("tasks_completed_total"),
            task_cpu_seconds: [0, 1].map(|i| {
                m.histogram_handle("task_cpu_seconds", &[("kind", ["vm", "lambda"][i])])
            }),
            task_run_seconds: [0, 1].map(|i| {
                m.quantile_handle("task_run_seconds", &[("kind", ["vm", "lambda"][i])])
            }),
            tasks_failed: FailureKind::LABELS
                .map(|why| m.counter_handle("tasks_failed_total", &[("reason", why)])),
            stragglers_suspected: m.counter_handle("stragglers_suspected_total", &[]),
            shuffle_bytes_read: m.counter_handle("shuffle_bytes_read_total", &[]),
            shuffle_bytes_written: m.counter_handle("shuffle_bytes_written_total", &[]),
            shuffle_phase_seconds_hist: [0, 1].map(|i| {
                m.histogram_handle("shuffle_phase_seconds", &[("phase", ["fetch", "write"][i])])
            }),
            shuffle_phase_seconds_quant: [0, 1].map(|i| {
                m.quantile_handle("shuffle_phase_seconds", &[("phase", ["fetch", "write"][i])])
            }),
            stages_completed: m.counter_handle("stages_completed_total", &[]),
            stage_rollbacks: m.counter_handle("stage_rollbacks_total", &[]),
            stage_rollback_missing: m.counter_handle("stage_rollback_missing_partitions_total", &[]),
            jobs_completed: m.counter_handle("jobs_completed_total", &[]),
            job_execution_seconds_hist: m.histogram_handle_with(
                "job_execution_seconds",
                &[],
                JOB_EXECUTION_BUCKETS,
            ),
            job_execution_seconds_quant: m.quantile_handle("job_execution_seconds", &[]),
        }
    }
}

/// What the fold needs beyond the event itself. Each field names the
/// events that read it; every other event ignores it, so call sites set
/// only what their event needs and leave the rest at the default.
pub(crate) struct Ctx<'a> {
    /// The owning job's metrics block: `TaskFinished`, `TaskFailed`,
    /// `StageCompleted`, `JobCompleted`.
    pub metrics: Option<&'a mut JobMetrics>,
    /// Substrate of the task's executor: `TaskStarted`, `TaskFinished`.
    pub kind: Option<ExecutorKind>,
    /// The attempt's executor-lane span: `TaskFinished`, `TaskFailed`.
    pub span: SpanId,
    /// Virtual seconds since the attempt was dispatched: `TaskFinished`.
    pub run_secs: f64,
}

impl Default for Ctx<'_> {
    fn default() -> Self {
        Ctx {
            metrics: None,
            kind: None,
            span: SpanId::NONE,
            run_secs: 0.0,
        }
    }
}

impl<'a> Ctx<'a> {
    /// Context carrying only the job's metrics block.
    pub fn job(metrics: &'a mut JobMetrics) -> Self {
        Ctx {
            metrics: Some(metrics),
            ..Ctx::default()
        }
    }
}

/// The engine's event log plus every view folded from it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Telemetry {
    obs: Obs,
    h: Arc<Handles>,
    log: EventLog,
}

impl Telemetry {
    pub fn new(obs: Obs) -> Self {
        let h = Arc::new(Handles::resolve(&obs));
        Telemetry {
            obs,
            h,
            log: EventLog::default(),
        }
    }

    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    pub fn log(&self) -> &EventLog {
        &self.log
    }

    /// Records one state change: folds `event` into every view, then
    /// moves it into the log. Returns the span a `TaskStarted` opened (the
    /// attempt carries it until its `TaskFinished`/`TaskFailed`), and
    /// [`SpanId::NONE`] for every other event.
    pub fn emit(&self, at: SimTime, event: EngineEventKind, ctx: Ctx<'_>) -> SpanId {
        let span = self.fold(at, &event, ctx);
        self.log.push(at, event);
        span
    }

    fn fold(&self, at: SimTime, event: &EngineEventKind, ctx: Ctx<'_>) -> SpanId {
        let (spans, flight) = (&self.obs.spans, &self.obs.flight);
        match event {
            EngineEventKind::ExecutorRegistered { exec, kind } => {
                self.h.executors_registered[kind_idx(*kind)].inc();
                spans.instant(at, kind_label(*kind), exec.as_str(), "registered");
            }
            EngineEventKind::TaskStarted { stage, part, exec } => {
                let mut span = SpanId::NONE;
                if let (true, Some(kind)) = (spans.is_enabled(), ctx.kind) {
                    span = spans.open(
                        at,
                        kind_label(kind),
                        exec.as_str(),
                        &format!("task s{}.{}", stage.0, part),
                    );
                    spans.annotate(span, "stage", &stage.0.to_string());
                }
                if flight.is_enabled() {
                    flight.record(
                        at,
                        "task-started",
                        &[
                            ("exec", exec.as_str()),
                            ("stage", &stage.0.to_string()),
                            ("part", &part.to_string()),
                        ],
                    );
                }
                return span;
            }
            EngineEventKind::TaskFinished {
                stage,
                part,
                cpu_secs,
                ..
            } => {
                let Some(kind) = ctx.kind else {
                    return SpanId::NONE;
                };
                if let Some(metrics) = ctx.metrics {
                    metrics.count_task(kind);
                }
                let (k, run_secs) = (kind_idx(kind), ctx.run_secs);
                self.h.tasks_completed[k].inc();
                self.h.task_cpu_seconds[k].observe(*cpu_secs);
                self.h.task_run_seconds[k].record(run_secs);
                self.obs.rollups.record(
                    "task_run_seconds",
                    &[("kind", kind_label(kind))],
                    at,
                    run_secs,
                );
                if spans.is_enabled() {
                    spans.annotate(ctx.span, "cpu_secs", &format!("{cpu_secs:.6}"));
                    spans.close(ctx.span, at);
                }
                if flight.is_enabled() {
                    flight.record(
                        at,
                        "task-finished",
                        &[
                            ("kind", kind_label(kind)),
                            ("stage", &stage.0.to_string()),
                            ("part", &part.to_string()),
                            ("run_secs", &format!("{run_secs:.6}")),
                        ],
                    );
                }
            }
            EngineEventKind::TaskFailed {
                stage,
                part,
                failure,
                ..
            } => {
                if let Some(metrics) = ctx.metrics {
                    metrics.tasks_recomputed += 1;
                }
                self.h.tasks_failed[failure.idx()].inc();
                if spans.is_enabled() {
                    spans.annotate(ctx.span, "failed", failure.label());
                    spans.close(ctx.span, at);
                }
                if flight.is_enabled() {
                    flight.record(
                        at,
                        "task-failed",
                        &[
                            ("stage", &stage.0.to_string()),
                            ("part", &part.to_string()),
                            ("reason", failure.label()),
                        ],
                    );
                }
            }
            EngineEventKind::StageCompleted { .. } => {
                if let Some(metrics) = ctx.metrics {
                    metrics.stages_run += 1;
                }
                self.h.stages_completed.inc();
            }
            EngineEventKind::StageRolledBack { stage, missing } => {
                self.h.stage_rollbacks.inc();
                self.h.stage_rollback_missing.add(*missing as u64);
                if spans.is_enabled() {
                    spans.instant(at, "driver", "driver", &format!("rollback s{}", stage.0));
                }
                if flight.is_enabled() {
                    flight.record(
                        at,
                        "stage-rollback",
                        &[
                            ("stage", &stage.0.to_string()),
                            ("missing", &missing.to_string()),
                        ],
                    );
                }
            }
            EngineEventKind::JobCompleted { job } => {
                let Some(metrics) = ctx.metrics else {
                    return SpanId::NONE;
                };
                self.h.jobs_completed.inc();
                let secs = metrics.execution_time().as_secs_f64();
                self.h.job_execution_seconds_hist.observe(secs);
                self.h.job_execution_seconds_quant.record(secs);
                self.obs.rollups.record("job_execution_seconds", &[], at, secs);
                if spans.is_enabled() {
                    spans.instant(at, "driver", "driver", &format!("{job} completed"));
                }
                if flight.is_enabled() {
                    flight.record(
                        at,
                        "job-completed",
                        &[
                            ("job", &job.to_string()),
                            ("execution_secs", &format!("{secs:.6}")),
                        ],
                    );
                }
            }
            // A marker reads "<track> <what>": an instant on the driver
            // lane's <track> track, an `obs_marks_total{name}` bump and a
            // flight record whose kind is the hyphenated text.
            EngineEventKind::Marker(text) => {
                let track = text.split(' ').next().unwrap_or_default();
                spans.instant(at, "driver", track, text);
                self.obs
                    .metrics
                    .counter_add("obs_marks_total", &[("name", text)], 1);
                if flight.is_enabled() {
                    flight.record(at, &text.replace(' ', "-"), &[]);
                }
            }
            EngineEventKind::ExecutorDraining { .. }
            | EngineEventKind::ExecutorDecommissioned { .. }
            | EngineEventKind::ExecutorLost { .. }
            | EngineEventKind::JobSubmitted { .. }
            | EngineEventKind::StageSubmitted { .. }
            | EngineEventKind::FetchFailed { .. } => {}
        }
        SpanId::NONE
    }

    /// A running task has outlived the configured multiple of its stage's
    /// live completion-time quantile: count it, annotate its span and
    /// leave a flight-recorder breadcrumb. Detection only — the scheduler
    /// takes no action.
    pub fn straggler_suspected(
        &self,
        at: SimTime,
        span: SpanId,
        stage: crate::stage::StageId,
        part: usize,
        elapsed_secs: f64,
        threshold_secs: f64,
    ) {
        self.h.stragglers_suspected.inc();
        if self.obs.spans.is_enabled() {
            self.obs.spans.annotate(
                span,
                "straggler",
                &format!("elapsed {elapsed_secs:.6}s > threshold {threshold_secs:.6}s"),
            );
        }
        if self.obs.flight.is_enabled() {
            self.obs.flight.record(
                at,
                "straggler-suspected",
                &[
                    ("stage", &stage.0.to_string()),
                    ("part", &part.to_string()),
                    ("elapsed_secs", &format!("{elapsed_secs:.6}")),
                    ("threshold_secs", &format!("{threshold_secs:.6}")),
                ],
            );
        }
    }

    pub fn task_cpu(&self, metrics: &mut JobMetrics, cpu_secs: f64) {
        metrics.cpu_secs_total += cpu_secs;
    }

    pub fn shuffle_read(&self, metrics: &mut JobMetrics, bytes: u64) {
        metrics.shuffle_bytes_read += bytes;
        self.h.shuffle_bytes_read.add(bytes);
    }

    pub fn shuffle_written(&self, metrics: &mut JobMetrics, bytes: u64) {
        metrics.shuffle_bytes_written += bytes;
        self.h.shuffle_bytes_written.add(bytes);
    }

    /// Opens a nested span for a task's shuffle fetch or write phase.
    pub fn shuffle_phase_started(
        &self,
        at: SimTime,
        exec: ExecutorId,
        kind: ExecutorKind,
        phase: ShufflePhase,
    ) -> SpanId {
        self.obs
            .spans
            .open(at, kind_label(kind), exec.as_str(), phase.span_name())
    }

    pub fn shuffle_phase_finished(
        &self,
        at: SimTime,
        span: SpanId,
        phase: ShufflePhase,
        started: SimTime,
    ) {
        self.obs.spans.close(span, at);
        let secs = at.saturating_since(started).as_secs_f64();
        self.h.shuffle_phase_seconds_hist[phase.idx()].observe(secs);
        self.h.shuffle_phase_seconds_quant[phase.idx()].record(secs);
    }

    /// A shuffle phase ended without completing (store error, executor
    /// death). The span closes marked aborted; no latency is observed, so
    /// the `shuffle_phase_seconds` histogram stays successful-ops-only.
    pub fn shuffle_phase_aborted(&self, at: SimTime, span: SpanId) {
        self.obs.spans.annotate(span, "aborted", "true");
        self.obs.spans.close(span, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_marker_folds_into_spans_metrics_and_flight() {
        let obs = Obs::enabled();
        let tele = Telemetry::new(obs.clone());
        let at = SimTime::from_secs(3);
        let span = tele.emit(
            at,
            EngineEventKind::Marker("segue commences".into()),
            Ctx::default(),
        );
        assert_eq!(span, SpanId::NONE);
        assert_eq!(
            obs.metrics
                .counter_value("obs_marks_total", &[("name", "segue commences")]),
            1
        );
        let flight = obs.flight.snapshot();
        assert_eq!(flight.len(), 1);
        assert_eq!(
            (flight[0].at, flight[0].kind.as_str()),
            (at, "segue-commences")
        );
        assert!(flight[0].fields.is_empty());
        let trace = obs.spans.to_chrome_trace();
        assert!(trace.contains("\"segue commences\""), "{trace}");
        assert_eq!(
            tele.log().snapshot()[0].kind,
            EngineEventKind::Marker("segue commences".into())
        );
    }
}
