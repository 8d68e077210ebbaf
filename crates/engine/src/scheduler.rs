//! The engine: DAG scheduling, task execution, shuffle I/O and fault
//! recovery, driven entirely by simulation events.
//!
//! This is the component SplitServe modifies in Spark — the
//! `DAGScheduler`/`CoarseGrainedSchedulerBackend` pair. It:
//!
//! - splits a job into stages and submits them as parents complete;
//! - assigns tasks to registered executors (VM- or Lambda-backed alike);
//! - runs each task's *real* computation, charging virtual time for CPU
//!   (scaled by core speed and GC pressure) and for shuffle I/O through
//!   the block store;
//! - recovers from executor loss: failed tasks are re-queued, and when the
//!   shuffle store does not survive executor death (local disk), lost map
//!   outputs trigger the rollback cascade of parent-stage resubmission;
//! - supports *graceful draining* — the mechanism SplitServe's segueing
//!   facility relies on: a draining executor takes no new tasks, finishes
//!   its current one, and decommissions when idle.

use std::collections::{HashSet, VecDeque};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use splitserve_rt::{Bytes, FastMap, FastSet, TaskHandle, WorkerPool};
use splitserve_des::{Sim, SimDuration, SimTime};
use splitserve_obs::SpanId;
use splitserve_storage::{BlockId, BlockStore, StoreError};

use crate::config::EngineConfig;
use crate::context::TaskContext;
use crate::events::{EngineEventKind, EventLog, FailureKind, JobId};
use crate::executor::{ExecutorDesc, ExecutorId, ExecutorKind};
use crate::metrics::{JobMetrics, JobOutput};
use crate::node::{PartitionData, PlanNode, ShuffleBucket, ShuffleId};
use crate::stage::{build_stages, StageGraph, StageId, StageKind};
use crate::telemetry::{Ctx, ShufflePhase, Telemetry};
use crate::tracker::{MapOutputTracker, MapStatus};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AttemptId(u64);

/// Callback invoked when a draining executor finally leaves the cluster.
type DrainCallback = Box<dyn FnOnce(&mut Sim, ExecutorId)>;

struct ExecMeta {
    desc: ExecutorDesc,
    alive: bool,
    draining: bool,
    running: Option<AttemptId>,
    registered_at: SimTime,
    idle_since: SimTime,
    tasks_done: u64,
    on_drained: Option<DrainCallback>,
    /// Multiplier on the executor's core speed (1.0 = nominal). The chaos
    /// plane lowers it to turn an executor into a straggler.
    speed_factor: f64,
}

#[derive(Debug, Clone, Copy)]
struct AttemptInfo {
    job: JobId,
    stage: StageId,
    part: usize,
    exec: ExecutorId,
    /// The task's executor-lane span (no-op id when obs is disabled).
    span: SpanId,
    /// When the attempt was dispatched (the span's open instant) — the
    /// anchor for wall-clock run time and the straggler watch.
    started_at: SimTime,
    /// Already flagged by the straggler watch; flag-once per attempt.
    straggler_flagged: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageState {
    Waiting,
    Running,
    Done,
}

#[derive(Default)]
struct StageStatus {
    state: Option<StageState>, // None until initialized
    queued: HashSet<usize>,
    running: HashSet<usize>,
}

/// Driver-side completion callback of a job.
type JobDoneCallback = Box<dyn FnOnce(&mut Sim, JobOutput)>;

struct JobState {
    graph: StageGraph,
    status: Vec<StageStatus>,
    result_parts: Vec<Option<PartitionData>>,
    on_done: Option<JobDoneCallback>,
    /// Uniquely owned (`Arc::get_mut`) while the job runs; once the job
    /// completes, accessors hand out cheap `Arc` clones instead of deep-
    /// copying the whole metrics block.
    metrics: Arc<JobMetrics>,
    done: bool,
}

impl JobState {
    /// Mutable metrics access for the in-flight paths. The `Arc` is only
    /// ever shared *after* `done` is set, so this never fails while the
    /// job is live.
    #[inline]
    fn metrics_mut(&mut self) -> &mut JobMetrics {
        Arc::get_mut(&mut self.metrics).expect("in-flight job metrics are uniquely owned")
    }
}

/// Sentinel in the symbol→slot side table for "no executor with this
/// symbol registered here".
const NO_SLOT: u32 = u32::MAX;

struct Inner {
    cfg: EngineConfig,
    /// Dense executor table; slots are assigned at registration and never
    /// reused (dead executors stay, `alive = false`, exactly like the old
    /// map entries did).
    execs: Vec<ExecMeta>,
    /// Slot indices sorted by executor *name*. The dispatch scan and the
    /// `executors()` snapshot iterate this, preserving the old
    /// `BTreeMap<ExecutorId, _>` lexicographic order — VM executors can
    /// register after lambdas but sort before them, and dispatch order is
    /// output-visible (core speeds differ by kind).
    execs_by_name: Vec<u32>,
    /// Interner-symbol → slot side table (`NO_SLOT` = absent). Symbols
    /// are dense process-wide, so this stays small and O(1) to index.
    exec_slots: Vec<u32>,
    /// Dense job table indexed by `JobId.0` (ids are sequential from 0).
    jobs: Vec<JobState>,
    attempts: FastMap<AttemptId, AttemptInfo>,
    pending: VecDeque<(JobId, StageId, usize)>,
    next_attempt: u64,
    tracker: MapOutputTracker,
    driver_free_at: SimTime,
    /// Live completion-time digests per (job, stage), feeding the
    /// straggler watch. Only populated while observability is enabled;
    /// entries live as long as their `JobState`.
    stage_runtimes: FastMap<(JobId, StageId), splitserve_obs::QuantileDigest>,
}

impl Inner {
    /// Slot of a registered executor, dead or alive.
    #[inline]
    fn exec_slot(&self, id: ExecutorId) -> Option<usize> {
        match self.exec_slots.get(id.sym() as usize) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    #[inline]
    fn exec(&self, id: ExecutorId) -> Option<&ExecMeta> {
        self.exec_slot(id).map(|s| &self.execs[s])
    }

    #[inline]
    fn exec_mut(&mut self, id: ExecutorId) -> Option<&mut ExecMeta> {
        self.exec_slot(id).map(|s| &mut self.execs[s])
    }

    /// Registers a new executor slot, keeping `execs_by_name` sorted.
    /// Returns `false` if the id is already present.
    fn add_exec(&mut self, meta: ExecMeta) -> bool {
        let id = meta.desc.id;
        let sym = id.sym() as usize;
        if sym >= self.exec_slots.len() {
            self.exec_slots.resize(sym + 1, NO_SLOT);
        }
        if self.exec_slots[sym] != NO_SLOT {
            return false;
        }
        let slot = u32::try_from(self.execs.len()).expect("executor slot overflow");
        self.execs.push(meta);
        self.exec_slots[sym] = slot;
        let pos = self
            .execs_by_name
            .partition_point(|&s| self.execs[s as usize].desc.id < id);
        self.execs_by_name.insert(pos, slot);
        true
    }

}

/// A snapshot of one executor's state, for policy layers (SplitServe's
/// launching and segueing facilities live above this API).
#[derive(Debug, Clone)]
pub struct ExecutorInfo {
    /// The executor.
    pub id: ExecutorId,
    /// VM- or Lambda-backed.
    pub kind: ExecutorKind,
    /// When it registered.
    pub registered_at: SimTime,
    /// Still accepting/running work.
    pub alive: bool,
    /// In graceful-drain mode.
    pub draining: bool,
    /// Currently executing a task.
    pub busy: bool,
    /// When the executor last became idle (its registration time if it
    /// has never run a task). Meaningful only when `busy` is false.
    pub idle_since: SimTime,
    /// Tasks completed so far.
    pub tasks_done: u64,
}

/// The Spark-like engine. Cloneable handle; all state is shared.
///
/// # Examples
///
/// ```
/// use splitserve_des::{Fabric, Sim};
/// use splitserve_engine::{collect_partitions, Dataset, Engine, EngineConfig, ExecutorDesc};
/// use splitserve_storage::LocalDiskStore;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new(0);
/// let fabric = Fabric::new();
/// let store = Rc::new(LocalDiskStore::new(fabric.clone()));
/// let engine = Engine::new(EngineConfig::default(), store);
///
/// let nic = fabric.add_link(1e9, "nic");
/// let disk = fabric.add_link(1e9, "disk");
/// engine.register_executor(&mut sim, ExecutorDesc::vm("exec-0", nic, disk, 8192));
///
/// let sums = Dataset::parallelize((0..1000u64).map(|i| (i % 4, i)).collect(), 4)
///     .reduce_by_key(2, |a, b| a + b);
/// let out = std::rc::Rc::new(std::cell::RefCell::new(None));
/// let o = Rc::clone(&out);
/// engine.submit_job(&mut sim, sums.node(), move |_sim, output| {
///     *o.borrow_mut() = Some(collect_partitions::<(u64, u64)>(output.partitions));
/// });
/// sim.run();
/// let mut rows = out.borrow_mut().take().expect("job finished");
/// rows.sort();
/// assert_eq!(rows.len(), 4);
/// ```
#[derive(Clone)]
pub struct Engine {
    inner: Rc<RefCell<Inner>>,
    store: Rc<dyn BlockStore>,
    /// The only recorder: every state change goes through
    /// [`Telemetry::emit`], which keeps the event log and every view.
    tele: Telemetry,
    /// Worker threads for task bodies; `None` runs bodies inline on the
    /// simulation thread (`workers <= 1`). Shared `Rc`: the pool joins
    /// its threads when the last engine handle drops.
    pool: Option<Rc<WorkerPool>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Engine")
            .field("executors", &inner.execs.len())
            .field("jobs", &inner.jobs.len())
            .field("pending_tasks", &inner.pending.len())
            .field("store", &self.store.kind())
            .finish()
    }
}

enum ComputePayload {
    MapOut(Vec<ShuffleBucket>),
    ResultOut(PartitionData),
}

/// What a task body hands back to the simulation: its output, total CPU
/// charge and working-set size (the inputs of the duration model).
type BodyResult = (ComputePayload, f64, u64);

/// A task body between launch and its join event. Pooled bodies are
/// already running on a worker thread; inline bodies (workers <= 1) run
/// on the simulation thread when the join event fires. Both variants
/// resolve at the same virtual instant, so event order is identical at
/// any worker count.
enum PendingBody {
    Inline(Box<dyn FnOnce() -> BodyResult>),
    Pooled(TaskHandle<BodyResult>),
}

impl PendingBody {
    fn resolve(self) -> BodyResult {
        match self {
            PendingBody::Inline(f) => f(),
            PendingBody::Pooled(h) => h.join(),
        }
    }
}

impl Engine {
    /// Creates an engine over the given shuffle store.
    pub fn new(cfg: EngineConfig, store: Rc<dyn BlockStore>) -> Self {
        let tele = Telemetry::new(cfg.obs.clone());
        let pool = (cfg.workers >= 2).then(|| Rc::new(WorkerPool::new(cfg.workers)));
        Engine {
            pool,
            inner: Rc::new(RefCell::new(Inner {
                cfg,
                execs: Vec::new(),
                execs_by_name: Vec::new(),
                exec_slots: Vec::new(),
                jobs: Vec::new(),
                attempts: FastMap::default(),
                pending: VecDeque::new(),
                next_attempt: 0,
                tracker: MapOutputTracker::new(),
                driver_free_at: SimTime::ZERO,
                stage_runtimes: FastMap::default(),
            })),
            store,
            tele,
        }
    }

    /// The engine's event log.
    pub fn event_log(&self) -> &EventLog {
        self.tele.log()
    }

    /// Records a higher layer's marker (e.g. the segue facility's
    /// "segue commences") in the event log and every telemetry view. The
    /// text reads `"<track> <what>"`; see [`EngineEventKind::Marker`].
    pub fn mark(&self, at: SimTime, text: &str) {
        self.tele.emit(
            at,
            EngineEventKind::Marker(text.to_string()),
            Ctx::default(),
        );
    }

    /// The observability handle the engine records into (the one passed
    /// via [`EngineConfig::obs`]; disabled by default).
    pub fn obs(&self) -> &splitserve_obs::Obs {
        self.tele.obs()
    }

    /// The shuffle store in use.
    pub fn store(&self) -> &Rc<dyn BlockStore> {
        &self.store
    }

    // ----- executors ---------------------------------------------------

    /// Registers an executor and immediately offers it pending work.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered.
    pub fn register_executor(&self, sim: &mut Sim, desc: ExecutorDesc) {
        self.store.register_executor(desc.id.as_str(), desc.client_loc());
        {
            let mut inner = self.inner.borrow_mut();
            let id = desc.id;
            let kind = desc.kind;
            let fresh = inner.add_exec(ExecMeta {
                desc,
                alive: true,
                draining: false,
                running: None,
                registered_at: sim.now(),
                idle_since: sim.now(),
                tasks_done: 0,
                on_drained: None,
                speed_factor: 1.0,
            });
            assert!(fresh, "duplicate executor {id}");
            self.tele.emit(
                sim.now(),
                EngineEventKind::ExecutorRegistered { exec: id, kind },
                Ctx::default(),
            );
        }
        self.dispatch(sim);
    }

    /// Snapshot of all executors (in id order).
    pub fn executors(&self) -> Vec<ExecutorInfo> {
        let inner = self.inner.borrow();
        inner
            .execs_by_name
            .iter()
            .map(|&slot| {
                let m = &inner.execs[slot as usize];
                ExecutorInfo {
                    id: m.desc.id,
                    kind: m.desc.kind,
                    registered_at: m.registered_at,
                    alive: m.alive,
                    draining: m.draining,
                    busy: m.running.is_some(),
                    idle_since: m.idle_since,
                    tasks_done: m.tasks_done,
                }
            })
            .collect()
    }

    /// Snapshot of one executor.
    pub fn executor_info(&self, id: &ExecutorId) -> Option<ExecutorInfo> {
        self.executors().into_iter().find(|e| &e.id == id)
    }

    /// Number of tasks waiting in the dispatch queue (the backlog a
    /// dynamic-allocation controller reacts to).
    pub fn pending_tasks(&self) -> usize {
        self.inner.borrow().pending.len()
    }

    /// Number of live, non-draining executors.
    pub fn active_executors(&self) -> usize {
        let inner = self.inner.borrow();
        inner
            .execs
            .iter()
            .filter(|m| m.alive && !m.draining)
            .count()
    }

    /// Puts an executor into graceful-drain mode: it takes no new tasks,
    /// finishes any current one, and `on_drained` fires when it leaves the
    /// cluster. This is the decommission path that does **not** roll back
    /// execution — provided the shuffle store survives executor loss.
    pub fn drain_executor(
        &self,
        sim: &mut Sim,
        id: &ExecutorId,
        on_drained: impl FnOnce(&mut Sim, ExecutorId) + 'static,
    ) {
        let finish_now = {
            let mut inner = self.inner.borrow_mut();
            let Some(meta) = inner.exec_mut(*id) else {
                return;
            };
            if !meta.alive || meta.draining {
                return;
            }
            meta.draining = true;
            meta.on_drained = Some(Box::new(on_drained));
            let idle = meta.running.is_none();
            self.tele.emit(
                sim.now(),
                EngineEventKind::ExecutorDraining { exec: *id },
                Ctx::default(),
            );
            idle
        };
        if finish_now {
            self.decommission(sim, *id);
        }
    }

    /// Abruptly kills an executor (Lambda lifetime expiry, VM crash). Its
    /// running task fails and is re-queued; if the shuffle store is
    /// executor-local, its map outputs are invalidated and the affected
    /// stages roll back.
    ///
    /// Killing a draining executor drops its `on_drained` hook unfired: a
    /// dead executor is never decommissioned, so the hook is unreachable.
    pub fn kill_executor(&self, sim: &mut Sim, id: &ExecutorId) {
        {
            let mut inner = self.inner.borrow_mut();
            let Some(meta) = inner.exec_mut(*id) else {
                return;
            };
            if !meta.alive {
                return;
            }
            meta.alive = false;
            meta.on_drained = None;
            let running = meta.running.take();
            self.tele.emit(
                sim.now(),
                EngineEventKind::ExecutorLost { exec: *id },
                Ctx::default(),
            );
            if let Some(attempt) = running {
                if let Some(info) = inner.attempts.remove(&attempt) {
                    if let Some(job) = inner.jobs.get_mut(info.job.0 as usize) {
                        self.task_failed(sim.now(), job, &info, FailureKind::ExecutorLost);
                        let st = &mut job.status[info.stage.0 as usize];
                        st.running.remove(&info.part);
                        st.queued.insert(info.part);
                        inner.pending.push_front((info.job, info.stage, info.part));
                    }
                }
            }
        }
        self.store.on_executor_lost(sim, id.as_str());
        if !self.store.survives_executor_loss() {
            let affected = self.inner.borrow_mut().tracker.unregister_executor(id);
            if !affected.is_empty() {
                self.rollback_incomplete_stages(sim);
            }
        }
        self.progress_all_jobs(sim);
    }

    /// Whether killing `id` *right now* would roll a stage back: true iff
    /// the shuffle store dies with its executors and `id` holds registered
    /// map outputs of a `Done` shuffle-map stage in a live job. This is
    /// the query the chaos plane's differential oracle uses to predict
    /// `StageRolledBack` events before performing a kill.
    pub fn would_rollback_on_loss(&self, id: &ExecutorId) -> bool {
        if self.store.survives_executor_loss() {
            return false;
        }
        let inner = self.inner.borrow();
        inner.jobs.iter().filter(|j| !j.done).any(|job| {
            job.graph.stages.iter().any(|stage| {
                let StageKind::ShuffleMap(dep) = &stage.kind else {
                    return false;
                };
                job.status[stage.id.0 as usize].state == Some(StageState::Done)
                    && inner.tracker.has_outputs_from(dep.id, id)
            })
        })
    }

    /// Scales an executor's effective core speed by `factor` (1.0 =
    /// nominal; 0.25 runs tasks four times slower). The chaos plane uses
    /// this to inject stragglers; the change applies to computations
    /// started after the call.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive.
    pub fn set_executor_speed_factor(&self, id: &ExecutorId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "invalid speed factor {factor}"
        );
        if let Some(meta) = self.inner.borrow_mut().exec_mut(*id) {
            meta.speed_factor = factor;
        }
    }

    fn decommission(&self, sim: &mut Sim, id: ExecutorId) {
        let cb = {
            let mut inner = self.inner.borrow_mut();
            let Some(meta) = inner.exec_mut(id) else {
                return;
            };
            if !meta.alive {
                return;
            }
            meta.alive = false;
            let cb = meta.on_drained.take();
            self.tele.emit(
                sim.now(),
                EngineEventKind::ExecutorDecommissioned { exec: id },
                Ctx::default(),
            );
            cb
        };
        // A decommissioned executor's node is gone; local blocks with it.
        self.store.on_executor_lost(sim, id.as_str());
        if !self.store.survives_executor_loss() {
            let affected = self.inner.borrow_mut().tracker.unregister_executor(&id);
            if !affected.is_empty() {
                self.rollback_incomplete_stages(sim);
            }
        }
        if let Some(cb) = cb {
            cb(sim, id);
        }
        self.progress_all_jobs(sim);
    }

    /// Marks stages whose map outputs vanished as needing resubmission and
    /// pulls now-unrunnable queued tasks back out of the dispatch queue.
    fn rollback_incomplete_stages(&self, sim: &mut Sim) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let mut dequeue: FastSet<(JobId, StageId)> = FastSet::default();
        for (job_idx, job) in inner.jobs.iter_mut().enumerate() {
            if job.done {
                continue;
            }
            let job_id = JobId(job_idx as u64);
            for stage in &job.graph.stages {
                let st = &mut job.status[stage.id.0 as usize];
                if let StageKind::ShuffleMap(dep) = &stage.kind {
                    if st.state == Some(StageState::Done) && !inner.tracker.is_complete(dep.id) {
                        let missing = inner.tracker.missing(dep.id).len();
                        st.state = Some(StageState::Waiting);
                        self.tele.emit(
                            sim.now(),
                            EngineEventKind::StageRolledBack {
                                stage: stage.id,
                                missing,
                            },
                            Ctx::default(),
                        );
                    }
                }
                // Any stage whose inputs are no longer complete must not
                // keep tasks in the dispatch queue.
                let inputs_ok = stage
                    .input_shuffles
                    .iter()
                    .all(|d| inner.tracker.is_complete(d.id));
                if !inputs_ok && !st.queued.is_empty() {
                    st.queued.clear();
                    if st.running.is_empty() {
                        st.state = Some(StageState::Waiting);
                    }
                    dequeue.insert((job_id, stage.id));
                }
            }
        }
        if !dequeue.is_empty() {
            // Set lookup per entry: the old `Vec::contains` scan was
            // O(pending × rolled-back stages).
            inner
                .pending
                .retain(|(j, s, _)| !dequeue.contains(&(*j, *s)));
        }
    }

    // ----- jobs ---------------------------------------------------------

    /// Submits a job computing `final_node`'s partitions; `on_done` fires
    /// with the results and metrics when the result stage completes.
    pub fn submit_job(
        &self,
        sim: &mut Sim,
        final_node: Arc<dyn PlanNode>,
        on_done: impl FnOnce(&mut Sim, JobOutput) + 'static,
    ) -> JobId {
        let job_id = {
            let mut inner = self.inner.borrow_mut();
            let id = JobId(inner.jobs.len() as u64);
            let graph = build_stages(final_node);
            // Register every shuffle in the tracker.
            for stage in &graph.stages {
                if let StageKind::ShuffleMap(dep) = &stage.kind {
                    inner
                        .tracker
                        .register_shuffle(dep.id, dep.parent.num_partitions());
                }
            }
            self.tele.emit(
                sim.now(),
                EngineEventKind::JobSubmitted {
                    job: id,
                    stages: graph.len(),
                },
                Ctx::default(),
            );
            let n_stages = graph.len();
            let result_width = graph.stage(graph.result).num_tasks;
            inner.jobs.push(JobState {
                graph,
                status: (0..n_stages).map(|_| StageStatus::default()).collect(),
                result_parts: vec![None; result_width],
                on_done: Some(Box::new(on_done)),
                metrics: Arc::new(JobMetrics::start(id, sim.now())),
                done: false,
            });
            id
        };
        self.progress_job(sim, job_id);
        job_id
    }

    /// Advances stage states for one job: marks completed stages, queues
    /// newly-runnable tasks, finishes the job when the result stage is
    /// done. Then dispatches.
    fn progress_job(&self, sim: &mut Sim, job_id: JobId) {
        let mut finished: Option<(JobDoneCallback, JobOutput)> = None;
        {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(job) = inner.jobs.get_mut(job_id.0 as usize) else {
                return;
            };
            if job.done {
                return;
            }
            // Split the metrics borrow off up front: the stage walk holds
            // `job.graph` borrowed, and field-disjoint access is the only
            // way to mutate metrics inside it.
            let metrics =
                Arc::get_mut(&mut job.metrics).expect("in-flight job metrics are uniquely owned");
            // Iterate stages in topological (id) order.
            for stage in &job.graph.stages {
                let sidx = stage.id.0 as usize;
                let parents_done = stage
                    .input_shuffles
                    .iter()
                    .all(|d| inner.tracker.is_complete(d.id));

                // Completion checks.
                let complete = match &stage.kind {
                    StageKind::ShuffleMap(dep) => inner.tracker.is_complete(dep.id),
                    StageKind::Result => job.result_parts.iter().all(Option::is_some),
                };
                let st = &mut job.status[sidx];
                if complete {
                    if st.state != Some(StageState::Done) {
                        st.state = Some(StageState::Done);
                        self.tele.emit(
                            sim.now(),
                            EngineEventKind::StageCompleted { stage: stage.id },
                            Ctx::job(metrics),
                        );
                    }
                    continue;
                }
                if !parents_done {
                    continue;
                }
                // Runnable: queue whatever is missing and not in flight.
                let missing: Vec<usize> = match &stage.kind {
                    StageKind::ShuffleMap(dep) => inner.tracker.missing(dep.id),
                    StageKind::Result => job
                        .result_parts
                        .iter()
                        .enumerate()
                        .filter(|(_, p)| p.is_none())
                        .map(|(i, _)| i)
                        .collect(),
                };
                let mut queued_now = 0;
                for part in missing {
                    if !st.queued.contains(&part) && !st.running.contains(&part) {
                        st.queued.insert(part);
                        inner.pending.push_back((job_id, stage.id, part));
                        queued_now += 1;
                    }
                }
                if queued_now > 0 {
                    self.tele.emit(
                        sim.now(),
                        EngineEventKind::StageSubmitted {
                            stage: stage.id,
                            tasks: queued_now,
                        },
                        Ctx::default(),
                    );
                }
                st.state = Some(StageState::Running);
            }

            // Job completion.
            if job.result_parts.iter().all(Option::is_some) && !job.done {
                job.done = true;
                metrics.completed_at = sim.now();
                self.tele.emit(
                    sim.now(),
                    EngineEventKind::JobCompleted { job: job_id },
                    Ctx::job(metrics),
                );
                // Hand the job's only references over: `collect_partitions`
                // can then move the rows out instead of cloning them (the
                // done flag above keeps this arm from running twice).
                let partitions: Vec<PartitionData> = job
                    .result_parts
                    .iter_mut()
                    .map(|p| p.take().expect("checked above"))
                    .collect();
                let output = JobOutput {
                    partitions,
                    // From here on the metrics block is frozen; share it.
                    metrics: Arc::clone(&job.metrics),
                };
                if let Some(cb) = job.on_done.take() {
                    finished = Some((cb, output));
                }
            }
        }
        if let Some((cb, output)) = finished {
            cb(sim, output);
        }
        self.dispatch(sim);
    }

    fn progress_all_jobs(&self, sim: &mut Sim) {
        let ids: Vec<JobId> = self
            .inner
            .borrow()
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| !j.done)
            .map(|(id, _)| JobId(id as u64))
            .collect();
        for id in ids {
            self.progress_job(sim, id);
        }
    }

    /// Metrics of every job that has completed so far, in submission
    /// order. The returned `Arc`s share the scheduler's own metrics
    /// blocks — no per-job deep copy.
    pub fn completed_job_metrics(&self) -> Vec<Arc<JobMetrics>> {
        self.inner
            .borrow()
            .jobs
            .iter()
            .filter(|j| j.done)
            .map(|j| Arc::clone(&j.metrics))
            .collect()
    }

    /// A completed job's metrics (available after `on_done` fired),
    /// shared rather than cloned.
    pub fn job_metrics(&self, job: JobId) -> Option<Arc<JobMetrics>> {
        self.inner
            .borrow()
            .jobs
            .get(job.0 as usize)
            .map(|j| Arc::clone(&j.metrics))
    }

    // ----- dispatch and the task state machine ---------------------------

    /// Pairs pending tasks with idle executors.
    fn dispatch(&self, sim: &mut Sim) {
        loop {
            let launch = {
                let mut inner = self.inner.borrow_mut();
                let inner = &mut *inner;
                // Find an idle, live, non-draining executor (name order —
                // see `execs_by_name`).
                let slot = inner
                    .execs_by_name
                    .iter()
                    .map(|&s| s as usize)
                    .find(|&s| {
                        let m = &inner.execs[s];
                        m.alive && !m.draining && m.running.is_none()
                    });
                let Some(slot) = slot else { break };
                let exec_id = inner.execs[slot].desc.id;
                // Pop the next dispatchable task.
                let Some((job_id, stage_id, part)) = inner.pending.pop_front() else {
                    break;
                };
                let Some(job) = inner.jobs.get_mut(job_id.0 as usize) else {
                    continue;
                };
                let st = &mut job.status[stage_id.0 as usize];
                if !st.queued.remove(&part) {
                    continue; // stale entry (rolled back or duplicate)
                }
                let stage = job.graph.stage(stage_id);
                // Inputs must still be complete (rollback may have struck
                // between queueing and dispatch).
                if !stage
                    .input_shuffles
                    .iter()
                    .all(|d| inner.tracker.is_complete(d.id))
                {
                    continue;
                }
                // Re-validate the executor chosen at the top of this
                // iteration before binding the task to it. Nothing can
                // intervene today (selection and binding share one borrow
                // of the scheduler state), but a kill arriving in between
                // must requeue the task, not panic the driver — this was
                // an `.expect("dispatch picked a live executor")`.
                let meta = match &mut inner.execs[slot] {
                    m if m.alive && !m.draining && m.running.is_none() => m,
                    _ => {
                        st.queued.insert(part);
                        inner.pending.push_front((job_id, stage_id, part));
                        continue;
                    }
                };
                st.running.insert(part);
                let attempt = AttemptId(inner.next_attempt);
                inner.next_attempt += 1;
                meta.running = Some(attempt);
                let span = self.tele.emit(
                    sim.now(),
                    EngineEventKind::TaskStarted {
                        stage: stage_id,
                        part,
                        exec: exec_id,
                    },
                    Ctx {
                        kind: Some(meta.desc.kind),
                        ..Ctx::default()
                    },
                );
                inner.attempts.insert(
                    attempt,
                    AttemptInfo {
                        job: job_id,
                        stage: stage_id,
                        part,
                        exec: exec_id,
                        span,
                        started_at: sim.now(),
                        straggler_flagged: false,
                    },
                );
                // Build the fetch plan: (shuffle, map index, writer, size).
                // Blocks are identified lazily at fetch time — the plan
                // carries only `Copy` handles, no per-block strings.
                let shuffle_ids: Vec<ShuffleId> =
                    stage.input_shuffles.iter().map(|d| d.id).collect();
                let mut plan: Vec<(ShuffleId, usize, ExecutorId, u64)> = Vec::new();
                for dep in &stage.input_shuffles {
                    inner
                        .tracker
                        .inputs_for_reduce_into(dep.id, part, &mut plan);
                }
                // The driver is a single-threaded dispatcher: task
                // launches serialize through it.
                let start_at = {
                    let t = inner.driver_free_at.max(sim.now()) + inner.cfg.driver_dispatch;
                    inner.driver_free_at = t;
                    t
                };
                Some((attempt, shuffle_ids, plan, start_at))
            };
            match launch {
                Some((attempt, shuffle_ids, plan, start_at)) => {
                    let engine = self.clone();
                    sim.schedule_at(start_at, move |sim| {
                        engine.begin_fetch(sim, attempt, shuffle_ids, plan);
                    });
                }
                None => continue,
            }
        }
    }

    fn attempt_live(&self, attempt: AttemptId) -> bool {
        self.inner.borrow().attempts.contains_key(&attempt)
    }

    /// Starts the (window-bounded) shuffle fetch for a task, then runs its
    /// computation.
    fn begin_fetch(
        &self,
        sim: &mut Sim,
        attempt: AttemptId,
        shuffle_ids: Vec<ShuffleId>,
        plan: Vec<(ShuffleId, usize, ExecutorId, u64)>,
    ) {
        // Every input shuffle gets an entry even when this reduce partition
        // receives no bytes from it (all buckets empty).
        let mut base: FastMap<ShuffleId, Vec<(usize, Bytes)>> = FastMap::default();
        for id in &shuffle_ids {
            base.insert(*id, Vec::new());
        }
        // Sorting by map index gives every reduce task a canonical input
        // order regardless of fetch-completion timing.
        fn in_map_order(
            results: FastMap<ShuffleId, Vec<(usize, Bytes)>>,
        ) -> FastMap<ShuffleId, Vec<Bytes>> {
            results
                .into_iter()
                .map(|(id, mut blocks)| {
                    blocks.sort_by_key(|(m, _)| *m);
                    (id, blocks.into_iter().map(|(_, b)| b).collect())
                })
                .collect()
        }
        if plan.is_empty() {
            self.run_compute(sim, attempt, in_map_order(base), 0);
            return;
        }
        let (client, fetch_span, part) = {
            let inner = self.inner.borrow();
            let Some(info) = inner.attempts.get(&attempt) else {
                return;
            };
            let meta = inner.exec(info.exec).expect("executor of live attempt");
            let span = self.tele.shuffle_phase_started(
                sim.now(),
                info.exec,
                meta.desc.kind,
                ShufflePhase::Fetch,
            );
            (meta.desc.client_loc(), span, info.part)
        };
        let fetched_bytes: u64 = plan.iter().map(|(_, _, _, s)| s).sum();
        struct FetchState {
            queue: VecDeque<(ShuffleId, usize, ExecutorId)>,
            /// Fetched blocks with their map index: completions arrive in
            /// whatever order the store finishes them (fault injection and
            /// latency windows reshuffle that order), so blocks are sorted
            /// by map index before compute — task inputs, and therefore
            /// outputs, stay bit-identical across fault schedules.
            results: FastMap<ShuffleId, Vec<(usize, Bytes)>>,
            outstanding: usize,
            aborted: bool,
            span: SpanId,
            started: SimTime,
        }
        let state = Rc::new(RefCell::new(FetchState {
            queue: plan.iter().map(|&(s, m, w, _)| (s, m, w)).collect(),
            results: base,
            outstanding: 0,
            aborted: false,
            span: fetch_span,
            started: sim.now(),
        }));
        let window = self.inner.borrow().cfg.max_fetch_concurrency.max(1);

        fn spawn_next(
            engine: &Engine,
            sim: &mut Sim,
            attempt: AttemptId,
            part: usize,
            state: &Rc<RefCell<FetchState>>,
            client: splitserve_storage::ClientLoc,
            fetched_bytes: u64,
        ) {
            let next = {
                let mut st = state.borrow_mut();
                if st.aborted {
                    return;
                }
                match st.queue.pop_front() {
                    Some(item) => {
                        st.outstanding += 1;
                        Some(item)
                    }
                    None => None,
                }
            };
            let Some((shuffle, map, writer)) = next else {
                return;
            };
            let engine2 = engine.clone();
            let state2 = Rc::clone(state);
            engine.store.get(
                sim,
                client,
                BlockId::shuffle(writer, shuffle.0, map as u64, part as u64),
                Box::new(move |sim, result| {
                    if !engine2.attempt_live(attempt) {
                        let span = {
                            let mut st = state2.borrow_mut();
                            st.aborted = true;
                            st.span
                        };
                        engine2.tele.shuffle_phase_aborted(sim.now(), span);
                        return;
                    }
                    match result {
                        Ok(bytes) => {
                            let done = {
                                let mut st = state2.borrow_mut();
                                st.outstanding -= 1;
                                st.results.entry(shuffle).or_default().push((map, bytes));
                                st.queue.is_empty() && st.outstanding == 0
                            };
                            if done {
                                let (results, span, started) = {
                                    let mut st = state2.borrow_mut();
                                    (std::mem::take(&mut st.results), st.span, st.started)
                                };
                                engine2.tele.shuffle_phase_finished(
                                    sim.now(),
                                    span,
                                    ShufflePhase::Fetch,
                                    started,
                                );
                                engine2.run_compute(sim, attempt, in_map_order(results), fetched_bytes);
                            } else {
                                spawn_next(
                                    &engine2,
                                    sim,
                                    attempt,
                                    part,
                                    &state2,
                                    client,
                                    fetched_bytes,
                                );
                            }
                        }
                        Err(err) => {
                            let span = {
                                let mut st = state2.borrow_mut();
                                st.aborted = true;
                                st.span
                            };
                            engine2.tele.shuffle_phase_aborted(sim.now(), span);
                            engine2.fetch_failed(sim, attempt, shuffle, map, err);
                        }
                    }
                }),
            );
        }

        for _ in 0..window.min(plan.len()) {
            spawn_next(self, sim, attempt, part, &state, client, fetched_bytes);
        }
    }

    /// Launches the task's real computation and schedules the *join*
    /// event where the simulation picks the result back up.
    ///
    /// With `workers >= 2` the body (map compute, shuffle combine+encode,
    /// reduce decode+merge) is submitted to the worker pool here and the
    /// join blocks (wall-clock only) until it finishes; with `workers <= 1`
    /// the body runs inline on the simulation thread when the join event
    /// fires. Both modes schedule the join at the same virtual instant —
    /// `now + task_overhead + deser_bound/speed` — so the simulation
    /// allocates identical event sequence numbers, and therefore an
    /// identical event order, at every worker count.
    ///
    /// `deser_bound` is the deserialization charge [`TaskContext::new`]
    /// levies for the fetched blocks: a lower bound on the body's total
    /// CPU charge, which guarantees the completion instant derived at the
    /// join (`launch + task_overhead + cpu/speed*gc`) never precedes the
    /// join itself.
    fn run_compute(
        &self,
        sim: &mut Sim,
        attempt: AttemptId,
        inputs: FastMap<ShuffleId, Vec<Bytes>>,
        fetched_bytes: u64,
    ) {
        let (terminal, kind, part, work, speed, mem_bytes) = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(&info) = inner.attempts.get(&attempt) else {
                return;
            };
            let (speed, mem_bytes) = {
                let meta = inner.exec(info.exec).expect("executor of live attempt");
                (
                    meta.desc.core_speed * meta.speed_factor,
                    meta.desc.memory_bytes(),
                )
            };
            let job = inner
                .jobs
                .get_mut(info.job.0 as usize)
                .expect("job of live attempt");
            self.tele.shuffle_read(job.metrics_mut(), fetched_bytes);
            let stage = job.graph.stage(info.stage);
            (
                Arc::clone(&stage.terminal),
                stage.kind.clone(),
                info.part,
                inner.cfg.work.clone(),
                speed,
                mem_bytes,
            )
        };
        let deser_secs = inputs
            .values()
            .flat_map(|v| v.iter())
            .map(|b| b.len() as u64)
            .sum::<u64>() as f64
            * work.deser_secs_per_byte;
        let obs = self.tele.obs().clone();
        let body_work = work.clone();
        let body = move || {
            let mut ctx = TaskContext::new(body_work, inputs).with_obs(obs);
            let data = terminal.compute(&mut ctx, part);
            let payload = match &kind {
                StageKind::ShuffleMap(dep) => {
                    ComputePayload::MapOut((dep.partitioner)(&mut ctx, data))
                }
                StageKind::Result => ComputePayload::ResultOut(data),
            };
            (payload, ctx.cpu_secs(), ctx.working_set_bytes())
        };
        let pending = match &self.pool {
            Some(pool) => PendingBody::Pooled(pool.submit(body)),
            None => PendingBody::Inline(Box::new(body)),
        };
        let launched_at = sim.now();
        let join_at = launched_at
            + work.task_overhead
            + SimDuration::from_secs_f64(deser_secs / speed);
        let engine = self.clone();
        sim.schedule_at(join_at, move |sim| {
            engine.join_compute(sim, attempt, pending, launched_at, work, speed, mem_bytes);
        });
    }

    /// The join event: collects the task body's result and schedules the
    /// completion at the instant the duration model dictates. Runs even
    /// when the attempt died mid-flight (`after_compute` discards dead
    /// attempts) so the event structure never depends on fault timing.
    #[allow(clippy::too_many_arguments)]
    fn join_compute(
        &self,
        sim: &mut Sim,
        attempt: AttemptId,
        pending: PendingBody,
        launched_at: SimTime,
        work: crate::config::WorkModel,
        speed: f64,
        mem_bytes: u64,
    ) {
        let (payload, cpu, working_set) = pending.resolve();
        let pressure = working_set as f64 / mem_bytes as f64;
        let gc = work.gc_factor(pressure);
        let dur = work.task_overhead + SimDuration::from_secs_f64(cpu / speed * gc);
        let engine = self.clone();
        // `cpu >= deser_bound` (charged at context construction) and
        // `gc >= 1`, so `launched_at + dur >= now`: never in the past.
        sim.schedule_at(launched_at + dur, move |sim| {
            engine.after_compute(sim, attempt, payload, cpu);
        });
    }

    /// The task's modeled CPU time has elapsed; persist outputs.
    fn after_compute(&self, sim: &mut Sim, attempt: AttemptId, payload: ComputePayload, cpu: f64) {
        let (info, shuffle_id, client) = {
            let inner = self.inner.borrow();
            let Some(&info) = inner.attempts.get(&attempt) else {
                return; // executor died while "computing"
            };
            let job = &inner.jobs[info.job.0 as usize];
            let sid = match &job.graph.stage(info.stage).kind {
                StageKind::ShuffleMap(dep) => Some(dep.id),
                StageKind::Result => None,
            };
            let client = inner
                .exec(info.exec)
                .expect("executor of live attempt")
                .desc
                .client_loc();
            (info, sid, client)
        };
        match payload {
            ComputePayload::ResultOut(data) => {
                {
                    let mut inner = self.inner.borrow_mut();
                    if let Some(job) = inner.jobs.get_mut(info.job.0 as usize) {
                        job.result_parts[info.part] = Some(data);
                        self.tele.task_cpu(job.metrics_mut(), cpu);
                    }
                }
                self.task_done(sim, attempt, cpu);
            }
            ComputePayload::MapOut(buckets) => {
                let sid = shuffle_id.expect("map payload implies map stage");
                let sizes: Vec<u64> = buckets.iter().map(|b| b.bytes.len() as u64).collect();
                let writes: Vec<(BlockId, Bytes)> = buckets
                    .into_iter()
                    .enumerate()
                    .filter(|(_, b)| !b.bytes.is_empty())
                    .map(|(r, b)| {
                        (
                            BlockId::shuffle(info.exec, sid.0, info.part as u64, r as u64),
                            b.bytes,
                        )
                    })
                    .collect();
                {
                    let mut inner = self.inner.borrow_mut();
                    if let Some(job) = inner.jobs.get_mut(info.job.0 as usize) {
                        self.tele.task_cpu(job.metrics_mut(), cpu);
                        self.tele
                            .shuffle_written(job.metrics_mut(), sizes.iter().sum::<u64>());
                    }
                }
                self.write_map_outputs(sim, attempt, sid, sizes, writes, client, cpu);
            }
        }
    }

    /// Window-bounded writes of map-output buckets, then registration.
    #[allow(clippy::too_many_arguments)]
    fn write_map_outputs(
        &self,
        sim: &mut Sim,
        attempt: AttemptId,
        sid: ShuffleId,
        sizes: Vec<u64>,
        writes: Vec<(BlockId, Bytes)>,
        client: splitserve_storage::ClientLoc,
        cpu: f64,
    ) {
        if writes.is_empty() {
            self.map_outputs_done(sim, attempt, sid, sizes, cpu);
            return;
        }
        let write_span = {
            let inner = self.inner.borrow();
            let Some(info) = inner.attempts.get(&attempt) else {
                return;
            };
            let kind = inner
                .exec(info.exec)
                .expect("executor of live attempt")
                .desc
                .kind;
            self.tele
                .shuffle_phase_started(sim.now(), info.exec, kind, ShufflePhase::Write)
        };
        struct WriteState {
            queue: VecDeque<(BlockId, Bytes)>,
            outstanding: usize,
            aborted: bool,
            span: SpanId,
            started: SimTime,
        }
        let state = Rc::new(RefCell::new(WriteState {
            queue: writes.into_iter().collect(),
            outstanding: 0,
            aborted: false,
            span: write_span,
            started: sim.now(),
        }));
        let window = self.inner.borrow().cfg.max_fetch_concurrency.max(1);
        let total = state.borrow().queue.len();

        #[allow(clippy::too_many_arguments)]
        fn spawn_next(
            engine: &Engine,
            sim: &mut Sim,
            attempt: AttemptId,
            sid: ShuffleId,
            sizes: &Rc<Vec<u64>>,
            state: &Rc<RefCell<WriteState>>,
            client: splitserve_storage::ClientLoc,
            cpu: f64,
        ) {
            let next = {
                let mut st = state.borrow_mut();
                if st.aborted {
                    return;
                }
                match st.queue.pop_front() {
                    Some(item) => {
                        st.outstanding += 1;
                        Some(item)
                    }
                    None => None,
                }
            };
            let Some((block, bytes)) = next else { return };
            let engine2 = engine.clone();
            let state2 = Rc::clone(state);
            let sizes2 = Rc::clone(sizes);
            engine.store.put(
                sim,
                client,
                block,
                bytes,
                Box::new(move |sim, result| {
                    if !engine2.attempt_live(attempt) {
                        let span = {
                            let mut st = state2.borrow_mut();
                            st.aborted = true;
                            st.span
                        };
                        engine2.tele.shuffle_phase_aborted(sim.now(), span);
                        return;
                    }
                    match result {
                        Ok(()) => {
                            let done = {
                                let mut st = state2.borrow_mut();
                                st.outstanding -= 1;
                                st.queue.is_empty() && st.outstanding == 0
                            };
                            if done {
                                let (span, started) = {
                                    let st = state2.borrow();
                                    (st.span, st.started)
                                };
                                engine2.tele.shuffle_phase_finished(
                                    sim.now(),
                                    span,
                                    ShufflePhase::Write,
                                    started,
                                );
                                engine2.map_outputs_done(
                                    sim,
                                    attempt,
                                    sid,
                                    sizes2.as_ref().clone(),
                                    cpu,
                                );
                            } else {
                                spawn_next(
                                    &engine2, sim, attempt, sid, &sizes2, &state2, client, cpu,
                                );
                            }
                        }
                        Err(err) => {
                            let span = {
                                let mut st = state2.borrow_mut();
                                st.aborted = true;
                                st.span
                            };
                            engine2.tele.shuffle_phase_aborted(sim.now(), span);
                            engine2.task_write_failed(sim, attempt, err);
                        }
                    }
                }),
            );
        }

        let sizes = Rc::new(sizes);
        for _ in 0..window.min(total) {
            spawn_next(self, sim, attempt, sid, &sizes, &state, client, cpu);
        }
    }

    fn map_outputs_done(
        &self,
        sim: &mut Sim,
        attempt: AttemptId,
        sid: ShuffleId,
        sizes: Vec<u64>,
        cpu: f64,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            let Some(&info) = inner.attempts.get(&attempt) else {
                return;
            };
            inner.tracker.register_output(
                sid,
                info.part,
                MapStatus {
                    executor: info.exec,
                    sizes,
                },
            );
        }
        self.task_done(sim, attempt, cpu);
    }

    /// Common completion path: free the executor, update metrics, progress.
    fn task_done(&self, sim: &mut Sim, attempt: AttemptId, cpu: f64) {
        let (job_id, decommission_target) = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(info) = inner.attempts.remove(&attempt) else {
                return;
            };
            let meta = inner
                .exec_mut(info.exec)
                .expect("executor of live attempt");
            meta.running = None;
            meta.idle_since = sim.now();
            meta.tasks_done += 1;
            let kind = meta.desc.kind;
            let drain = meta.draining && meta.alive;
            let run_secs = sim.now().saturating_since(info.started_at).as_secs_f64();
            if let Some(job) = inner.jobs.get_mut(info.job.0 as usize) {
                self.tele.emit(
                    sim.now(),
                    EngineEventKind::TaskFinished {
                        stage: info.stage,
                        part: info.part,
                        exec: info.exec,
                        cpu_secs: cpu,
                    },
                    Ctx {
                        metrics: Some(job.metrics_mut()),
                        kind: Some(kind),
                        span: info.span,
                        run_secs,
                    },
                );
                job.status[info.stage.0 as usize].running.remove(&info.part);
            }
            if self.tele.obs().is_enabled() {
                self.straggler_watch(sim.now(), inner, &info, run_secs);
            }
            (info.job, drain.then_some(info.exec))
        };
        if let Some(exec) = decommission_target {
            self.decommission(sim, exec);
        }
        self.progress_job(sim, job_id);
    }

    /// The straggler watch: fold the just-completed attempt's run time
    /// into its stage's live completion digest, then compare every
    /// still-running attempt of the same stage against a configurable
    /// multiple of the digest's quantile. Detection only — suspects get a
    /// counter, a span annotation and a flight-recorder breadcrumb, never
    /// a speculative re-launch. Runs only while observability is enabled,
    /// so the disabled path stays one branch.
    fn straggler_watch(&self, now: SimTime, inner: &mut Inner, done: &AttemptInfo, run_secs: f64) {
        let threshold = {
            let digest = inner
                .stage_runtimes
                .entry((done.job, done.stage))
                .or_default();
            digest.record(run_secs);
            let sc = &inner.cfg.straggler;
            if digest.count() < sc.min_samples {
                return;
            }
            match digest.quantile(sc.quantile) {
                Some(q) if q * sc.multiple > 0.0 => q * sc.multiple,
                _ => return,
            }
        };
        for info in inner.attempts.values_mut() {
            if info.job != done.job || info.stage != done.stage || info.straggler_flagged {
                continue;
            }
            let elapsed = now.saturating_since(info.started_at).as_secs_f64();
            if elapsed > threshold {
                info.straggler_flagged = true;
                self.tele
                    .straggler_suspected(now, info.span, info.stage, info.part, elapsed, threshold);
            }
        }
    }

    /// Records a failed attempt; the caller re-queues the task.
    fn task_failed(
        &self,
        at: SimTime,
        job: &mut JobState,
        info: &AttemptInfo,
        failure: FailureKind,
    ) {
        self.tele.emit(
            at,
            EngineEventKind::TaskFailed {
                stage: info.stage,
                part: info.part,
                exec: info.exec,
                failure,
            },
            Ctx {
                metrics: Some(job.metrics_mut()),
                span: info.span,
                ..Ctx::default()
            },
        );
    }

    /// A shuffle fetch failed: requeue the task, invalidate the lost map
    /// output so its stage is resubmitted.
    fn fetch_failed(
        &self,
        sim: &mut Sim,
        attempt: AttemptId,
        shuffle: ShuffleId,
        map: usize,
        err: StoreError,
    ) {
        {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(info) = inner.attempts.remove(&attempt) else {
                return;
            };
            self.tele.emit(
                sim.now(),
                EngineEventKind::FetchFailed {
                    stage: info.stage,
                    part: info.part,
                    shuffle,
                },
                Ctx::default(),
            );
            inner.tracker.unregister_output(shuffle, map);
            if let Some(meta) = inner.exec_mut(info.exec) {
                meta.running = None;
            }
            if let Some(job) = inner.jobs.get_mut(info.job.0 as usize) {
                let failure = FailureKind::FetchFailed(Box::new(err));
                self.task_failed(sim.now(), job, &info, failure);
                let st = &mut job.status[info.stage.0 as usize];
                st.running.remove(&info.part);
                st.queued.insert(info.part);
                inner.pending.push_front((info.job, info.stage, info.part));
            }
        }
        self.rollback_incomplete_stages(sim);
        self.progress_all_jobs(sim);
    }

    /// A map-output write failed (e.g. store capacity): requeue the task.
    fn task_write_failed(&self, sim: &mut Sim, attempt: AttemptId, err: StoreError) {
        {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(info) = inner.attempts.remove(&attempt) else {
                return;
            };
            if let Some(meta) = inner.exec_mut(info.exec) {
                meta.running = None;
            }
            if let Some(job) = inner.jobs.get_mut(info.job.0 as usize) {
                let failure = FailureKind::WriteFailed(Box::new(err));
                self.task_failed(sim.now(), job, &info, failure);
                let st = &mut job.status[info.stage.0 as usize];
                st.running.remove(&info.part);
                st.queued.insert(info.part);
                inner.pending.push_front((info.job, info.stage, info.part));
            }
        }
        self.dispatch(sim);
    }
}
