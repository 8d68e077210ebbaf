//! The engine event log — the raw material for the paper's execution
//! timelines (Figure 7) and per-executor work-distribution analyses.

use std::cell::RefCell;
use std::rc::Rc;

use splitserve_des::SimTime;
use splitserve_storage::StoreError;

use crate::executor::{ExecutorId, ExecutorKind};
use crate::node::ShuffleId;
use crate::stage::StageId;

/// Identifies a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Why a task attempt ended without producing its output. The
/// `tasks_failed_total{reason}` label and the flight record's `reason`
/// field are its [`FailureKind::label`].
#[derive(Debug, Clone, PartialEq)]
pub enum FailureKind {
    /// The executor died mid-flight.
    ExecutorLost,
    /// A shuffle-input block could not be fetched.
    FetchFailed(Box<StoreError>),
    /// The store rejected a map-output write.
    WriteFailed(Box<StoreError>),
}

impl FailureKind {
    /// Every label, in [`FailureKind::idx`] order.
    pub(crate) const LABELS: [&'static str; 3] = ["executor-lost", "fetch-failed", "write-failed"];

    /// The stable label: `executor-lost`, `fetch-failed` or `write-failed`.
    pub fn label(&self) -> &'static str {
        Self::LABELS[self.idx()]
    }

    pub(crate) fn idx(&self) -> usize {
        match self {
            FailureKind::ExecutorLost => 0,
            FailureKind::FetchFailed(_) => 1,
            FailureKind::WriteFailed(_) => 2,
        }
    }
}

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineEventKind {
    /// An executor joined the cluster.
    ExecutorRegistered {
        /// The executor.
        exec: ExecutorId,
        /// VM- or Lambda-backed.
        kind: ExecutorKind,
    },
    /// An executor was put in draining mode (no new tasks).
    ExecutorDraining {
        /// The executor.
        exec: ExecutorId,
    },
    /// A draining executor went idle and left the cluster gracefully.
    ExecutorDecommissioned {
        /// The executor.
        exec: ExecutorId,
    },
    /// An executor died abruptly (Lambda lifetime kill, VM crash).
    ExecutorLost {
        /// The executor.
        exec: ExecutorId,
    },
    /// A job was submitted.
    JobSubmitted {
        /// The job.
        job: JobId,
        /// Number of stages in its DAG.
        stages: usize,
    },
    /// A job's result stage finished.
    JobCompleted {
        /// The job.
        job: JobId,
    },
    /// A stage's tasks entered the pending queue.
    StageSubmitted {
        /// The stage.
        stage: StageId,
        /// Tasks queued (may be fewer than the stage's width when map
        /// outputs are being recomputed selectively).
        tasks: usize,
    },
    /// All of a stage's outputs are available.
    StageCompleted {
        /// The stage.
        stage: StageId,
    },
    /// A completed stage lost map outputs and was resubmitted — the
    /// "execution rollback" SplitServe's graceful segue avoids.
    StageRolledBack {
        /// The stage.
        stage: StageId,
        /// Map partitions that must be recomputed.
        missing: usize,
    },
    /// A task began on an executor.
    TaskStarted {
        /// Stage the task belongs to.
        stage: StageId,
        /// Partition index.
        part: usize,
        /// Where it runs.
        exec: ExecutorId,
    },
    /// A task finished.
    TaskFinished {
        /// Stage the task belongs to.
        stage: StageId,
        /// Partition index.
        part: usize,
        /// Where it ran.
        exec: ExecutorId,
        /// Reference-core CPU seconds it charged.
        cpu_secs: f64,
    },
    /// A task attempt ended without producing its output; it is
    /// re-queued.
    TaskFailed {
        /// Stage the task belongs to.
        stage: StageId,
        /// Partition index.
        part: usize,
        /// Where it ran.
        exec: ExecutorId,
        /// Why.
        failure: FailureKind,
    },
    /// A reduce task could not fetch a map output block.
    FetchFailed {
        /// The consuming stage.
        stage: StageId,
        /// The consuming partition.
        part: usize,
        /// The shuffle whose block was missing.
        shuffle: ShuffleId,
    },
    /// A marker recorded by a higher layer through
    /// [`Engine::mark`](crate::Engine::mark), reading `"<track> <what>"`
    /// (e.g. "segue commences").
    Marker(String),
}

/// A timestamped engine event.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineEvent {
    /// When it happened.
    pub at: SimTime,
    /// What happened.
    pub kind: EngineEventKind,
}

/// The engine's event log: every state change, in the order the
/// scheduler made it. Always on and unbounded; the engine appends to it
/// as the last step of recording each event.
///
/// Cloneable handle; clones share the log.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Rc<RefCell<Vec<EngineEvent>>>,
}

impl EventLog {
    /// Appends an event.
    pub(crate) fn push(&self, at: SimTime, kind: EngineEventKind) {
        self.events.borrow_mut().push(EngineEvent { at, kind });
    }

    /// Snapshot of all events so far.
    pub fn snapshot(&self) -> Vec<EngineEvent> {
        self.events.borrow().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// `true` when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_snapshot() {
        let log = EventLog::default();
        assert!(log.is_empty());
        log.push(SimTime::ZERO, EngineEventKind::Marker("hi".into()));
        log.push(
            SimTime::from_secs(1),
            EngineEventKind::JobCompleted { job: JobId(0) },
        );
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].kind, EngineEventKind::Marker("hi".into()));
    }
}
