//! Ordering and pairing invariants of the engine's observability output:
//! the event log must tell a time-ordered story, every started task must
//! end exactly once, the span recorder's open/close pairs must nest, and
//! every registry counter the engine keeps must equal the count of its
//! events in the log.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use splitserve::{Deployment, ShuffleStoreKind};
use splitserve_chaos::workloads::{ChaosPageRank, ChaosWorkload};
use splitserve_chaos::{inject, ChaosTopology, FaultPlan};
use splitserve_cloud::{M4_4XLARGE, M4_XLARGE};
use splitserve_des::{Fabric, Sim, SimTime};
use splitserve_engine::{
    collect_partitions, Dataset, Engine, EngineConfig, EngineEvent, EngineEventKind, ExecutorDesc,
    ExecutorKind, JobOutput,
};
use splitserve_obs::{FlightRecorder, Obs};
use splitserve_storage::{FaultStore, LocalDiskStore, StoreFaults};

struct Rig {
    sim: Sim,
    engine: Engine,
}

fn observed_rig(executors: usize) -> Rig {
    let fabric = Fabric::new();
    let store = Rc::new(LocalDiskStore::new(fabric.clone()));
    let cfg = EngineConfig {
        obs: Obs::enabled(),
        ..EngineConfig::default()
    };
    let engine = Engine::new(cfg, store);
    let mut sim = Sim::new(11);
    for i in 0..executors {
        let nic = fabric.add_link(1e9, format!("nic-{i}"));
        let disk = fabric.add_link(1e9, format!("disk-{i}"));
        engine.register_executor(&mut sim, ExecutorDesc::vm(format!("e-vm-{i}"), nic, disk, 8192));
    }
    Rig { sim, engine }
}

fn run_shuffle_job(rig: &mut Rig) -> JobOutput {
    let ds = Dataset::parallelize((0..2_000u64).map(|i| (i % 20, 1u64)).collect(), 6)
        .reduce_by_key(3, |a, b| a + b);
    let slot: Rc<RefCell<Option<JobOutput>>> = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    rig.engine.submit_job(&mut rig.sim, ds.node(), move |_, out| {
        *s.borrow_mut() = Some(out);
    });
    rig.sim.run();
    let out = slot.borrow_mut().take().expect("job completes");
    let rows = collect_partitions::<(u64, u64)>(out.partitions.clone());
    assert_eq!(rows.len(), 20, "invariant tests must still compute truth");
    out
}

/// Timestamps never go backwards in the snapshot (push order).
fn assert_monotone(events: &[EngineEvent]) {
    for w in events.windows(2) {
        assert!(
            w[0].at <= w[1].at,
            "event log went back in time: {:?} then {:?}",
            w[0],
            w[1]
        );
    }
}

/// Every TaskStarted is closed by exactly one TaskFinished or TaskFailed
/// with the same (stage, part, exec).
fn assert_tasks_paired(events: &[EngineEvent]) {
    let mut open: HashMap<(u64, usize, splitserve_engine::ExecutorId), u64> = HashMap::new();
    for e in events {
        match &e.kind {
            EngineEventKind::TaskStarted { stage, part, exec } => {
                let slot = open.entry((stage.0, *part, *exec)).or_insert(0);
                assert_eq!(
                    *slot, 0,
                    "task s{}.{} started twice on {} without ending",
                    stage.0, part, exec
                );
                *slot = 1;
            }
            EngineEventKind::TaskFinished { stage, part, exec, .. }
            | EngineEventKind::TaskFailed { stage, part, exec, .. } => {
                let slot = open.entry((stage.0, *part, *exec)).or_insert(0);
                assert_eq!(
                    *slot, 1,
                    "task s{}.{} ended on {} without a matching start",
                    stage.0, part, exec
                );
                *slot = 0;
            }
            _ => {}
        }
    }
    assert!(
        open.values().all(|v| *v == 0),
        "tasks left open at end of run: {open:?}"
    );
}

#[test]
fn happy_path_run_upholds_all_invariants() {
    let mut rig = observed_rig(3);
    let out = run_shuffle_job(&mut rig);

    let events = rig.engine.event_log().snapshot();
    assert!(!events.is_empty());
    assert_monotone(&events);
    assert_tasks_paired(&events);

    // Span accounting agrees with the event log: one closed task span per
    // TaskFinished, and no span is malformed or badly nested.
    let obs = rig.engine.obs().clone();
    assert_eq!(
        obs.spans.nesting_violation(),
        None,
        "spans on one executor track must be disjoint or contained"
    );
    let finished = obs.spans.finished_spans();
    assert!(finished.iter().all(|s| s.end.unwrap() >= s.start));
    let task_spans = finished.iter().filter(|s| s.name.starts_with("task ")).count();
    let finishes = events
        .iter()
        .filter(|e| matches!(e.kind, EngineEventKind::TaskFinished { .. }))
        .count();
    assert_eq!(task_spans, finishes);
    assert_eq!(task_spans, out.metrics.tasks_total() as usize);
    assert_eq!(
        obs.spans.open_spans(),
        0,
        "a clean run leaves no dangling spans"
    );

    // The registry saw the same completions the per-job metrics did.
    assert_eq!(
        obs.metrics.counter_total("tasks_completed_total"),
        out.metrics.tasks_total()
    );
    assert_eq!(obs.metrics.counter_total("jobs_completed_total"), 1);
}

#[test]
fn invariants_survive_executor_kill_and_rollback() {
    let mut rig = observed_rig(3);
    let ds = Dataset::parallelize((0..3_000u64).map(|i| (i % 30, 1u64)).collect(), 6)
        .reduce_by_key(3, |a, b| a + b);
    let slot: Rc<RefCell<Option<JobOutput>>> = Rc::new(RefCell::new(None));
    let s = Rc::clone(&slot);
    rig.engine.submit_job(&mut rig.sim, ds.node(), move |_, out| {
        *s.borrow_mut() = Some(out);
    });
    let engine = rig.engine.clone();
    rig.sim.schedule_at(SimTime::from_millis(15), move |sim| {
        engine.kill_executor(sim, &"e-vm-1".into());
    });
    rig.sim.run();
    let out = slot.borrow_mut().take().expect("job survives the kill");
    assert!(out.metrics.tasks_recomputed > 0, "the kill must bite");

    let events = rig.engine.event_log().snapshot();
    assert_monotone(&events);
    assert_tasks_paired(&events);

    let obs = rig.engine.obs().clone();
    assert_eq!(obs.spans.nesting_violation(), None);
    // Failed attempts close their spans too: closed task spans = finishes
    // + failures, and the registry's failure counter matches the metrics'
    // recompute count.
    let finished = obs.spans.finished_spans();
    let task_spans = finished.iter().filter(|s| s.name.starts_with("task ")).count();
    let ends = events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EngineEventKind::TaskFinished { .. } | EngineEventKind::TaskFailed { .. }
            )
        })
        .count();
    assert_eq!(task_spans, ends);
    assert_eq!(
        obs.metrics.counter_total("tasks_failed_total"),
        out.metrics.tasks_recomputed
    );
    // Rollbacks may or may not fire depending on where the kill lands in
    // the timeline; whatever happened, registry and event log must agree.
    let rollbacks = events
        .iter()
        .filter(|e| matches!(e.kind, EngineEventKind::StageRolledBack { .. }))
        .count() as u64;
    assert_eq!(obs.metrics.counter_total("stage_rollbacks_total"), rollbacks);
}

#[test]
fn disabled_obs_records_nothing() {
    let mut rig = {
        let fabric = Fabric::new();
        let store = Rc::new(LocalDiskStore::new(fabric.clone()));
        let engine = Engine::new(EngineConfig::default(), store);
        let mut sim = Sim::new(11);
        for i in 0..2 {
            let nic = fabric.add_link(1e9, format!("nic-{i}"));
            let disk = fabric.add_link(1e9, format!("disk-{i}"));
            engine
                .register_executor(&mut sim, ExecutorDesc::vm(format!("e-vm-{i}"), nic, disk, 8192));
        }
        Rig { sim, engine }
    };
    let out = run_shuffle_job(&mut rig);
    assert!(out.metrics.tasks_total() > 0, "JobMetrics still aggregates");
    let obs = rig.engine.obs();
    assert!(!obs.is_enabled());
    assert!(obs.spans.finished_spans().is_empty());
    assert_eq!(obs.metrics.counter_total("tasks_completed_total"), 0);
    assert_eq!(obs.metrics.render_prometheus(), "");
}

/// One chaos case on the default chaos topology, like
/// `splitserve_chaos::run_case`, but keeping the engine's event log and a
/// flight ring large enough never to overwrite.
fn chaos_case(seed: u64, store: ShuffleStoreKind) -> (Vec<EngineEvent>, Obs) {
    let topo = ChaosTopology::default();
    let plan = FaultPlan::generate(seed);
    let mut sim = Sim::new(topo.sim_seed);
    let obs = Obs {
        flight: FlightRecorder::with_capacity(1 << 20),
        ..Obs::enabled()
    };
    let faults = StoreFaults::new();
    plan.arm_store_faults(&faults);
    let cfg = EngineConfig {
        obs: obs.clone(),
        ..EngineConfig::default()
    };
    let d = Deployment::with_wrapped_store(
        &mut sim,
        topo.cloud_spec(),
        store,
        M4_XLARGE,
        cfg,
        move |s| FaultStore::wrap(s, faults),
    );
    d.add_vm_workers(&mut sim, M4_4XLARGE, topo.vm_cores);
    d.add_lambda_executors(&mut sim, topo.initial_lambdas);
    for wave in 1..=u64::from(topo.wave_count) {
        let d2 = d.clone();
        sim.schedule_at(SimTime::from_secs(wave * topo.wave_every_s), move |sim| {
            d2.add_lambda_executors(sim, topo.wave_size);
        });
    }
    let d2 = d.clone();
    sim.schedule_at(SimTime::from_secs(topo.rescue_at_s), move |sim| {
        d2.add_vm_workers(sim, M4_4XLARGE, topo.rescue_cores);
    });
    inject::arm(&mut sim, &d, &plan);
    ChaosPageRank::small().submit(&mut sim, d.engine(), Box::new(|_, _| {}));
    sim.run();
    assert_eq!(
        obs.flight.overwritten(),
        0,
        "the ring must hold the whole run"
    );
    (d.engine().event_log().snapshot(), obs)
}

#[test]
fn registry_counters_are_folds_of_the_event_log() {
    // Seen across every case, so the sweep provably reaches each
    // failure path and the rollback path.
    let mut seen: BTreeMap<&str, u64> = BTreeMap::new();
    for seed in 0..8u64 {
        for store in [ShuffleStoreKind::Hdfs, ShuffleStoreKind::Local] {
            let (events, obs) = chaos_case(seed, store);
            let m = &obs.metrics;
            let mut kinds = HashMap::new();
            let mut counts: BTreeMap<String, u64> = BTreeMap::new();
            let mut bump = |key: String| *counts.entry(key).or_default() += 1;
            for e in &events {
                match &e.kind {
                    EngineEventKind::ExecutorRegistered { exec, kind } => {
                        kinds.insert(*exec, *kind);
                        bump(format!("registered/{kind:?}"));
                    }
                    EngineEventKind::TaskFinished { exec, .. } => {
                        bump(format!("completed/{:?}", kinds[exec]));
                    }
                    EngineEventKind::TaskFailed { failure, .. } => {
                        bump(format!("failed/{}", failure.label()));
                    }
                    EngineEventKind::StageRolledBack { .. } => bump("rollbacks".into()),
                    EngineEventKind::StageCompleted { .. } => bump("stages".into()),
                    EngineEventKind::JobCompleted { .. } => bump("jobs".into()),
                    _ => {}
                }
            }
            let count = |key: &str| counts.get(key).copied().unwrap_or(0);
            let case = format!("seed {seed} {store:?}");
            for (kind, label) in [(ExecutorKind::Vm, "vm"), (ExecutorKind::Lambda, "lambda")] {
                assert_eq!(
                    m.counter_value("executors_registered_total", &[("kind", label)]),
                    count(&format!("registered/{kind:?}")),
                    "{case}: executors_registered_total{{kind={label}}}"
                );
                assert_eq!(
                    m.counter_value("tasks_completed_total", &[("kind", label)]),
                    count(&format!("completed/{kind:?}")),
                    "{case}: tasks_completed_total{{kind={label}}}"
                );
            }
            for reason in ["executor-lost", "fetch-failed", "write-failed"] {
                let n = count(&format!("failed/{reason}"));
                assert_eq!(
                    m.counter_value("tasks_failed_total", &[("reason", reason)]),
                    n,
                    "{case}: tasks_failed_total{{reason={reason}}}"
                );
                *seen.entry(reason).or_default() += n;
            }
            for (name, key) in [
                ("stage_rollbacks_total", "rollbacks"),
                ("stages_completed_total", "stages"),
                ("jobs_completed_total", "jobs"),
            ] {
                assert_eq!(m.counter_value(name, &[]), count(key), "{case}: {name}");
            }
            *seen.entry("rollbacks").or_default() += count("rollbacks");
            assert_eq!(count("jobs"), 1, "{case}: the job completes");

            // Each failed attempt's flight record carries its failure's
            // label, in log order.
            let failed: Vec<_> = events
                .iter()
                .filter_map(|e| match &e.kind {
                    EngineEventKind::TaskFailed {
                        stage,
                        part,
                        failure,
                        ..
                    } => Some((e.at, stage.0.to_string(), part.to_string(), failure.label())),
                    _ => None,
                })
                .collect();
            let flight: Vec<_> = obs
                .flight
                .snapshot()
                .into_iter()
                .filter(|f| f.kind == "task-failed")
                .collect();
            assert_eq!(
                flight.len(),
                failed.len(),
                "{case}: one flight record per failure"
            );
            for ((at, stage, part, reason), f) in failed.iter().zip(&flight) {
                let field = |k: &str| {
                    f.fields
                        .iter()
                        .find(|(name, _)| name == k)
                        .map(|(_, v)| v.as_str())
                };
                assert_eq!(f.at, *at, "{case}");
                assert_eq!(field("stage"), Some(stage.as_str()), "{case}");
                assert_eq!(field("part"), Some(part.as_str()), "{case}");
                assert_eq!(field("reason"), Some(*reason), "{case}");
            }
        }
    }
    for (what, n) in &seen {
        assert!(*n > 0, "no case reached {what}: {seen:?}");
    }
}
