//! A drain hook must not outlive the executor it waits on: killing a
//! draining executor makes its `on_drained` hook unreachable (a dead
//! executor is never decommissioned), so the engine drops it at the kill
//! instead of holding whatever it captured until the engine itself goes.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use splitserve_des::{Fabric, Sim, SimTime};
use splitserve_engine::{
    collect_partitions, Dataset, Engine, EngineConfig, EngineEvent, EngineEventKind, ExecutorDesc,
    ExecutorId,
};
use splitserve_storage::{HdfsSpec, HdfsStore, SharedStore};

/// Two VM executors, one two-task map job whose tasks each take about a
/// second; at 0.5 s `e-vm-0` is killed, first drained too when `drain` is
/// set. Returns the event log.
fn kill_mid_task(drain: bool) -> Vec<EngineEvent> {
    let fabric = Fabric::new();
    let hdfs = HdfsStore::new(HdfsSpec::default(), fabric.clone());
    hdfs.add_datanode(
        fabric.add_link(1e9, "hdfs-nic"),
        fabric.add_link(1e9, "hdfs-disk"),
    );
    let store: SharedStore = Rc::new(hdfs);
    let engine = Engine::new(EngineConfig::default(), store);
    let mut sim = Sim::new(3);
    for i in 0..2 {
        let nic = fabric.add_link(1e9, format!("nic-{i}"));
        let disk = fabric.add_link(1e9, format!("disk-{i}"));
        engine.register_executor(
            &mut sim,
            ExecutorDesc::vm(format!("e-vm-{i}"), nic, disk, 8192),
        );
    }
    let ds = Dataset::parallelize((0..2_000u64).collect(), 2).map_with_cost(|x| *x, Some(1e-3));
    let rows: Rc<RefCell<Option<Vec<u64>>>> = Rc::new(RefCell::new(None));
    let r = Rc::clone(&rows);
    engine.submit_job(&mut sim, ds.node(), move |_, out| {
        *r.borrow_mut() = Some(collect_partitions::<u64>(out.partitions));
    });
    sim.run_until(SimTime::from_millis(500));

    let victim = ExecutorId::new("e-vm-0");
    assert!(
        engine.executor_info(&victim).is_some_and(|e| e.busy),
        "victim mid-task"
    );
    let canary = Rc::new(());
    let fired = Rc::new(Cell::new(false));
    if drain {
        let held = Rc::clone(&canary);
        let f = Rc::clone(&fired);
        engine.drain_executor(&mut sim, &victim, move |_, _| {
            f.set(true);
            drop(held);
        });
        assert_eq!(
            Rc::strong_count(&canary),
            2,
            "a busy executor keeps draining"
        );
    }
    engine.kill_executor(&mut sim, &victim);
    assert_eq!(
        Rc::strong_count(&canary),
        1,
        "the drain hook must be dropped when its executor dies"
    );
    sim.run();
    assert!(!fired.get(), "a killed executor never reports drained");
    let mut out = rows.borrow_mut().take().expect("job survives the kill");
    out.sort_unstable();
    assert_eq!(out, (0..2_000u64).collect::<Vec<_>>());
    engine.event_log().snapshot()
}

#[test]
fn kill_drops_a_pending_drain_hook_and_leaves_the_log_alone() {
    let drained_then_killed = kill_mid_task(true);
    let killed = kill_mid_task(false);
    // The drain adds its own `ExecutorDraining` record and nothing else:
    // no decommission, and every later event matches the kill-only run.
    let mut without_drain = drained_then_killed;
    let at = without_drain
        .iter()
        .position(|e| matches!(e.kind, EngineEventKind::ExecutorDraining { .. }))
        .expect("drain recorded");
    without_drain.remove(at);
    assert_eq!(without_drain, killed);
}
