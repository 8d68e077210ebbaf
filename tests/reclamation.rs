//! A finished simulation frees everything it allocated. Each probe runs
//! one public entry point with a workload whose input closure holds an
//! `Arc` canary: the engine keeps that closure in its job plans for as
//! long as the engine lives, so a canary still shared after the entry
//! point returns means the engine (job state, event log, shuffle blocks)
//! leaked, typically through a stored hook that owns a handle back to it.
//!
//! A Lambda's kill hook owns the engine, and the cloud holds the hook. A
//! store that bills through the cloud (S3, SQS) closes that into a cycle
//! engine → store → cloud → hook → engine unless the hook is dropped at
//! release, so every probe that can runs on such a store too.

use std::sync::Arc;

use splitserve::{
    run_scenario, run_tenant_fleet, Deployment, DriverProgram, FleetJob, FleetPolicy, Scenario,
    ScenarioSpec, ShuffleStoreKind, TenantFleetConfig,
};
use splitserve_chaos::workloads::{ChaosWorkload, FingerprintSink};
use splitserve_chaos::{run_case, ChaosTopology, FaultEvent, FaultPlan};
use splitserve_cloud::{CloudSpec, M4_XLARGE};
use splitserve_des::{Dist, Sim};
use splitserve_engine::{collect_partitions, Dataset, Engine};

/// A `parts × 4`-task map into a `parts`-wide reduce, one virtual second
/// per map task; the generator closure owns a clone of the canary.
struct CanaryLoad {
    canary: Arc<()>,
    parts: usize,
}

impl CanaryLoad {
    fn submit_counting(&self, sim: &mut Sim, engine: &Engine, done: FingerprintSink) {
        let canary = Arc::clone(&self.canary);
        let ds = Dataset::<u64>::generate(self.parts * 4, move |p| {
            let _owned = &canary;
            (0..5_000u64).map(|i| i + p as u64).collect()
        })
        .map_with_cost(|x| (*x % 32, 1u64), Some(2e-4))
        .reduce_by_key(self.parts, |a, b| a + b);
        engine.submit_job(sim, ds.node(), move |sim, out| {
            let rows = collect_partitions::<(u64, u64)>(out.partitions);
            assert_eq!(rows.len(), 32, "workload result must be correct");
            done(sim, rows.len() as u64);
        });
    }
}

impl DriverProgram for CanaryLoad {
    fn name(&self) -> String {
        "canary-load".into()
    }
    fn parallelism(&self) -> usize {
        self.parts
    }
    fn submit(&self, sim: &mut Sim, engine: &Engine, done: Box<dyn FnOnce(&mut Sim)>) {
        self.submit_counting(sim, engine, Box::new(move |sim, _| done(sim)));
    }
}

impl ChaosWorkload for CanaryLoad {
    fn name(&self) -> &'static str {
        "canary-load"
    }
    fn submit(&self, sim: &mut Sim, engine: &Engine, sink: FingerprintSink) {
        self.submit_counting(sim, engine, sink);
    }
}

/// Runs `run` with a clone of a fresh canary and checks that nothing
/// still holds one once it returns.
fn assert_reclaimed(what: &str, run: impl FnOnce(Arc<()>)) {
    let canary = Arc::new(());
    run(Arc::clone(&canary));
    assert_eq!(
        Arc::strong_count(&canary),
        1,
        "{what}: the finished simulation is still alive"
    );
}

fn quiet_cloud() -> CloudSpec {
    CloudSpec {
        vm_boot: Dist::constant(110.0),
        lambda_warm_start: Dist::constant(0.12),
        lambda_cold_start: Dist::constant(3.0),
        lambda_net_jitter: Dist::constant(1.0),
        ..CloudSpec::default()
    }
}

#[test]
fn every_scenario_reclaims_its_deployment() {
    let spec = ScenarioSpec {
        required_cores: 8,
        available_cores: 2,
        cloud: quiet_cloud(),
        ..ScenarioSpec::default()
    };
    for scenario in Scenario::all() {
        assert_reclaimed(&format!("{scenario:?}"), |canary| {
            let load = move || -> Box<dyn DriverProgram> {
                Box::new(CanaryLoad {
                    canary: Arc::clone(&canary),
                    parts: 8,
                })
            };
            let r = run_scenario(scenario, &spec, &load);
            assert!(r.execution_secs > 0.0);
        });
    }
}

#[test]
fn a_hand_built_lambda_deployment_is_reclaimed_after_shutdown() {
    // The ablation_cloudsort shape: Lambdas only, shutdown from `done`.
    // A cloud handle kept past the run must not keep the engine alive
    // either: once every Lambda is released, no kill hook is left to
    // reach it.
    for store in [
        ShuffleStoreKind::Hdfs,
        ShuffleStoreKind::S3,
        ShuffleStoreKind::Sqs,
    ] {
        let canary = Arc::new(());
        let mut sim = Sim::new(5);
        let d = Deployment::new(&mut sim, quiet_cloud(), store, M4_XLARGE);
        d.add_lambda_executors(&mut sim, 8);
        let d2 = d.clone();
        let load = CanaryLoad {
            canary: Arc::clone(&canary),
            parts: 8,
        };
        DriverProgram::submit(
            &load,
            &mut sim,
            d.engine(),
            Box::new(move |sim| d2.shutdown(sim)),
        );
        sim.run();
        let cloud = d.cloud().clone();
        drop((load, d, sim));
        assert_eq!(
            Arc::strong_count(&canary),
            1,
            "{store}: the cloud still owns the engine after shutdown"
        );
        assert!(cloud.total_cost() > 0.0);
    }
}

#[test]
fn a_lambda_heavy_tenant_fleet_is_reclaimed() {
    for store in [ShuffleStoreKind::Hdfs, ShuffleStoreKind::S3] {
        assert_reclaimed(&format!("lambda-heavy fleet on {store}"), |canary| {
            let cfg = TenantFleetConfig {
                store,
                ..TenantFleetConfig::for_policy(
                    FleetPolicy::LambdaHeavy,
                    splitserve::tenancy::fleet::default_tenant_specs(3),
                    8,
                )
            };
            let jobs: Vec<FleetJob> = (0..6u64)
                .map(|job| FleetJob {
                    job,
                    tenant_idx: job as usize % 3,
                    arrive_at_us: job * 500_000,
                    duration_us: 4_000_000,
                    cores: 4,
                    slo_us: 30_000_000,
                })
                .collect();
            let out = run_tenant_fleet(
                &cfg,
                &jobs,
                std::rc::Rc::new(move |fj: &FleetJob| -> Box<dyn DriverProgram> {
                    Box::new(CanaryLoad {
                        canary: Arc::clone(&canary),
                        parts: fj.cores as usize,
                    })
                }),
            );
            assert_eq!(out.outcomes.len(), jobs.len());
            assert!(out.lambdas_launched > 0, "the probe must exercise Lambdas");
        });
    }
}

#[test]
fn a_chaos_case_with_a_drain_is_reclaimed() {
    let plan = FaultPlan {
        seed: 0,
        events: vec![
            FaultEvent::Drain {
                at_us: 2_000_000,
                lambda: 0,
            },
            FaultEvent::Kill {
                at_us: 3_000_000,
                lambda: 1,
            },
        ],
    };
    for store in [ShuffleStoreKind::Hdfs, ShuffleStoreKind::S3] {
        assert_reclaimed(&format!("chaos case on {store}"), |canary| {
            let load = CanaryLoad { canary, parts: 8 };
            let r = run_case(&load, store, Some(&plan), &ChaosTopology::default());
            assert!(r.fingerprint.is_some(), "the case must complete");
            assert_eq!((r.drains, r.kills), (1, 1));
        });
    }
}
