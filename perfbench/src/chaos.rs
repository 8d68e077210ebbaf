//! `chaos_matrix`: `ChaosPageRank::small` and `ChaosCloudSort::small`
//! under sixteen generated fault plans, each on HDFS and on local disk —
//! `examples/chaos_smoke`'s matrix, one work unit per case. Kills,
//! injected fetch and write faults, lost local blocks, rollback and
//! recompute; the only workload with `Obs` enabled, and each case renders
//! its registry as Prometheus text, as a user reading the metrics would.

use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use splitserve::ShuffleStoreKind;
use splitserve_chaos::workloads::{ChaosCloudSort, ChaosPageRank, ChaosWorkload};
use splitserve_chaos::{run_case, ChaosTopology, FaultPlan, Oracle};
use splitserve_rt::hash::XxHash64;

use crate::common::{median, percentile, ratio, timed, Metrics, Pass, WORKERS};
use crate::span::{self, Tracer};
use crate::Workload;

/// Plans per benchmark seed; seed `n` generates plans `16n .. 16n + 16`.
pub const PLANS: u64 = 16;
/// Digest of the matrix at seed 0, as `examples/chaos_smoke` prints it.
pub const MATRIX_PIN: u64 = 0x26b7_f0f2_1a67_1813;
/// Fault-free output fingerprints of the two workloads, which every case
/// must reproduce whatever its faults.
const REFERENCE: [u64; 2] = [0x9cd3_e1f9_3b0d_db89, 0xd259_9df4_cb95_db2d];

const STORES: [ShuffleStoreKind; 2] = [ShuffleStoreKind::Hdfs, ShuffleStoreKind::Local];

/// The built inputs: the fault plans, the topology, the workloads and
/// their fault-free reference outputs.
pub struct ChaosMatrix {
    first_plan: u64,
    plans: Vec<FaultPlan>,
    topo: ChaosTopology,
    pagerank: ChaosPageRank,
    cloudsort: ChaosCloudSort,
    references: [u64; 2],
}

/// What the traced pass records per case.
#[derive(Default)]
pub struct CaseProbe {
    case_ms: [Vec<f64>; 2],
    completed: u64,
    rollbacks: u64,
    recomputed: u64,
    kills: u64,
    faults: u64,
    tasks: u64,
}

fn case_span(kind: ShuffleStoreKind) -> &'static str {
    match kind {
        ShuffleStoreKind::Hdfs => "case.hdfs",
        _ => "case.local",
    }
}

fn plans(first: u64, n: u64) -> Vec<FaultPlan> {
    (first..first + n).map(FaultPlan::generate).collect()
}

impl ChaosMatrix {
    /// Builds the matrix over `n` plans starting at plan seed `first`.
    /// The references come from `chaos::Oracle`, which runs each workload
    /// fault-free on both stores.
    pub fn build(first: u64, n: u64) -> Self {
        let topo = ChaosTopology {
            workers: WORKERS,
            ..ChaosTopology::default()
        };
        let pagerank = ChaosPageRank::small();
        let cloudsort = ChaosCloudSort::small();
        let references = [
            Oracle::new(&pagerank, topo.clone()).reference_fingerprint(),
            Oracle::new(&cloudsort, topo.clone()).reference_fingerprint(),
        ];
        ChaosMatrix {
            first_plan: first,
            plans: plans(first, n),
            topo,
            pagerank,
            cloudsort,
            references,
        }
    }

    fn run(&self, mut probe: Option<&mut CaseProbe>) -> Pass {
        let mut out = Pass::default();
        let mut digest = XxHash64::with_seed(0);
        let workloads: [&dyn ChaosWorkload; 2] = [&self.pagerank, &self.cloudsort];
        let t0 = Instant::now();
        for (wi, w) in workloads.into_iter().enumerate() {
            for (seed, plan) in (self.first_plan..).zip(&self.plans) {
                for (si, kind) in STORES.into_iter().enumerate() {
                    out.units += 1;
                    let s = span::span(case_span(kind));
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        let r = run_case(w, kind, Some(plan), &self.topo);
                        let render = span::span("obs.render");
                        std::hint::black_box(r.obs.metrics.render_prometheus());
                        render.end();
                        r
                    }));
                    let ns = s.end();
                    let Ok(r) = r else {
                        out.fail_unit(format!(
                            "chaos {} seed={seed} store={kind}: panicked",
                            w.name()
                        ));
                        continue;
                    };
                    let line = format!(
                        "{:<9} seed={seed:<2} store={kind:<5} fp={} rollbacks={} losses={} \
                         recomputed={} kills={} faults={}/{}/{} done_us={}",
                        w.name(),
                        r.fingerprint
                            .map_or_else(|| "-".to_string(), |fp| format!("{fp:016x}")),
                        r.rollbacks,
                        r.executor_losses,
                        r.recomputed,
                        r.kills,
                        r.fetch_faults,
                        r.write_faults,
                        r.delays,
                        r.completed_at
                            .map_or_else(|| "-".to_string(), |t| t.as_micros().to_string()),
                    );
                    digest.write(line.as_bytes());
                    if r.fingerprint != Some(self.references[wi]) {
                        out.fail_unit(format!("chaos case wrong or incomplete: {line}"));
                    }
                    if let Some(p) = probe.as_deref_mut() {
                        p.case_ms[si].push(ns as f64 / 1e6);
                        p.completed += u64::from(r.fingerprint.is_some());
                        p.rollbacks += r.rollbacks as u64;
                        p.recomputed += r.recomputed;
                        p.kills += r.kills;
                        p.faults += r.obs.metrics.counter_total("faults_injected_total");
                        p.tasks += r.obs.metrics.counter_total("tasks_completed_total");
                    }
                }
            }
        }
        out.secs = t0.elapsed().as_secs_f64();
        out.digest = digest.finish();
        if self.references != REFERENCE {
            out.problem(format!(
                "chaos fault-free references {:016x?} != pinned {REFERENCE:016x?}",
                self.references
            ));
            out.failed = out.units;
        }
        if self.first_plan == 0 && self.plans.len() as u64 == PLANS && out.digest != MATRIX_PIN {
            out.problem(format!(
                "chaos matrix digest {:016x} != pinned {MATRIX_PIN:016x}",
                out.digest
            ));
            if out.failed == 0 {
                out.failed = out.units;
            }
        }
        out
    }
}

impl Workload for ChaosMatrix {
    const NAME: &'static str = "chaos_matrix";
    type Probe = CaseProbe;

    fn setup(offset: u64) -> Self {
        ChaosMatrix::build(offset.wrapping_mul(PLANS), PLANS)
    }

    fn pass(&self) -> Pass {
        self.run(None)
    }

    fn traced_pass(&self) -> (Pass, CaseProbe) {
        let mut probe = CaseProbe::default();
        let pass = self.run(Some(&mut probe));
        (pass, probe)
    }

    fn layers(&self, tracer: &Tracer, traced: &mut Pass, mut p: CaseProbe, m: &mut Metrics) {
        for (si, kind) in STORES.into_iter().enumerate() {
            m.put(
                format!("chaos.case_ms_p50.{kind}"),
                median(&mut p.case_ms[si]),
                "ms",
            );
            m.put(
                format!("chaos.case_ms_p90.{kind}"),
                percentile(&mut p.case_ms[si], 0.9),
                "ms",
            );
        }
        let n = self.plans.len() as u64;
        let (_, gen) = timed(|| plans(self.first_plan, n));
        m.put("chaos.plan_gen_us", gen * 1e6 / n as f64, "us");
        m.put("chaos.cases_completed", p.completed as f64, "count");
        m.put("chaos.rollbacks", p.rollbacks as f64, "count");
        m.put("chaos.recomputed", p.recomputed as f64, "count");
        m.put("chaos.kills", p.kills as f64, "count");
        m.put("chaos.faults_fired", p.faults as f64, "count");
        m.put(
            "engine.recompute_ratio",
            ratio(p.recomputed as f64, p.tasks as f64),
            "frac",
        );
        let render = tracer.get("obs.render");
        m.put(
            "obs.render_ms",
            ratio(render.total_ns as f64 / 1e6, render.calls as f64),
            "ms",
        );
        let cases = tracer.sum_prefix("case.");
        m.put(
            "trace.coverage.chaos_matrix",
            cases.total_ns as f64 / 1e9 / traced.secs,
            "frac",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_matrix_traced_matches_untraced() {
        let w = ChaosMatrix::build(3, 2);
        let plain = w.pass();
        assert_eq!((plain.units, plain.failed), (8, 0), "{:?}", plain.problems);
        span::start();
        let (mut traced, probe) = w.traced_pass();
        let t = span::finish();
        assert_eq!(traced.digest, plain.digest);
        assert_eq!(t.sum_prefix("case.").calls, 8);
        assert_eq!(t.get("obs.render").calls, 8);
        let mut m = Metrics::default();
        w.layers(&t, &mut traced, probe, &mut m);
        let completed = m.0.iter().find(|x| x.name == "chaos.cases_completed");
        assert_eq!(completed.map(|x| x.value), Some(8.0));
    }
}
