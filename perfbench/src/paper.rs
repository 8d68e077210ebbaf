//! `paper_quick`: the whole `reproduce_all --quick` sequence — every
//! figure and ablation function of `bench::experiments`, in that binary's
//! order, each one work unit. Its output is the text `reproduce_all`
//! prints, so the digest pins the published quick tables.
//!
//! The traced run adds one span per figure call and re-runs the Fig. 5
//! and Fig. 6 grids through the public spec functions and `run_scenario`,
//! which is where the simulated engine and store counts come from.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use splitserve::{run_scenario, DriverProgram, ProfileMode, Scenario, ScenarioSpec};
use splitserve_bench::experiments::{self as ex, Fidelity};
use splitserve_bench::report::Table;
use splitserve_workloads::{TpcdsLoad, TpcdsQuery};

use crate::common::{median, percentile, timed, xxh64, Metrics, Pass};
use crate::span::{self, Tracer};
use crate::Workload;

/// The seed `reproduce_all` defaults to; benchmark seed `n` runs `42 + n`.
pub const DEFAULT_SEED: u64 = 42;

const Q: Fidelity = Fidelity::Quick;

/// One figure call: its span name and what it prints.
type Unit = (&'static str, fn(u64) -> String);

/// What `cli::emit` prints for a table.
fn text(t: &Table) -> String {
    format!("{}\n", t.to_text())
}

/// Every figure and ablation, in `reproduce_all` order.
const UNITS: [Unit; 14] = [
    ("fig1", |_| {
        format!(
            "{}crossover: {:.1}s\n",
            text(&ex::fig1()),
            ex::fig1_crossover_secs()
        )
    }),
    ("fig2", |s| {
        let (series, policies) = ex::fig2(s);
        text(&series) + &text(&policies)
    }),
    ("fig4", |s| {
        text(&ex::fig4(ProfileMode::LambdaOnly, Q, s)) + &text(&ex::fig4(ProfileMode::VmOnly, Q, s))
    }),
    ("fig5", |s| text(&ex::fig5(Q, s))),
    ("fig6", |s| text(&ex::fig6(Q, s))),
    ("fig7", |s| {
        ex::fig7(Q, s)
            .iter()
            .map(|tl| text(&ex::timeline_table(tl)))
            .collect()
    }),
    ("fig8", |s| text(&ex::fig8(Q, s))),
    ("fig9", |s| text(&ex::fig9(Q, s))),
    ("ablation_stores", |s| text(&ex::ablation_stores(Q, s))),
    ("ablation_segue_threshold", |s| {
        text(&ex::ablation_segue_threshold(Q, s))
    }),
    ("ablation_lambda_memory", |s| {
        text(&ex::ablation_lambda_memory(Q, s))
    }),
    ("ablation_cloudsort", |s| {
        text(&ex::ablation_cloudsort(Q, s))
    }),
    ("ablation_controller", |s| {
        text(&ex::ablation_controller(Q, s))
    }),
    ("ablation_job_stream", |s| {
        text(&ex::ablation_job_stream(Q, s))
    }),
];

/// xxhash64 of each unit's text at [`DEFAULT_SEED`], in [`UNITS`] order.
/// Their concatenation is byte-identical to `reproduce_all --quick`'s
/// standard output.
const PINS: [u64; 14] = [
    0x2d78_c446_850a_881d,
    0x5dd1_dcaa_ae2b_df15,
    0x9954_fae1_a8ca_a04a,
    0xc0d7_f506_91fe_05d5,
    0x3739_8862_3743_0603,
    0x049f_280e_544d_61db,
    0xceef_7fc5_1e22_5a25,
    0x9c66_d3d9_0b43_cd10,
    0x38f5_4854_1159_6e5f,
    0x3041_a1f2_79e7_46dd,
    0x9de7_da0c_2454_c12a,
    0x36fe_bb30_bb75_57f8,
    0x3153_0b2f_279f_1671,
    0x9469_b1aa_b85e_9023,
];

type Factory = Box<dyn Fn() -> Box<dyn DriverProgram>>;

/// One run of the Fig. 5 / Fig. 6 grid.
struct GridRun {
    scenario: Scenario,
    spec: ScenarioSpec,
    workload: Factory,
}

/// The built inputs: the figure list and the scenario grid.
pub struct PaperQuick {
    seed: u64,
    units: Vec<Unit>,
    grid: Vec<GridRun>,
}

/// The Fig. 5 (four TPC-DS queries × seven scenarios) and Fig. 6 (PageRank
/// × eight scenarios) runs at quick fidelity, as the figure functions
/// configure them.
fn scenario_grid(seed: u64) -> Vec<GridRun> {
    let mut grid = Vec::new();
    for query in [
        TpcdsQuery::Q5,
        TpcdsQuery::Q16,
        TpcdsQuery::Q94,
        TpcdsQuery::Q95,
    ] {
        for scenario in ex::fig5_scenarios() {
            grid.push(GridRun {
                scenario,
                spec: ex::fig5_spec(seed),
                workload: Box::new(move || {
                    Box::new(TpcdsLoad {
                        shuffle_partitions: 32,
                        ..TpcdsLoad::tiny(query, seed)
                    })
                }),
            });
        }
    }
    for scenario in Scenario::all() {
        grid.push(GridRun {
            scenario,
            spec: ex::fig6_spec(seed),
            workload: Box::new(move || Box::new(ex::fig6_workload(Q, seed))),
        });
    }
    grid
}

impl PaperQuick {
    fn scenario_probe(&self, m: &mut Metrics) {
        let mut host_ms = Vec::new();
        let (mut events, mut tasks, mut recomputed) = (0u64, 0u64, 0u64);
        let (mut gets, mut bytes_in, mut bytes_out, mut throttle) = (0u64, 0u64, 0u64, 0.0);
        for g in &self.grid {
            let (r, secs) = timed(|| run_scenario(g.scenario, &g.spec, &*g.workload));
            host_ms.push(secs * 1e3);
            events += r.events.len() as u64;
            tasks += r.tasks_on_vm + r.tasks_on_lambda;
            recomputed += r.tasks_recomputed;
            gets += r.store_stats.gets;
            bytes_in += r.store_stats.bytes_in;
            bytes_out += r.store_stats.bytes_out;
            throttle += r.store_stats.throttle_wait_secs;
        }
        m.put("scenario.host_ms_p50", median(&mut host_ms), "ms");
        m.put("scenario.host_ms_p90", percentile(&mut host_ms, 0.9), "ms");
        m.put("scenario.engine_events", events as f64, "count");
        m.put("scenario.tasks", tasks as f64, "count");
        m.put("scenario.tasks_recomputed", recomputed as f64, "count");
        m.put("storage.gets", gets as f64, "count");
        m.put("storage.bytes_in", bytes_in as f64, "bytes");
        m.put("storage.bytes_out", bytes_out as f64, "bytes");
        m.put("storage.throttle_wait_s", throttle, "s");
    }
}

impl Workload for PaperQuick {
    const NAME: &'static str = "paper_quick";
    type Probe = ();

    fn setup(offset: u64) -> Self {
        let seed = DEFAULT_SEED.wrapping_add(offset);
        PaperQuick {
            seed,
            units: UNITS.to_vec(),
            grid: scenario_grid(seed),
        }
    }

    fn pass(&self) -> Pass {
        let mut out = Pass::default();
        let t0 = Instant::now();
        let texts: Vec<Option<String>> = self
            .units
            .iter()
            .map(|(name, f)| {
                let s = span::span(name);
                let text = catch_unwind(AssertUnwindSafe(|| f(self.seed))).ok();
                s.end();
                text
            })
            .collect();
        out.secs = t0.elapsed().as_secs_f64();
        let mut all = String::new();
        for (i, ((name, _), text)) in self.units.iter().zip(&texts).enumerate() {
            out.units += 1;
            let Some(text) = text else {
                out.fail_unit(format!("paper_quick {name}: panicked"));
                continue;
            };
            let digest = xxh64(text.as_bytes());
            if self.seed == DEFAULT_SEED && digest != PINS[i] {
                out.fail_unit(format!(
                    "paper_quick {name}: digest {digest:016x} != pinned {:016x}",
                    PINS[i]
                ));
            }
            all.push_str(text);
        }
        out.digest = xxh64(all.as_bytes());
        out
    }

    fn traced_pass(&self) -> (Pass, ()) {
        (self.pass(), ())
    }

    fn layers(&self, tracer: &Tracer, traced: &mut Pass, _: (), m: &mut Metrics) {
        let mut covered = 0u64;
        for (name, _) in &self.units {
            let s = tracer.get(name);
            covered += s.total_ns;
            m.put(
                format!("experiments.{name}_s"),
                s.total_ns as f64 / 1e9,
                "s",
            );
        }
        m.put(
            "trace.coverage.paper_quick",
            covered as f64 / 1e9 / traced.secs,
            "frac",
        );
        self.scenario_probe(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cheap figures at small scale: every unit runs, has a span, and
    /// the digest does not depend on tracing.
    #[test]
    fn small_units_run_and_trace() {
        let mut w = PaperQuick::setup(0);
        w.units.retain(|(n, _)| matches!(*n, "fig1" | "fig2"));
        let plain = w.pass();
        assert_eq!((plain.units, plain.failed), (2, 0), "{:?}", plain.problems);
        span::start();
        let traced = w.pass();
        let t = span::finish();
        assert_eq!(traced.digest, plain.digest);
        assert_eq!(t.get("fig1").calls, 1);
        assert_eq!(t.get("fig2").calls, 1);
        assert_eq!(w.grid.len(), 4 * 7 + 8);
    }
}
