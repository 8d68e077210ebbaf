//! One pass of one benchmark workload, in its own process, so that the
//! orchestrator (`run.py`) can read the pass's peak resident memory.
//!
//! ```text
//! perfbench pass  <workload> <seed>   # set up, one untraced pass
//! perfbench trace <workload> <seed>   # also a traced pass + layer probes
//! ```
//!
//! Prints one JSON line: set-up and pass host seconds, the calibration
//! kernel's host seconds around the pass, the output digest, units
//! attempted and failed, every failed check and, for `trace`, the
//! per-layer metrics.

mod chaos;
mod common;
mod fleet;
mod paper;
mod span;

use common::{calibrate, render, timed, Metrics, Pass};
use span::Tracer;

/// A benchmark workload: inputs built once, then passes over them.
pub trait Workload: Sized {
    /// The name `BENCHMARK.json` lists.
    const NAME: &'static str;
    /// What a traced pass keeps for the layer metrics.
    type Probe;
    /// Builds the inputs for benchmark seed `offset`.
    fn setup(offset: u64) -> Self;
    /// One pass; records spans when recording is on.
    fn pass(&self) -> Pass;
    /// One pass through the timing seams.
    fn traced_pass(&self) -> (Pass, Self::Probe);
    /// Per-layer metrics from a traced pass, its spans and probes; failed
    /// cross-checks go to `traced`.
    fn layers(&self, tracer: &Tracer, traced: &mut Pass, probe: Self::Probe, m: &mut Metrics);
}

fn run<W: Workload>(trace: bool, offset: u64) -> String {
    let (w, setup_s) = timed(|| W::setup(offset));
    // The host's speed, sampled on both sides of the first pass.
    let calib_before = calibrate();
    let mut first = w.pass();
    let calib_s = (calib_before + calibrate()) / 2.0;
    if !trace {
        return render(W::NAME, setup_s, calib_s, &first, None, &Metrics::default());
    }
    // The first pass in a process runs colder than later ones, so the
    // tracing overhead compares the traced pass with warm untraced passes
    // on both sides of it.
    let before = w.pass();
    span::start();
    let (mut traced, probe) = w.traced_pass();
    let tracer = span::finish();
    let after = w.pass();
    let mut m = Metrics::default();
    w.layers(&tracer, &mut traced, probe, &mut m);
    if !tracer.balanced() {
        traced.problem(format!("{}: unbalanced spans", W::NAME));
    }
    for (label, digest) in [
        ("traced", traced.digest),
        ("warm", before.digest),
        ("warm", after.digest),
    ] {
        if digest != first.digest {
            traced.problem(format!(
                "{}: {label} digest {digest:016x} != first untraced {:016x}",
                W::NAME,
                first.digest
            ));
        }
    }
    let warm_s = (before.secs + after.secs) / 2.0;
    m.put(
        format!("trace.overhead_frac.{}", W::NAME),
        traced.secs / warm_s - 1.0,
        "frac",
    );
    for p in [before, after] {
        first.units += p.units;
        first.failed += p.failed;
        first.problems.extend(p.problems);
    }
    render(W::NAME, setup_s, calib_s, &first, Some(&traced), &m)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: perfbench <pass|trace> <paper_quick|tenant_fleet|chaos_matrix> <seed>";
    let [mode, workload, seed] = args.as_slice() else {
        eprintln!("{usage}");
        std::process::exit(2);
    };
    let trace = match mode.as_str() {
        "pass" => false,
        "trace" => true,
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    let Ok(offset) = seed.parse::<u64>() else {
        eprintln!("seed must be a non-negative integer: {seed}");
        std::process::exit(2);
    };
    let line = match workload.as_str() {
        "paper_quick" => run::<paper::PaperQuick>(trace, offset),
        "tenant_fleet" => run::<fleet::TenantFleet>(trace, offset),
        "chaos_matrix" => run::<chaos::ChaosMatrix>(trace, offset),
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    };
    println!("{line}");
}
