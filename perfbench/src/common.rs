//! What every workload shares: the result of one pass, the host-speed
//! calibration, order statistics and the one-line JSON the orchestrator
//! reads.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::{BuildHasherDefault, Hasher};
use std::time::Instant;

use splitserve_rt::hash::XxHash64;

/// Engine worker threads for every workload: one thread, no pool.
pub const WORKERS: usize = 1;

/// One pass over a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds for the pass.
    pub secs: f64,
    /// Digest of the pass's output.
    pub digest: u64,
    /// Work units attempted (figure tables, policy runs, chaos cases).
    pub units: u64,
    /// Units that panicked, never completed or missed their pinned digest.
    pub failed: u64,
    /// Every failed check, one line each.
    pub problems: Vec<String>,
}

impl Pass {
    /// Records a failed check without failing a unit.
    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    /// Records a failed unit.
    pub fn fail_unit(&mut self, msg: String) {
        self.unit_checks(vec![msg]);
    }

    /// Records every failed check of one unit; the unit counts as failed
    /// once however many of its checks failed.
    pub fn unit_checks(&mut self, failed_checks: Vec<String>) {
        if !failed_checks.is_empty() {
            self.failed += 1;
            self.problems.extend(failed_checks);
        }
    }
}

/// A named per-layer measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Collects per-layer metrics in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// xxhash64 (seed 0) of `bytes` — the digest every repository pin uses.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = XxHash64::with_seed(0);
    h.write(bytes);
    h.finish()
}

/// One run of the calibration kernel: hashing, ordered-map inserts, small
/// allocations and a sort over a few megabytes — the kinds of work the
/// simulator's hot loop does. It touches none of the repository's code, so
/// its time tracks the host's speed and nothing a change to the program
/// can do.
fn calibration_kernel(n: u64) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Fixed hash keys, so every run does the same work.
    let mut hashed: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
    let mut boxes: Vec<Box<[u64]>> = Vec::new();
    let mut acc = 0u64;
    for i in 0..n {
        let k = next() % (n / 2);
        *hashed.entry(k).or_insert(0) += i;
        if i % 4 == 0 {
            ordered.insert(next() % n, i);
        }
        if i % 8 == 0 {
            boxes.push(vec![i; (k % 32) as usize + 1].into_boxed_slice());
        }
        if let Some(y) = hashed.get(&(next() % (n / 2))) {
            acc = acc.wrapping_add(*y);
        }
    }
    let mut keys: Vec<u64> = hashed.into_keys().collect();
    keys.sort_unstable();
    acc ^ (keys.len() + ordered.len() + boxes.len()) as u64
}

/// Host seconds of the calibration kernel: the median of five runs.
/// A pass's host time divided by this is its cost in units of host speed,
/// which moves less than host seconds do when a shared host's speed drifts
/// between runs.
pub fn calibrate() -> f64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|_| timed(|| std::hint::black_box(calibration_kernel(200_000))).1)
        .collect();
    median(&mut runs)
}

/// Runs `f`, returning its value and host seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// Median of `xs` (0 when empty). Reorders `xs`.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `xs` by nearest rank, for `q` in (0, 1]: the
/// smallest sample with at least a share `q` of the samples at or below
/// it (0 when empty). Reorders `xs`.
pub fn percentile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// The line a child process prints for the orchestrator.
pub fn render(
    workload: &str,
    setup_s: f64,
    calib_s: f64,
    untraced: &Pass,
    traced: Option<&Pass>,
    metrics: &Metrics,
) -> String {
    let mut out = String::from("{\"workload\":");
    json_str(&mut out, workload);
    out.push_str(",\"setup_s\":");
    json_num(&mut out, setup_s);
    out.push_str(",\"calib_s\":");
    json_num(&mut out, calib_s);
    out.push_str(",\"host_s\":");
    json_num(&mut out, untraced.secs);
    let _ = write!(out, ",\"digest\":\"{:016x}\"", untraced.digest);
    if let Some(t) = traced {
        out.push_str(",\"traced_host_s\":");
        json_num(&mut out, t.secs);
        let _ = write!(out, ",\"traced_digest\":\"{:016x}\"", t.digest);
    }
    let passes: Vec<&Pass> = std::iter::once(untraced).chain(traced).collect();
    let units: u64 = passes.iter().map(|p| p.units).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let _ = write!(
        out,
        ",\"units\":{units},\"failed_units\":{failed},\"problems\":["
    );
    for (i, p) in passes.iter().flat_map(|p| &p.problems).enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(&mut out, p);
    }
    out.push_str("],\"metrics\":{");
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_str(&mut out, &m.name);
        out.push_str(":{\"value\":");
        json_num(&mut out, m.value);
        out.push_str(",\"unit\":");
        json_str(&mut out, m.unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
        // 32 samples, as a chaos store has: p90 is the 29th, three above it.
        let mut xs: Vec<f64> = (1..=32).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut xs, 0.9), 29.0);
        assert_eq!(percentile(&mut xs, 0.5), 16.0);
        assert_eq!(percentile(&mut xs, 1.0), 32.0);
        let mut few = [5.0, 9.0, 1.0];
        assert_eq!(percentile(&mut few, 0.9), 9.0);
        assert_eq!(percentile(&mut [], 0.9), 0.0);
    }

    #[test]
    fn a_unit_fails_once_however_many_checks_it_fails() {
        let mut p = Pass {
            units: 2,
            ..Pass::default()
        };
        p.unit_checks(vec!["wrong output".into(), "digest != pin".into()]);
        p.unit_checks(Vec::new());
        assert_eq!((p.failed, p.problems.len()), (1, 2));
    }

    #[test]
    fn render_is_one_json_object() {
        let mut p = Pass {
            secs: 1.5,
            digest: 0xab,
            units: 2,
            ..Pass::default()
        };
        p.fail_unit("bad \"quote\"\n".into());
        let mut m = Metrics::default();
        m.put("a.b", 0.25, "s");
        let line = render("w", 0.001, 0.03, &p, None, &m);
        assert!(line.starts_with("{\"workload\":\"w\""));
        assert!(line.contains("\"digest\":\"00000000000000ab\""));
        assert!(line.contains("\"failed_units\":1"));
        assert!(line.contains("bad \\\"quote\\\"\\u000a"));
        assert!(line.contains("\"a.b\":{\"value\":0.25,\"unit\":\"s\"}"));
        assert!(!line.contains('\n'));
    }
}
