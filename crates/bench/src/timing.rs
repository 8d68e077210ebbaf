//! A minimal walltime benchmarking harness for the hermetic build.
//!
//! Each benchmark is timed as median-of-N end-to-end walltime after a
//! warmup run, and reported as one JSON line on stdout:
//!
//! ```text
//! {"bench":"codec/encode_10k_kv","median_ns":123456,"min_ns":...,"max_ns":...,"samples":9}
//! ```
//!
//! One line per benchmark keeps the output trivially machine-parseable
//! (`grep '^{' | jq`) without a JSON dependency on either end.

use std::time::Instant;

/// Runs `f` once as warmup, then `samples` timed times, and prints the
/// median/min/max walltime as a JSON line. Returns the median in
/// nanoseconds so callers can do coarse regression checks.
pub fn bench<F: FnMut()>(name: &str, samples: usize, f: F) -> u128 {
    report(name, &time_samples(samples, f), "")
}

/// Like [`bench`] for a loop over `bytes` bytes of payload: the record
/// also carries `ns_per_byte`, the median divided by `bytes`.
pub fn bench_per_byte<F: FnMut()>(name: &str, samples: usize, bytes: u64, f: F) -> u128 {
    let times_ns = time_samples(samples, f);
    let ns_per_byte = times_ns[times_ns.len() / 2] as f64 / bytes.max(1) as f64;
    report(
        name,
        &times_ns,
        &format!(",\"ns_per_byte\":{ns_per_byte:.3}"),
    )
}

/// One warmup run, then `samples` timed runs of `f`, sorted.
fn time_samples<F: FnMut()>(samples: usize, mut f: F) -> Vec<u128> {
    assert!(samples > 0, "need at least one sample");
    f(); // warmup: fault in lazily-initialized state
    let mut times_ns: Vec<u128> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos()
        })
        .collect();
    times_ns.sort_unstable();
    times_ns
}

/// Prints the JSON record for sorted `times_ns`, with `extra` (already
/// formatted `,"key":value` pairs) appended, and returns the median.
fn report(name: &str, times_ns: &[u128], extra: &str) -> u128 {
    let median = times_ns[times_ns.len() / 2];
    println!(
        "{{\"bench\":\"{}\",\"median_ns\":{},\"min_ns\":{},\"max_ns\":{},\"samples\":{}{}}}",
        name,
        median,
        times_ns[0],
        times_ns[times_ns.len() - 1],
        times_ns.len(),
        extra
    );
    median
}

/// Like [`bench`] but rebuilds the input with `setup` outside the timed
/// region on every sample (for benchmarks that consume their input).
pub fn bench_with_setup<S, T, F>(name: &str, samples: usize, mut setup: S, mut f: F) -> u128
where
    S: FnMut() -> T,
    F: FnMut(T),
{
    assert!(samples > 0, "need at least one sample");
    f(setup());
    let mut times_ns: Vec<u128> = (0..samples)
        .map(|_| {
            let input = setup();
            let t0 = Instant::now();
            f(input);
            t0.elapsed().as_nanos()
        })
        .collect();
    times_ns.sort_unstable();
    report(name, &times_ns, "")
}

/// Defeats dead-code elimination of a benchmark's result without unsafe
/// code or volatile reads: the value is moved through an opaque sink.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_returns_a_plausible_median() {
        let mut n = 0u64;
        let median = bench("test/noop", 5, || n += 1);
        assert!(n >= 6, "warmup + samples all ran");
        assert!(median < 1_000_000_000, "a no-op takes under a second");
    }

    #[test]
    fn bench_with_setup_runs_setup_per_sample() {
        let mut setups = 0u32;
        bench_with_setup(
            "test/setup",
            3,
            || {
                setups += 1;
                vec![1u8; 8]
            },
            |v| {
                black_box(v.len());
            },
        );
        assert_eq!(setups, 4, "warmup + 3 samples");
    }

    #[test]
    fn bench_per_byte_runs_warmup_and_samples() {
        let mut n = 0u64;
        let median = bench_per_byte("test/bytes", 3, 1_000, || n += 1);
        assert_eq!(n, 4, "warmup + 3 samples");
        assert!(median < 1_000_000_000, "a no-op takes under a second");
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        bench("test/zero", 0, || {});
    }
}
