//! The SLO dashboard: runs the paper's bursty job stream under both
//! policies (fixed VM pool vs SplitServe's launching facility)
//! with the full telemetry plane on, and renders what a tenant's
//! dashboard would show — the SLO-attainment curve, the cumulative-bill
//! curve, streaming-digest latency quantiles and the windowed task-run
//! rollups — as one self-contained JSON artifact.
//!
//! ```text
//! cargo run --release --example slo_dashboard [out.json]
//! ```
//!
//! Deterministic: run it twice and the artifact is byte-identical, and
//! `SPLITSERVE_WORKERS` (the engine's worker-thread count) must not
//! change a byte either — `scripts/verify.sh` diffs both.

use std::fmt::Write as _;
use std::hash::Hasher;
use std::rc::Rc;

use splitserve::{
    run_tenant_fleet, DriverProgram, FleetJob, FleetOutcome, FleetPolicy, ScenarioSpec,
    TenantFleetConfig,
};
use splitserve_cloud::{CloudSpec, M4_4XLARGE};
use splitserve_des::{Dist, Sim};
use splitserve_engine::{Dataset, Engine};
use splitserve_obs::{Obs, TenantId};
use splitserve_rt::hash::XxHash64;

/// The stream workload: a shuffle (reduceByKey) job sized to the cores
/// the inter-job manager prescribes.
struct BurstLoad {
    cores: u32,
}

impl DriverProgram for BurstLoad {
    fn name(&self) -> String {
        "burst".into()
    }
    fn parallelism(&self) -> usize {
        self.cores as usize
    }
    fn submit(&self, sim: &mut Sim, engine: &Engine, done: Box<dyn FnOnce(&mut Sim)>) {
        let width = self.cores as usize * 2;
        let ds = Dataset::<u64>::generate(width, |p| (0..1_000u64).map(|i| i + p as u64).collect())
            .map_with_cost(|x| (*x % 4, 1u64), Some(1e-3))
            .reduce_by_key(4, |a, b| a + b);
        engine.submit_job(sim, ds.node(), move |sim, _| done(sim));
    }
}

/// A bursty arrival pattern: `n` 8-core jobs in `waves` clusters over
/// `window_secs`, each wave's jobs 2 s apart, every job with the same SLO.
fn bursty_arrivals(n: usize, waves: usize, window_secs: f64, slo_secs: f64) -> Vec<FleetJob> {
    (0..n)
        .map(|i| {
            let wave = i % waves;
            let within = (i / waves) as f64;
            let arrive = wave as f64 * (window_secs / waves as f64) + within * 2.0;
            FleetJob::streamed(i as u64, arrive, 8, slo_secs)
        })
        .collect()
}

fn quantile_block(out: &mut String, obs: &splitserve_obs::SloLedger) {
    let tenant = TenantId::default();
    let _ = write!(out, "\"latency_quantiles\":{{");
    for (i, (label, q)) in [("p50", 0.5), ("p90", 0.9), ("p95", 0.95), ("p99", 0.99)]
        .iter()
        .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        match obs.latency_quantile(&tenant, *q) {
            Some(v) => {
                let _ = write!(out, "\"{label}\":{v:.6}");
            }
            None => {
                let _ = write!(out, "\"{label}\":null");
            }
        }
    }
    out.push('}');
}

fn policy_block(out: &mut String, label: &str, r: &FleetOutcome, obs: &Obs) {
    let tenant = TenantId::default();
    let _ = write!(
        out,
        "{{\"policy\":\"{}\",\"jobs\":{},\"slo_attainment\":{:.6},\"cost_usd\":{:.6},\
         \"lambdas_launched\":{},",
        label,
        r.outcomes.len(),
        r.slo.fleet_attainment(),
        r.cost_usd,
        r.lambdas_launched
    );
    // The attainment curve: one point per job completion.
    out.push_str("\"attainment_curve\":[");
    for (i, p) in r.slo.curve(&tenant).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"t_us\":{},\"latency_secs\":{:.6},\"slo_secs\":{:.6},\"met\":{},\
             \"attainment\":{:.6}}}",
            p.at.as_micros(),
            p.latency_secs,
            p.slo_secs,
            p.met,
            p.attainment
        );
    }
    out.push_str("],");
    // The cumulative-bill curve.
    out.push_str("\"bill_curve\":[");
    for (i, p) in r.bill.curve(&tenant).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"t_us\":{},\"kind\":\"{}\",\"amount_usd\":{:.6},\"cumulative_usd\":{:.6}}}",
            p.at.as_micros(),
            p.kind,
            p.amount_usd,
            p.cumulative_usd
        );
    }
    out.push_str("],");
    quantile_block(out, &r.slo);
    out.push(',');
    let _ = write!(
        out,
        "\"stragglers_suspected\":{},",
        obs.metrics.counter_total("stragglers_suspected_total")
    );
    let _ = write!(out, "\"rollups\":{}", obs.rollups.to_json());
    out.push('}');
}

fn main() {
    let workers: usize = std::env::var("SPLITSERVE_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/slo_dashboard.json".to_string());

    // Bursty arrivals with an SLO tight enough that the fixed pool
    // misses some bursts and the launching facility's bridging shows up
    // in the attainment curve.
    let jobs = bursty_arrivals(9, 3, 60.0, 4.0);
    let mut json = String::new();
    let _ = write!(json, "{{\"workers\":{workers},\"jobs\":{},", jobs.len());
    json.push_str("\"policies\":[");
    for (i, (policy, label)) in [
        (FleetPolicy::VmOnly, "vm-pool-only"),
        (FleetPolicy::SplitServe, "splitserve"),
    ]
    .into_iter()
    .enumerate()
    {
        // Fresh telemetry per policy so curves and rollups don't mix.
        let mut spec = ScenarioSpec {
            cloud: CloudSpec {
                vm_boot: Dist::constant(110.0),
                lambda_warm_start: Dist::constant(0.12),
                lambda_cold_start: Dist::constant(3.0),
                lambda_net_jitter: Dist::constant(1.0),
                ..CloudSpec::default()
            },
            ..ScenarioSpec::default()
        };
        spec.engine.workers = workers;
        let obs = spec.enable_observability();
        let cfg = TenantFleetConfig::open_stream(policy, 8, M4_4XLARGE, &spec);
        let r = run_tenant_fleet(
            &cfg,
            &jobs,
            Rc::new(|j: &FleetJob| {
                Box::new(BurstLoad { cores: j.cores }) as Box<dyn DriverProgram>
            }),
        );
        if i > 0 {
            json.push(',');
        }
        policy_block(&mut json, label, &r, &obs);
    }
    json.push_str("]}");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write dashboard artifact");
    let mut digest = XxHash64::with_seed(0);
    digest.write(json.as_bytes());
    println!(
        "slo-dashboard: workers={workers} wrote {} ({} bytes) digest={:016x}",
        out_path,
        json.len(),
        digest.finish()
    );
}
