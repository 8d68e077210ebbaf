//! `tenant_fleet`: the default 100-tenant fleet under the `vm-only`,
//! `splitserve` and `lambda-heavy` policies, rendered into the fleet
//! artifact whose digest the repository pins. No shuffle data plane to
//! speak of; the DES loop, dispatch, admission and the warm pool carry it.
//!
//! The traced pass goes through the public seams of
//! `run_tenant_fleet_with`: a timing [`BlockStore`] decorator (puts, gets
//! and their completion callbacks), a timing `WorkloadFn` whose programs
//! time `DriverProgram::submit`, and an `arm` hook that keeps a
//! `Deployment` clone for the event log, the fabric and the warm pool.
//! Admission and warm-pool costs come from replaying the recorded inputs
//! through `AdmissionController` and `WarmPool`; each replay must
//! reproduce what the live run recorded.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hash::Hasher;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

use splitserve::tenancy::{
    combined_fingerprint, default_fleet_jobs, default_tenant_specs, fleet_workload, policy_json,
    render_fleet_json, run_tenant_fleet, run_tenant_fleet_with, verify_log, AdmissionController,
    AdmissionEvent, AdmissionEventKind, AdmissionRequest, FleetJob, FleetOutcome, FleetPolicy,
    TenantFleetConfig, TenantSpec, WorkloadFn,
};
use splitserve::{Deployment, DriverProgram};
use splitserve_cloud::{PoolDecision, PoolEvent, PoolStats, WarmPool, PREWARMED_LAMBDA_MB};
use splitserve_des::Sim;
use splitserve_engine::Engine;
use splitserve_rt::hash::XxHash64;
use splitserve_rt::Bytes;
use splitserve_storage::{
    BlockId, BlockStore, ClientLoc, GetCallback, PutCallback, SharedStore, StoreStats,
};

use crate::common::{ratio, timed, xxh64, Metrics, Pass, WORKERS};
use crate::span::{self, Tracer};
use crate::Workload;

/// The trace seed of the pinned default fleet; benchmark seed `n` runs
/// `11 + n`.
pub const DEFAULT_TRACE_SEED: u64 = 11;
/// Digest of the default fleet artifact, as `examples/tenant_fleet` pins it.
pub const ARTIFACT_PIN: u64 = 0x8d89_667a_0715_385b;
/// Digest of each policy's `policy_json` in the default artifact.
const POLICY_PINS: [(FleetPolicy, u64); 3] = [
    (FleetPolicy::VmOnly, 0xa17e_d44f_ec56_3b61),
    (FleetPolicy::SplitServe, 0x5308_20d9_2cd0_a1e6),
    (FleetPolicy::LambdaHeavy, 0x8e46_825a_c951_dfb0),
];

const RECORDS_PER_TASK: usize = 8;
const HORIZON_SECS: f64 = 1_200.0;
const POOL_CORES: u32 = 40;

/// Fleet size: tenants and target job count.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Tenants.
    pub tenants: usize,
    /// Fleet-wide target job count.
    pub jobs: usize,
}

/// The default fleet: 100 tenants, ~10.5k jobs.
pub const FULL: Scale = Scale {
    tenants: 100,
    jobs: 10_500,
};

/// The built inputs: tenants, the arrival trace and one config per policy.
pub struct TenantFleet {
    trace_seed: u64,
    scale: Scale,
    tenants: Vec<TenantSpec>,
    jobs: Vec<FleetJob>,
    configs: Vec<TenantFleetConfig>,
}

/// The job → output fingerprint map a `fleet_workload` factory fills.
type Sink = Rc<RefCell<BTreeMap<u64, u64>>>;

/// What the traced pass keeps of one policy run for the layer metrics.
pub struct PolicyTrace {
    cfg_index: usize,
    admission: Vec<AdmissionEvent>,
    events: usize,
    fabric_bytes: f64,
    pool_inputs: Vec<PoolEvent>,
    pool_decisions: Vec<PoolDecision>,
    pool_stats: PoolStats,
}

fn run_span(policy: FleetPolicy) -> &'static str {
    match policy {
        FleetPolicy::VmOnly => "run.vm-only",
        FleetPolicy::SplitServe => "run.splitserve",
        FleetPolicy::LambdaHeavy => "run.lambda-heavy",
    }
}

/// What one fleet job must output: the fingerprint `FleetLoad` computes,
/// derived here from the job's generator without the engine.
fn expected_fingerprint(job: &FleetJob) -> u64 {
    let base = job.job.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut sums: BTreeMap<u64, u64> = BTreeMap::new();
    for p in 0..u64::from(job.cores) {
        for i in 0..RECORDS_PER_TASK as u64 {
            let x = base ^ i.wrapping_mul(31).wrapping_add(p);
            let s = sums.entry(x % 7).or_insert(0);
            *s = s.wrapping_add(x);
        }
    }
    let mut h = XxHash64::with_seed(job.job);
    for (k, v) in &sums {
        h.write_u64(*k);
        h.write_u64(*v);
    }
    h.finish()
}

impl TenantFleet {
    /// Builds the fleet at `scale` with trace seed `11 + offset`.
    pub fn build(scale: Scale, offset: u64) -> Self {
        let trace_seed = DEFAULT_TRACE_SEED.wrapping_add(offset);
        let tenants = default_tenant_specs(scale.tenants);
        let jobs = default_fleet_jobs(&tenants, trace_seed, scale.jobs, HORIZON_SECS);
        let configs = FleetPolicy::all()
            .into_iter()
            .map(|policy| {
                let mut cfg = TenantFleetConfig::for_policy(policy, tenants.clone(), POOL_CORES);
                cfg.engine.workers = WORKERS;
                cfg
            })
            .collect();
        TenantFleet {
            trace_seed,
            scale,
            tenants,
            jobs,
            configs,
        }
    }

    fn is_default(&self) -> bool {
        self.trace_seed == DEFAULT_TRACE_SEED
            && (self.scale.tenants, self.scale.jobs) == (FULL.tenants, FULL.jobs)
    }

    /// One pass; with `probe`, through the timing seams, keeping what the
    /// layer metrics need.
    fn run(&self, mut probe: Option<&mut Vec<PolicyTrace>>) -> Pass {
        let mut out = Pass::default();
        // The failed checks of each policy run, by config index.
        let mut checks: Vec<Vec<String>> = vec![Vec::new(); self.configs.len()];
        // Config index, outcome and job outputs of each run that returned.
        let mut ran = Vec::new();
        let mut results = Vec::new();
        let mut sinks = Vec::new();
        let t0 = Instant::now();
        for (i, cfg) in self.configs.iter().enumerate() {
            out.units += 1;
            let (wl, sink) = fleet_workload(RECORDS_PER_TASK);
            let s = span::span(run_span(cfg.policy));
            let r = catch_unwind(AssertUnwindSafe(|| {
                if probe.is_none() {
                    return (run_tenant_fleet(cfg, &self.jobs, wl), None);
                }
                let kept = Rc::new(RefCell::new(None));
                let slot = Rc::clone(&kept);
                let r = run_tenant_fleet_with(
                    cfg,
                    &self.jobs,
                    timed_workload(wl),
                    TimedStore::wrap,
                    move |_, d| *slot.borrow_mut() = Some(d.clone()),
                );
                // Read the kept deployment and drop it inside the run's
                // span, where the untraced run drops its own.
                let d: Option<Deployment> = kept.borrow_mut().take();
                let t = d.map(|d| PolicyTrace {
                    cfg_index: i,
                    admission: r.admission.clone(),
                    events: d.engine().event_log().len(),
                    fabric_bytes: d.fabric().bytes_completed(),
                    pool_inputs: d.cloud().pool_inputs(),
                    pool_decisions: d.cloud().pool_decisions(),
                    pool_stats: d.cloud().pool_stats(),
                });
                (r, t)
            }));
            s.end();
            let Ok((r, t)) = r else {
                checks[i].push(format!("tenant_fleet {}: panicked", cfg.policy));
                continue;
            };
            if let (Some(probe), Some(t)) = (probe.as_deref_mut(), t) {
                probe.push(t);
            }
            let s = span::span("verify");
            let verdict = verify_log(cfg.slots, &self.tenants, &r.admission);
            s.end();
            if let Err(e) = verdict {
                checks[i].push(format!("tenant_fleet {}: verify_log: {e}", cfg.policy));
            }
            let fp = combined_fingerprint(&sink.borrow());
            ran.push(i);
            results.push((r, fp));
            sinks.push(sink);
        }
        let s = span::span("render");
        let json = render_fleet_json(WORKERS, &self.tenants, self.jobs.len(), &results);
        s.end();
        out.secs = t0.elapsed().as_secs_f64();
        out.digest = xxh64(json.as_bytes());
        for (j, &i) in ran.iter().enumerate() {
            self.check(&results[j], &sinks[j], &mut checks[i]);
        }
        for unit in checks {
            out.unit_checks(unit);
        }
        if self.is_default() && out.digest != ARTIFACT_PIN && out.failed == 0 {
            out.failed = out.units;
            out.problem(format!(
                "tenant_fleet artifact digest {:016x} != pinned {ARTIFACT_PIN:016x}",
                out.digest
            ));
        }
        out
    }

    /// One policy run's job outputs against the engine-free reference and,
    /// at the default trace, its pinned digest; failed checks go to `failed`.
    fn check(&self, (r, fp): &(FleetOutcome, u64), sink: &Sink, failed: &mut Vec<String>) {
        let sink = sink.borrow();
        let wrong = self
            .jobs
            .iter()
            .filter(|j| sink.get(&j.job) != Some(&expected_fingerprint(j)))
            .count();
        if wrong > 0 {
            failed.push(format!(
                "tenant_fleet {}: {wrong} job outputs differ from the reference",
                r.policy
            ));
        }
        if !self.is_default() {
            return;
        }
        let d = xxh64(policy_json(r, &self.tenants, *fp).as_bytes());
        let pin = POLICY_PINS
            .iter()
            .find(|(p, _)| *p == r.policy)
            .map(|(_, d)| *d);
        if Some(d) != pin {
            failed.push(format!(
                "tenant_fleet {}: digest {d:016x} != pinned {pin:016x?}",
                r.policy
            ));
        }
    }
}

/// Replays a run's admission log through a fresh controller: every
/// `Arrived` into `on_arrival`, every `Completed` into `on_complete`.
/// Returns the call count and host seconds, or why the replay diverged.
fn replay_admission(
    cfg: &TenantFleetConfig,
    jobs: &[FleetJob],
    log: &[AdmissionEvent],
) -> Result<(u64, f64), String> {
    let mut ctrl = AdmissionController::new(cfg.slots, &cfg.tenants);
    let mut calls = 0u64;
    let t0 = Instant::now();
    for ev in log {
        let dispatched = match ev.kind {
            AdmissionEventKind::Arrived => ctrl.on_arrival(
                ev.at_us,
                AdmissionRequest {
                    job: ev.job,
                    tenant: ev.tenant.clone(),
                    cores: ev.cores,
                    service_estimate_us: jobs[ev.job as usize].duration_us,
                },
            ),
            AdmissionEventKind::Completed => ctrl.on_complete(ev.at_us, ev.job),
            AdmissionEventKind::Dispatched { .. } => continue,
        };
        std::hint::black_box(dispatched);
        calls += 1;
    }
    let secs = t0.elapsed().as_secs_f64();
    if ctrl.log() != log {
        return Err("replayed admission log differs from FleetOutcome.admission".into());
    }
    verify_log(cfg.slots, &cfg.tenants, ctrl.log())
        .map_err(|e| format!("replay verify_log: {e}"))?;
    Ok((calls, secs))
}

/// Replays `Cloud::pool_inputs()` through a fresh `WarmPool` built as the
/// run's cloud built it. Returns the call count and host seconds, or why
/// the replay diverged.
fn replay_pool(cfg: &TenantFleetConfig, t: &PolicyTrace) -> Result<(u64, f64), String> {
    let mut pool = WarmPool::new(
        cfg.cloud.coldstart.build(),
        cfg.cloud.prewarmed_lambdas,
        PREWARMED_LAMBDA_MB,
    );
    let t0 = Instant::now();
    for ev in &t.pool_inputs {
        match *ev {
            PoolEvent::Invoke {
                at_us,
                func,
                memory_mb,
            } => {
                std::hint::black_box(pool.invoke(at_us, func, memory_mb));
            }
            PoolEvent::Release {
                at_us,
                func,
                memory_mb,
            } => pool.release(at_us, func, memory_mb),
            PoolEvent::Finalize { at_us } => pool.finalize(at_us),
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    if pool.stats() != t.pool_stats {
        return Err("replayed pool stats differ from Cloud::pool_stats()".into());
    }
    if pool.decisions() != t.pool_decisions.as_slice() {
        return Err("replayed pool decisions differ from the live run".into());
    }
    Ok((t.pool_inputs.len() as u64, secs))
}

impl Workload for TenantFleet {
    const NAME: &'static str = "tenant_fleet";
    type Probe = Vec<PolicyTrace>;

    fn setup(offset: u64) -> Self {
        TenantFleet::build(FULL, offset)
    }

    fn pass(&self) -> Pass {
        self.run(None)
    }

    fn traced_pass(&self) -> (Pass, Self::Probe) {
        let mut probe = Vec::new();
        let pass = self.run(Some(&mut probe));
        (pass, probe)
    }

    fn layers(&self, tracer: &Tracer, traced: &mut Pass, probe: Self::Probe, m: &mut Metrics) {
        let runs = tracer.sum_prefix("run.");
        let run_ns = runs.total_ns as f64;
        let (put, get) = (tracer.get("storage.put"), tracer.get("storage.get"));
        let callback = tracer.get("engine.callback");
        let submit = tracer.get("core.submit");
        let events: usize = probe.iter().map(|t| t.events).sum();
        m.put("storage.put.calls", put.calls as f64, "count");
        m.put(
            "storage.put.ns_per_call",
            ratio(put.self_ns as f64, put.calls as f64),
            "ns",
        );
        m.put("storage.get.calls", get.calls as f64, "count");
        m.put(
            "storage.get.ns_per_call",
            ratio(get.self_ns as f64, get.calls as f64),
            "ns",
        );
        m.put(
            "storage.share",
            ratio((put.self_ns + get.self_ns) as f64, run_ns),
            "frac",
        );
        m.put(
            "engine.callback.share",
            ratio(callback.self_ns as f64, run_ns),
            "frac",
        );
        m.put("engine.events", events as f64, "count");
        m.put("engine.ns_per_event", ratio(run_ns, events as f64), "ns");
        m.put("sim.self_share", ratio(runs.self_ns as f64, run_ns), "frac");
        m.put(
            "core.submit.ns_per_job",
            ratio(submit.total_ns as f64, submit.calls as f64),
            "ns",
        );
        for policy in FleetPolicy::all() {
            let s = tracer.get(run_span(policy));
            m.put(
                format!("tenancy.run_s.{policy}"),
                s.total_ns as f64 / 1e9,
                "s",
            );
        }
        let verify = tracer.get("verify");
        m.put("tenancy.verify_log_s", verify.total_ns as f64 / 1e9, "s");
        let render = tracer.get("render");
        m.put("tenancy.render_json_s", render.total_ns as f64 / 1e9, "s");
        let (_, trace_gen) = timed(|| {
            default_fleet_jobs(
                &self.tenants,
                self.trace_seed,
                self.scale.jobs,
                HORIZON_SECS,
            )
        });
        m.put("tenancy.trace_gen_s", trace_gen, "s");

        let (mut adm_calls, mut adm_secs) = (0u64, 0.0);
        let (mut pool_calls, mut pool_secs) = (0u64, 0.0);
        let (mut cold, mut starts, mut fabric) = (0u64, 0u64, 0.0);
        for t in &probe {
            let cfg = &self.configs[t.cfg_index];
            match replay_admission(cfg, &self.jobs, &t.admission) {
                Ok((c, s)) => (adm_calls, adm_secs) = (adm_calls + c, adm_secs + s),
                Err(e) => traced.problem(format!("tenant_fleet {}: {e}", cfg.policy)),
            }
            match replay_pool(cfg, t) {
                Ok((c, s)) => (pool_calls, pool_secs) = (pool_calls + c, pool_secs + s),
                Err(e) => traced.problem(format!("tenant_fleet {}: {e}", cfg.policy)),
            }
            m.put(
                format!("cloud.pool.inputs.{}", cfg.policy),
                t.pool_inputs.len() as f64,
                "count",
            );
            cold += t.pool_stats.cold_starts;
            starts += t.pool_stats.cold_starts + t.pool_stats.warm_starts;
            fabric += t.fabric_bytes;
        }
        m.put("tenancy.admission.calls", adm_calls as f64, "count");
        m.put(
            "tenancy.admission.ns_per_call",
            ratio(adm_secs * 1e9, adm_calls as f64),
            "ns",
        );
        m.put(
            "cloud.pool.ns_per_call",
            ratio(pool_secs * 1e9, pool_calls as f64),
            "ns",
        );
        m.put(
            "cloud.pool.cold_fraction",
            ratio(cold as f64, starts as f64),
            "frac",
        );
        m.put("des.fabric.bytes", fabric, "bytes");
        let top = run_ns + (verify.total_ns + render.total_ns) as f64;
        m.put(
            "trace.coverage.tenant_fleet",
            top / 1e9 / traced.secs,
            "frac",
        );
    }
}

/// Times every put and get, and the completion callback each hands back.
struct TimedStore(SharedStore);

impl TimedStore {
    fn wrap(inner: SharedStore) -> SharedStore {
        Rc::new(TimedStore(inner))
    }
}

impl BlockStore for TimedStore {
    fn kind(&self) -> &'static str {
        self.0.kind()
    }

    fn survives_executor_loss(&self) -> bool {
        self.0.survives_executor_loss()
    }

    fn put(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, data: Bytes, cb: PutCallback) {
        let _s = span::span("storage.put");
        self.0.put(
            sim,
            client,
            block,
            data,
            Box::new(move |sim, res| {
                let _s = span::span("engine.callback");
                cb(sim, res)
            }),
        );
    }

    fn get(&self, sim: &mut Sim, client: ClientLoc, block: BlockId, cb: GetCallback) {
        let _s = span::span("storage.get");
        self.0.get(
            sim,
            client,
            block,
            Box::new(move |sim, res| {
                let _s = span::span("engine.callback");
                cb(sim, res)
            }),
        );
    }

    fn on_executor_lost(&self, sim: &mut Sim, executor: &str) {
        self.0.on_executor_lost(sim, executor);
    }

    fn register_executor(&self, executor: &str, loc: ClientLoc) {
        self.0.register_executor(executor, loc);
    }

    fn contains(&self, block: &BlockId) -> bool {
        self.0.contains(block)
    }

    fn stats(&self) -> StoreStats {
        self.0.stats()
    }
}

/// Wraps a fleet workload factory so every program it builds times its
/// `submit`.
fn timed_workload(inner: WorkloadFn) -> WorkloadFn {
    Rc::new(move |fj: &FleetJob| Box::new(TimedProgram(inner(fj))) as Box<dyn DriverProgram>)
}

struct TimedProgram(Box<dyn DriverProgram>);

impl DriverProgram for TimedProgram {
    fn name(&self) -> String {
        self.0.name()
    }

    fn parallelism(&self) -> usize {
        self.0.parallelism()
    }

    fn submit(&self, sim: &mut Sim, engine: &Engine, done: Box<dyn FnOnce(&mut Sim)>) {
        let _s = span::span("core.submit");
        self.0.submit(sim, engine, done);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use splitserve::tenancy::SloClass;

    /// A small fleet through both paths: identical artifacts, every job
    /// matching the reference, and both replays reproducing the run.
    #[test]
    fn small_fleet_traced_matches_untraced_and_replays() {
        let w = TenantFleet::build(
            Scale {
                tenants: 6,
                jobs: 240,
            },
            0,
        );
        let plain = w.pass();
        assert_eq!((plain.units, plain.failed), (3, 0), "{:?}", plain.problems);
        span::start();
        let (mut traced, probe) = w.traced_pass();
        let t = span::finish();
        assert!(t.balanced());
        assert_eq!(traced.digest, plain.digest, "tracing perturbed the fleet");
        assert_eq!(probe.len(), 3);
        let mut m = Metrics::default();
        w.layers(&t, &mut traced, probe, &mut m);
        assert!(traced.problems.is_empty(), "{:?}", traced.problems);
        let get = |n: &str| m.0.iter().find(|x| x.name == n).map(|x| x.value);
        assert!(get("storage.put.calls").unwrap() > 0.0);
        assert!(get("tenancy.admission.calls").unwrap() >= 2.0 * w.jobs.len() as f64 * 3.0);
        let shares = ["storage.share", "engine.callback.share", "sim.self_share"]
            .map(|n| get(n).unwrap())
            .iter()
            .sum::<f64>();
        assert!(shares > 0.5 && shares <= 1.0 + 1e-9, "{shares}");
    }

    /// A policy run that fails two checks — its admission log against the
    /// tenant specs, and its pinned digest — counts as one failed unit.
    #[test]
    fn a_policy_run_fails_once_however_many_checks_it_fails() {
        let mut w = TenantFleet::build(
            Scale {
                tenants: 4,
                jobs: 60,
            },
            0,
        );
        // Specs whose classes disagree with the log fail `verify_log`, and
        // claiming the default scale turns on the pins this fleet misses.
        for t in &mut w.tenants {
            t.class = match t.class {
                SloClass::Interactive => SloClass::Standard,
                SloClass::Standard => SloClass::Batch,
                SloClass::Batch => SloClass::Interactive,
            };
        }
        w.scale = FULL;
        let p = w.pass();
        assert_eq!((p.units, p.failed), (3, 3), "{:?}", p.problems);
        assert_eq!(p.problems.len(), 6, "{:?}", p.problems);
    }

    #[test]
    fn reference_fingerprint_matches_the_engine() {
        let w = TenantFleet::build(
            Scale {
                tenants: 3,
                jobs: 30,
            },
            5,
        );
        let (wl, sink) = fleet_workload(RECORDS_PER_TASK);
        run_tenant_fleet(&w.configs[0], &w.jobs, wl);
        for j in &w.jobs {
            assert_eq!(
                sink.borrow()[&j.job],
                expected_fingerprint(j),
                "job {}",
                j.job
            );
        }
    }
}
