//! Shuffle data-plane hot-path benchmarks: the map-side combine+encode
//! and reduce-side decode+merge loops this repo's fast path targets, the
//! byte-array codec kernels CloudSort's payloads run through, plus
//! end-to-end wall time of the four paper workloads whose stages are
//! dominated by those loops. Run with `cargo bench --bench shuffle_hot`;
//! one JSON line per benchmark (see `scripts/bench.sh`).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use splitserve_bench::timing::{bench, bench_per_byte, black_box};
use splitserve_des::{Fabric, Sim};
use splitserve_engine::{
    collect_partitions, input_shuffles, Dataset, Engine, EngineConfig, ExecutorDesc, TaskContext,
    WorkModel,
};
use splitserve_storage::LocalDiskStore;
use splitserve_workloads::{CloudSort, KMeans, PageRank, TpcdsLoad, TpcdsQuery};

const SAMPLES: usize = 5;

/// Map side of `reduceByKey`: hash-group 1M records down to 256 keys and
/// encode the survivors into 8 buckets — the single hottest loop of every
/// aggregating stage.
fn bench_map_combine() {
    let ds = Dataset::parallelize((0..1_000_000u64).map(|i| (i % 256, 1u64)).collect(), 1)
        .reduce_by_key(8, |a, b| a + b);
    let deps = input_shuffles(&ds.node());
    let dep = Arc::clone(&deps[0]);
    bench("shuffle/map_combine_encode_1m", SAMPLES, || {
        let mut ctx = TaskContext::empty(WorkModel::default());
        let data = dep.parent.compute(&mut ctx, 0);
        black_box((dep.partitioner)(&mut ctx, data));
    });
}

/// Map side of `groupByKey`: no combine, every record is encoded — the
/// exact-size pooled-buffer encode path carries the whole cost.
fn bench_map_encode_only() {
    let ds = Dataset::parallelize((0..500_000u64).map(|i| (i % 1024, i)).collect(), 1)
        .group_by_key(8);
    let deps = input_shuffles(&ds.node());
    let dep = Arc::clone(&deps[0]);
    bench("shuffle/map_encode_nocombine_500k", SAMPLES, || {
        let mut ctx = TaskContext::empty(WorkModel::default());
        let data = dep.parent.compute(&mut ctx, 0);
        black_box((dep.partitioner)(&mut ctx, data));
    });
}

/// Reduce side of `reduceByKey`: stream-decode the fetched blocks and
/// merge into the hash accumulator.
fn bench_reduce_merge() {
    let ds = Dataset::parallelize((0..1_000_000u64).map(|i| (i % 4096, 1u64)).collect(), 4)
        .reduce_by_key(1, |a, b| a + b);
    let node = ds.node();
    let deps = input_shuffles(&node);
    let dep = Arc::clone(&deps[0]);
    let mut blocks = Vec::new();
    for m in 0..dep.parent.num_partitions() {
        let mut ctx = TaskContext::empty(WorkModel::default());
        let data = dep.parent.compute(&mut ctx, m);
        for b in (dep.partitioner)(&mut ctx, data) {
            if !b.bytes.is_empty() {
                blocks.push(b.bytes);
            }
        }
    }
    bench("shuffle/reduce_decode_merge_1m", SAMPLES, || {
        let mut inputs = splitserve_rt::FastMap::default();
        inputs.insert(dep.id, blocks.clone());
        let mut ctx = TaskContext::new(WorkModel::default(), inputs);
        black_box(node.compute(&mut ctx, 0));
    });
}

/// CloudSort's record shape through the codec alone: 4k `(u64 key,
/// 90-byte payload)` records encoded back to back into one block, then
/// stream-decoded. Reported per payload byte, the unit the `Vec<u8>`
/// kernels work in.
fn bench_bytes_codec() {
    const RECORDS: usize = 4096;
    const PAYLOAD: usize = 90;
    let mut rng = splitserve_rt::Rng::seed_from_u64(90);
    let records: Vec<(u64, Vec<u8>)> = (0..RECORDS)
        .map(|_| {
            let mut payload = vec![0u8; PAYLOAD];
            rng.fill(&mut payload);
            (rng.gen(), payload)
        })
        .collect();
    // Sub-millisecond loops: more samples for a steady median.
    const CODEC_SAMPLES: usize = 21;
    let payload_bytes = (RECORDS * PAYLOAD) as u64;
    let mut block = Vec::new();
    bench_per_byte(
        "shuffle/bytes_codec_cloudsort/encode",
        CODEC_SAMPLES,
        payload_bytes,
        || {
            block.clear();
            for r in &records {
                splitserve_codec::to_writer(&mut block, r).expect("encode");
            }
            black_box(block.len());
        },
    );
    bench_per_byte(
        "shuffle/bytes_codec_cloudsort/decode",
        CODEC_SAMPLES,
        payload_bytes,
        || {
            let mut rest = block.as_slice();
            while !rest.is_empty() {
                let r: (u64, Vec<u8>) =
                    splitserve_codec::from_bytes_seq(&mut rest).expect("decode");
                black_box(r);
            }
        },
    );
}

fn rig(seed: u64, execs: usize) -> (Sim, Engine) {
    rig_workers(seed, execs, 1)
}

fn rig_workers(seed: u64, execs: usize, workers: usize) -> (Sim, Engine) {
    let fabric = Fabric::new();
    let store = Rc::new(LocalDiskStore::new(fabric.clone()));
    let engine = Engine::new(
        EngineConfig {
            workers,
            ..EngineConfig::default()
        },
        store,
    );
    let mut sim = Sim::new(seed);
    for i in 0..execs {
        let nic = fabric.add_link(1e9, format!("n{i}"));
        let disk = fabric.add_link(1e9, format!("d{i}"));
        engine.register_executor(&mut sim, ExecutorDesc::vm(format!("e-{i}"), nic, disk, 8192));
    }
    (sim, engine)
}

/// Submits `plan` on a fresh 4-executor rig and runs the sim to
/// completion, returning the output row count (asserted non-zero so the
/// optimizer cannot elide the job).
fn run_plan<T: Clone + Send + Sync + 'static>(plan: &Dataset<T>) -> usize {
    run_plan_workers(plan, 4, 1)
}

/// `run_plan` with an explicit executor count and worker-pool size, for
/// the `parallel/*` benchmarks that scale the data plane.
fn run_plan_workers<T: Clone + Send + Sync + 'static>(
    plan: &Dataset<T>,
    execs: usize,
    workers: usize,
) -> usize {
    let (mut sim, engine) = rig_workers(7, execs, workers);
    let out = Rc::new(RefCell::new(0usize));
    let o = Rc::clone(&out);
    engine.submit_job(&mut sim, plan.node(), move |_, r| {
        *o.borrow_mut() = collect_partitions::<T>(r.partitions).len();
    });
    sim.run();
    let n = *out.borrow();
    assert!(n > 0, "workload must produce output");
    n
}

fn bench_workloads() {
    bench("e2e/cloudsort_20k", SAMPLES, || {
        let sort = CloudSort::new(20_000, 4, 3);
        black_box(run_plan(&sort.plan()));
    });
    bench("e2e/tpcds_q95_tiny", SAMPLES, || {
        let q = TpcdsLoad::tiny(TpcdsQuery::Q95, 7);
        black_box(run_plan(&q.plan()));
    });
    bench("e2e/pagerank_2k_2iter", SAMPLES, || {
        let pr = PageRank::new(2_000, 2, 4, 9);
        black_box(run_plan(&pr.plan()));
    });
    bench("e2e/kmeans_5k", SAMPLES, || {
        let (mut sim, engine) = rig(3, 4);
        let w = KMeans::small(5_000, 4, 11);
        let done = Rc::new(RefCell::new(false));
        let d = Rc::clone(&done);
        w.run(&mut sim, &engine, move |_, centroids, _| {
            *d.borrow_mut() = !centroids.is_empty();
        });
        sim.run();
        assert!(*done.borrow(), "kmeans must converge");
    });
}

/// End-to-end PageRank wall time as the worker pool scales: same job,
/// same virtual-time answer, different real elapsed time. Sized so task
/// bodies (contribution flat_map, combine+encode, decode+merge) dominate
/// the run — the speedup `scripts/verify.sh` gates on lives here, and
/// `scripts/bench.sh` routes these records into `BENCH_parallel.json`.
fn bench_parallel_pagerank() {
    for workers in [1usize, 2, 4, 8] {
        bench(&format!("parallel/pagerank_e2e_w{workers}"), SAMPLES, || {
            let pr = PageRank::new(200_000, 2, 8, 9);
            black_box(run_plan_workers(&pr.plan(), 8, workers));
        });
    }
}

fn main() {
    bench_map_combine();
    bench_map_encode_only();
    bench_reduce_merge();
    bench_bytes_codec();
    bench_workloads();
    bench_parallel_pagerank();
}
