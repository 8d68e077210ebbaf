#!/usr/bin/env bash
# Shuffle data-plane benchmark harness: runs the `shuffle_hot` bench
# (map-side combine+encode, reduce-side decode+merge micro-benchmarks,
# the `shuffle/bytes_codec_cloudsort/*` byte-array codec loops with
# `ns_per_byte`, the four paper workloads end to end, and the
# `parallel/*` worker-pool scaling series), the `obs_overhead` bench (disabled-path record
# costs for counters, histograms, spans, digests, rollups and the flight
# recorder, and the enabled/disabled scenario walltime ratio), and the
# `tenancy` bench (admission-control throughput and trace-generation
# rates for the multi-tenant control plane), and the `fleet_hot` bench
# (dense-admission churn, enabled-path metric-handle record costs, and
# the reduced fleet end-to-end at 1 and 4 workers), and the `coldstart`
# bench (per-policy warm-pool decision costs and 100k-invoke churn for
# the cold-start policy plane), and collects the one-line JSON records
# they print.
#
# Records whose name starts with `parallel/` go to the second output
# (the worker-pool scaling medians); `obs/*` records go to the third;
# `tenancy/*` records go to the fourth; `fleet_hot/*` records go to the
# fifth; `coldstart/*` records go to the sixth; everything else goes to
# the first.
#
# Usage: scripts/bench.sh [shuffle_out.json] [parallel_out.json] [obs_out.json] [tenancy_out.json] [fleet_hot_out.json] [coldstart_out.json]
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_shuffle.json}"
parallel_out="${2:-BENCH_parallel.json}"
obs_out="${3:-BENCH_obs.json}"
tenancy_out="${4:-BENCH_tenancy.json}"
fleet_hot_out="${5:-BENCH_fleet_hot.json}"
coldstart_out="${6:-BENCH_coldstart.json}"

echo "==> cargo bench -p splitserve-bench --bench shuffle_hot"
raw=$(cargo bench --offline -p splitserve-bench --bench shuffle_hot)
echo "==> cargo bench -p splitserve-bench --bench obs_overhead"
raw_obs=$(cargo bench --offline -p splitserve-bench --bench obs_overhead)
echo "==> cargo bench -p splitserve-bench --bench tenancy"
raw_tenancy=$(cargo bench --offline -p splitserve-bench --bench tenancy)
echo "==> cargo bench -p splitserve-bench --bench fleet_hot"
raw_fleet=$(cargo bench --offline -p splitserve-bench --bench fleet_hot)
echo "==> cargo bench -p splitserve-bench --bench coldstart"
raw_coldstart=$(cargo bench --offline -p splitserve-bench --bench coldstart)

# Keep only the JSON result lines; everything else is cargo/bench chatter.
printf '%s\n%s\n%s\n%s\n%s\n' "$raw" "$raw_obs" "$raw_tenancy" "$raw_fleet" "$raw_coldstart" | grep '^{' | python3 -c '
import json, sys

shuffle_out, parallel_out, obs_out, tenancy_out, fleet_hot_out, coldstart_out = sys.argv[1:7]
records = [json.loads(line) for line in sys.stdin]
assert records, "bench produced no JSON records"
for r in records:
    if "ratio" in r:
        # The obs enabled/disabled summary record: a ratio, not a timing.
        for key in ("bench", "ratio", "enabled_ns", "disabled_ns"):
            assert key in r, f"ratio record missing {key}: {r}"
        assert r["ratio"] > 0, f"non-positive ratio: {r}"
        continue
    for key in ("bench", "median_ns", "min_ns", "max_ns", "samples"):
        assert key in r, f"record missing {key}: {r}"
    assert r["median_ns"] > 0, f"non-positive median: {r}"
shuffle = [
    r for r in records
    if not r["bench"].startswith(
        ("parallel/", "obs/", "tenancy/", "fleet_hot/", "coldstart/")
    )
]
parallel = [r for r in records if r["bench"].startswith("parallel/")]
obs = [r for r in records if r["bench"].startswith("obs/")]
tenancy = [r for r in records if r["bench"].startswith("tenancy/")]
fleet_hot = [r for r in records if r["bench"].startswith("fleet_hot/")]
coldstart = [r for r in records if r["bench"].startswith("coldstart/")]
assert parallel, "bench produced no parallel/ records"
assert obs, "bench produced no obs/ records"
assert tenancy, "bench produced no tenancy/ records"
assert fleet_hot, "bench produced no fleet_hot/ records"
assert coldstart, "bench produced no coldstart/ records"
for path, recs in (
    (shuffle_out, shuffle),
    (parallel_out, parallel),
    (obs_out, obs),
    (tenancy_out, tenancy),
    (fleet_hot_out, fleet_hot),
    (coldstart_out, coldstart),
):
    with open(path, "w") as f:
        json.dump(recs, f, indent=2)
        f.write("\n")
' "$out" "$parallel_out" "$obs_out" "$tenancy_out" "$fleet_hot_out" "$coldstart_out"

echo "==> wrote $out, $parallel_out, $obs_out, $tenancy_out, $fleet_hot_out and $coldstart_out"
python3 -c '
import json, sys

for path in sys.argv[1:]:
    with open(path) as f:
        records = json.load(f)
    for r in records:
        name = r["bench"]
        if "ratio" in r:
            ratio = r["ratio"]
            print(f"{name:44s} ratio  {ratio:10.4f}")
            continue
        med, n = r["median_ns"] / 1e6, r["samples"]
        print(f"{name:44s} median {med:10.3f} ms  ({n} samples)")
' "$out" "$parallel_out" "$obs_out" "$tenancy_out" "$fleet_hot_out" "$coldstart_out"
