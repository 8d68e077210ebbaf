#!/usr/bin/env python3
"""Same-host benchmark of the SplitServe simulator.

    python3 perfbench/run.py --workload <paper_quick|tenant_fleet|chaos_matrix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR, default `.bench_build`, then:

* `--trace 0` runs passes of the workload, each in a fresh process that
  sets up the inputs, times a calibration kernel, runs one untraced pass
  and times the kernel again, until `--seconds` have gone by. It reports
  the medians over passes of `host_s` (host seconds per pass),
  `peak_rss_mb` (the process's peak resident memory) and `setup_s` (host
  seconds to build the inputs). Both times are scaled to the host speed
  at which the kernel takes `REFERENCE_CALIB_S`, so that a shared host
  drifting between faster and slower periods moves them less.
* `--trace 1` runs one traced process per workload, the named one first:
  the per-layer metrics span all three workloads, so every traced run
  reports all of them.

Every pass checks its output: pinned digests at seed 0, engine-free
reference outputs at any seed, replay cross-checks and identical digests
across passes and between traced and untraced passes. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; the line before it records the host, toolchain, source
and worker count the numbers were measured with.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_quick", "tenant_fleet", "chaos_matrix")
# Work units per pass: figure calls, policy runs, chaos cases.
UNITS = {"paper_quick": 14, "tenant_fleet": 3, "chaos_matrix": 64}
BINARY = "splitserve-perfbench"
WORKERS = 1
# Stop starting passes once the run could overrun this many seconds.
BUDGET_S = 150.0
CHILD_TIMEOUT_S = 140.0
MIN_COVERAGE = 0.95
# Host seconds of the calibration kernel (`src/common.rs::calibrate`) that
# define reference speed: about its time on an idle 2-core Xeon VM.
REFERENCE_CALIB_S = 0.030

START = time.monotonic()
CHILDREN = set()


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary; returns its path, or exits non-zero."""
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        code = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
    except OSError as e:
        log(f"perfbench: cannot run cargo: {e}")
        sys.exit(3)
    binary = os.path.join(target, "release", BINARY)
    if code != 0 or not os.path.isfile(binary):
        log("perfbench: build failed")
        sys.exit(3)
    return binary


def child(binary, mode, workload, seed):
    """Runs one pass process; returns (its JSON line or None, peak RSS MB)."""
    p = subprocess.Popen([binary, mode, workload, str(seed)], cwd=ROOT, stdout=subprocess.PIPE)
    CHILDREN.add(p)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(p.stdout.read()))
    reader.start()
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(p.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            log(f"perfbench: {workload} {mode} timed out")
            p.kill()
            pid, status, usage = os.wait4(p.pid, 0)
            break
        time.sleep(0.01)
    p.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    p.stdout.close()
    CHILDREN.discard(p)
    rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
    lines = b"".join(chunks).decode(errors="replace").strip().splitlines()
    if p.returncode != 0 or not lines:
        log(f"perfbench: {workload} {mode} exited with {p.returncode}")
        return None, rss_mb
    return json.loads(lines[-1]), rss_mb


def stop_children(*_):
    for p in list(CHILDREN):
        p.kill()
        p.wait()
    sys.exit(1)


def tally(result, workload, problems):
    """Units (attempted, failed) of one child; a crashed child fails all its units."""
    if result is None:
        problems.append(f"{workload}: pass process failed")
        return UNITS[workload], UNITS[workload]
    problems.extend(result["problems"])
    return result["units"], result["failed_units"]


def run_passes(binary, workload, seed, seconds):
    attempted = failed = 0
    problems, digests = [], set()
    host, setup, rss, raw, calib = [], [], [], [], []
    t0 = time.monotonic()
    while True:
        result, rss_mb = child(binary, "pass", workload, seed)
        a, f = tally(result, workload, problems)
        attempted, failed = attempted + a, failed + f
        if result is not None:
            digests.add(result["digest"])
            speed = REFERENCE_CALIB_S / result["calib_s"]
            host.append(result["host_s"] * speed)
            setup.append(result["setup_s"] * speed)
            rss.append(rss_mb)
            raw.append(result["host_s"])
            calib.append(result["calib_s"])
        elapsed = time.monotonic() - t0
        per_pass = elapsed / (len(host) or 1)
        if elapsed >= seconds or time.monotonic() - START + 1.5 * per_pass > BUDGET_S:
            break
    if len(digests) > 1:
        problems.append(f"{workload}: passes disagree on the output digest: {sorted(digests)}")
    log(f"perfbench: {workload} seed={seed}: {len(host)} passes, digest {','.join(sorted(digests))}")
    log(f"perfbench: pass host_s, unscaled {' '.join(f'{x:.3f}' for x in raw)}")
    log(f"perfbench: calibration ms {' '.join(f'{x * 1e3:.1f}' for x in calib)}")
    metrics = {}
    if host:
        metrics = {
            "host_s": {"value": statistics.median(host), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    return attempted, failed, problems, metrics, len(host)


def run_traced(binary, workload, seed):
    attempted = failed = 0
    problems, metrics = [], {}
    for w in (workload,) + tuple(x for x in WORKLOADS if x != workload):
        result, _ = child(binary, "trace", w, seed)
        a, f = tally(result, w, problems)
        attempted, failed = attempted + a, failed + f
        if result is None:
            continue
        if result["traced_digest"] != result["digest"]:
            problems.append(f"{w}: traced digest {result['traced_digest']} != untraced {result['digest']}")
        coverage = result["metrics"].get(f"trace.coverage.{w}", {}).get("value", 0.0)
        if coverage < MIN_COVERAGE:
            problems.append(f"{w}: top-level spans cover {coverage:.3f} of the traced pass (< {MIN_COVERAGE})")
        metrics.update(result["metrics"])
    metrics["failed_frac"] = {"value": failed / max(attempted, 1), "unit": "frac"}
    return attempted, failed, problems, metrics, 1


def git_commit():
    """The checkout's commit, read from .git without running git, or 'none'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """sha256 over the sources the benchmark builds, so runs from checkouts
    without git history still name the code they measured."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
    files = []
    for r in roots:
        path = os.path.join(ROOT, r)
        if os.path.isfile(path):
            files.append(r)
        for d, dirs, names in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "__pycache__"))
            files.extend(os.path.relpath(os.path.join(d, n), ROOT) for n in names)
    for rel in sorted(files):
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    signal.signal(signal.SIGTERM, stop_children)
    signal.signal(signal.SIGINT, stop_children)

    binary = build()
    if args.trace:
        attempted, failed, problems, metrics, passes = run_traced(binary, args.workload, args.seed)
    else:
        attempted, failed, problems, metrics, passes = run_passes(
            binary, args.workload, args.seed, args.seconds
        )
    for p in problems:
        log(f"perfbench: FAILED CHECK: {p}")
    for name, m in metrics.items():
        log(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    correct = not problems and failed == 0 and bool(metrics)
    print(
        f"# perfbench env: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={passes} workers={WORKERS} nproc={os.cpu_count()} rustc=\"{rustc_version()}\" "
        f"commit={git_commit()} source={source_digest()}"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
