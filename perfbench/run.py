#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 10 --trace 0

--workload all runs serve_mix, admit_churn and soc_sim in turn. Run from
the root of a checkout. The first call configures and builds papd
and the perfbench binary from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls only re-check the build.
The last stdout line is one JSON object: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1 (layers
a workload does not exercise read 0). Exits non-zero without a result when
the build, a run or a correctness precondition fails.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mix", "admit_churn", "soc_sim")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build papd and perfbench (no-op when current)."""
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one tree
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", build_dir, "--target", "papd",
                      "perfbench", "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-8000:])
                fail("build step failed: " + " ".join(cmd))


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def finish(result, trace):
    """Check the result against BENCHMARK.json; zero-fill idle layers."""
    declared = declared_metrics()
    metrics = result["metrics"]
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or \
                not math.isfinite(m["value"]):
            fail("metric %s is not a finite number" % name)
    if declared is None:
        return result
    want = declared[1] if trace else declared[0]
    extra = sorted(set(metrics) - set(want))
    if extra:
        fail("undeclared metrics: " + ", ".join(extra))
    for name, unit in want.items():
        if name not in metrics:
            if not trace:
                fail("missing end-to-end metric " + name)
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail("metric %s has unit %s, declared %s"
                 % (name, metrics[name]["unit"], unit))
    result["metrics"] = {name: metrics[name] for name in want}
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")

    for needed in ("src/CMakeLists.txt", "tools/papd.cpp",
                   "examples/scenarios/fig5_watermark.pap"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("repository source %s not found; run from a full checkout"
                 % needed)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    if args.workload != "all":
        print(json.dumps(run(build_dir, args.workload, args)))
        return 0
    # Every workload in turn; the last line merges them, metric names
    # prefixed with their workload.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run(build_dir, workload, args)
        print("perfbench: %s: %s" % (workload, json.dumps(result)))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"]["%s/%s" % (workload, name)] = m
    print(json.dumps(merged))
    return 0


def run(build_dir, workload, args):
    """One perfbench run; echoes its report lines, returns its result."""
    run_dir = os.path.join(build_dir, "run", "%s-%d" % (workload,
                                                       os.getpid()))
    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(run_dir, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--papd", os.path.join(build_dir, "pap_tools", "papd"),
           "--root", ROOT]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.csv" % (workload, args.seed))]
    try:
        done = subprocess.run(cmd, cwd=run_dir, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s run exceeded %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail("perfbench exited with code %d" % done.returncode)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: " + lines[-1][:200])
    return finish(result, args.trace)


if __name__ == "__main__":
    sys.exit(main())
