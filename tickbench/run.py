#!/usr/bin/env python3
"""Tick benchmark: build the benchmark from source and run one workload.

    python3 tickbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds
tickbench/ (and the libraries it links from src/) under
$CARGO_TARGET_DIR/tickbench, default .bench_build/tickbench; later runs
reuse the build.  The benchmark binary's "# " lines are passed through,
and the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics untraced
(--trace 0) or the per-layer metrics traced (--trace 1).  The exit code is
non-zero, with no JSON line, when the build or the run fails, and non-zero
with correct=false when a served answer fails the correctness gate,
served_quality falls below the workload's floor in config.json, or the
traced replay disagrees with the service.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(message):
    print("tickbench: " + message, file=sys.stderr)
    sys.exit(2)


def usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build(build_dir):
    """Configure once, then build the benchmark binary (a no-op when current)."""
    jobs = str(max(1, min(4, usable_cpus())))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "tickbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "tickbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "config.json"), encoding="utf-8") as f:
        config = json.load(f)
    workload = config["workloads"].get(args.workload)
    if workload is None:
        fail("unknown workload '%s' (known: %s)" %
             (args.workload, ", ".join(config["workloads"])))
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no RCR source tree next to the benchmark (expected %s)" %
             os.path.join(ROOT, "src"))

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "tickbench")
    binary = build(build_dir)

    # One load-generating process, and every workload serves serially: the
    # pool gets one thread (the caller), so ticks never wait on workers.
    env = {k: v for k, v in os.environ.items() if not k.startswith("RCR_")}
    env["RCR_THREADS"] = "1"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--quality-floor", repr(workload["quality_floor"])]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        fail("run exited %d without a result" % proc.returncode)

    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        print("# metric names differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(expected - set(result["metrics"])),
                 sorted(set(result["metrics"]) - expected)))
        result["correct"] = False
    print(json.dumps(result))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
