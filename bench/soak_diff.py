#!/usr/bin/env python3
"""Hold a fresh bench_serve_soak run to the committed answers.

    python3 bench/soak_diff.py <fresh BENCH_perf_serve.json> [<committed>]

The committed file defaults to BENCH_perf_serve.json at the repository root.
Every leg's served-answer fields (iterations, cache_hits, degraded, the
admission counts and the final-tick solution_hash) must match exactly: they
are bit-exact across RCR_THREADS.  Timings are printed side by side but not
gated, because host drift moves them by 30-45%.  Exits 1 on any mismatch.
"""

import json
import os
import sys

EXACT = ("iterations", "cache_hits", "degraded", "admitted", "deferred",
         "shed", "solution_hash")
TIMED = ("ticks_per_s", "p50_us", "p99_us")


def legs(path):
    with open(path) as f:
        return {leg["name"]: leg for leg in json.load(f)["legs"]}


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    committed_path = argv[2] if len(argv) == 3 else os.path.join(
        root, "BENCH_perf_serve.json")
    fresh, committed = legs(argv[1]), legs(committed_path)
    mismatches = []
    if sorted(fresh) != sorted(committed):
        mismatches.append(f"legs {sorted(fresh)} != {sorted(committed)}")
    for name in committed:
        if name not in fresh:
            continue
        for key in EXACT:
            got, want = fresh[name].get(key), committed[name].get(key)
            if got != want:
                mismatches.append(f"{name}.{key}: {got} != committed {want}")
        timings = "  ".join(
            f"{key} {fresh[name][key]} (committed {committed[name][key]})"
            for key in TIMED)
        print(f"{name:<9} {timings}")
    for line in mismatches:
        print("MISMATCH " + line)
    if mismatches:
        return 1
    print("served answers match " + committed_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
