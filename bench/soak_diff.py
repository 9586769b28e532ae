#!/usr/bin/env python3
"""Hold a fresh serve-soak or scenario-fleet run to the committed answers.

    python3 bench/soak_diff.py <fresh BENCH_perf_serve.json> [<committed>]
    python3 bench/soak_diff.py <fresh BENCH_perf_scn.json> [<committed>]

The file's "bench" field picks the answer key; the committed file defaults
to BENCH_perf_serve.json (bench_serve_soak) or BENCH_perf_scn.json
(bench_scenario_fleet) at the repository root.  Every soak leg's
served-answer fields (iterations, cache_hits, degraded, the admission counts
and the final-tick solution_hash), and every fleet's verdict counts,
cell_ticks and report_hash (FNV-1a over the fleet's report_json), must match
exactly: they are bit-exact across RCR_THREADS.  Timings are printed side by
side but not gated, because host drift moves them by 30-45%.  Exits 1 on any
mismatch.
"""

import json
import os
import sys

# bench -> (committed file, list key, name key, exact fields, timed fields)
KEYS = {
    "serve_soak": ("BENCH_perf_serve.json", "legs", "name",
                   ("iterations", "cache_hits", "degraded", "admitted",
                    "deferred", "shed", "solution_hash"),
                   ("ticks_per_s", "p50_us", "p99_us", "cpu_us_per_tick")),
    "scenario_fleet": ("BENCH_perf_scn.json", "fleets", "fleet",
                       ("verdicts", "cell_ticks", "report_hash"),
                       ("scenarios_per_s", "grade_p50_us", "grade_p99_us")),
}


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    fresh_doc = load(argv[1])
    bench = fresh_doc.get("bench")
    if bench not in KEYS:
        sys.exit(f"{argv[1]}: unknown bench {bench!r}")
    default, list_key, name_key, exact, timed = KEYS[bench]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    committed_path = argv[2] if len(argv) == 3 else os.path.join(root, default)
    entries = lambda doc: {e[name_key]: e for e in doc[list_key]}
    fresh, committed = entries(fresh_doc), entries(load(committed_path))
    mismatches = []
    if sorted(fresh) != sorted(committed):
        mismatches.append(f"{list_key} {sorted(fresh)} != {sorted(committed)}")
    for name in committed:
        if name not in fresh:
            continue
        for key in exact:
            got, want = fresh[name].get(key), committed[name].get(key)
            if got != want:
                mismatches.append(f"{name}.{key}: {got} != committed {want}")
        timings = "  ".join(
            f"{key} {fresh[name].get(key)} "
            f"(committed {committed[name].get(key)})"
            for key in timed)
        print(f"{name:<11} {timings}")
    for line in mismatches:
        print("MISMATCH " + line)
    if mismatches:
        return 1
    print("served answers match " + committed_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
