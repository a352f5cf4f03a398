#!/usr/bin/env python3
"""Checks that the benchmark's exact counters repeat across runs.

    python3 perfbench/test_exact_counters.py [--seed N] [--workload NAME]

Run from the repository root. For each workload it runs the benchmark twice
with the same seed, untraced and traced, and requires the counters below to
be equal to the last digit, every answer to be correct and no query to fail.
These counters come from the verification pass, which answers each pool
pattern exactly once, so they depend only on the seed and the program.

Counters that vary between runs under 4 clients are treated as timed and
not compared:
  decomposition.plan_cache_hit_ratio - LRU order depends on client timing;
  decomposition.star_est_ratio_p50, result_join.step_est_ratio_p50 - taken
    over the queries the traced window happened to run;
  net.frame_bytes - reply stats carry varint query ids minted in arrival
    order.
"""

import argparse
import json
import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent / "run.py"
WORKLOADS = ["dbp-selective", "nd-fanout", "uk-sharded-socket"]
EXACT = {
    0: ["response_bytes_per_query"],
    1: ["result_join.rin_rows", "unit_matcher.rs_rows",
        "owner.alg3_candidates", "owner.alg3_yield", "shard_exchange.bytes",
        "aux_graph.bytes_mean", "unit_matcher.intersect_calls",
        "result_join.peak_rows_max", "setup.upload_bytes"],
}


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=RUN.parent.parent, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().split("\n")[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", choices=WORKLOADS)
    args = parser.parse_args()
    failures = []
    for workload in [args.workload] if args.workload else WORKLOADS:
        for trace, names in EXACT.items():
            first, second = (run(workload, args.seed, trace) for _ in "ab")
            for result in (first, second):
                if not result["correct"] or result["failed"] != 0:
                    failures.append(f"{workload}: run not clean: {result}")
            # failed_frac: failed / attempted, with failed required to be 0.
            for name in names:
                a = first["metrics"][name]["value"]
                b = second["metrics"][name]["value"]
                status = "ok" if a == b else "DIFFERS"
                print(f"{workload:18s} {name:30s} {a!r:>24} {b!r:>24} "
                      f"{status}")
                if a != b:
                    failures.append(f"{workload}: {name} {a!r} != {b!r}")
    for failure in failures:
        print("FAIL", failure)
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
