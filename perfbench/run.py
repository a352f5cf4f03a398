#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload dbp-selective --seed 1 --seconds 20 --trace 0

Run from the repository root. The ppsm libraries and ppsm_perfbench are built
in Release mode under .bench_build/ (CMake, perfbench/CMakeLists.txt); later
runs only re-check the build. The benchmark's report goes to stdout, and its
last line is one JSON object with the keys correct, attempted, failed and
metrics. `--workload all` runs every workload in turn, for reading by eye.
Exits non-zero, without a result line, when the sources are missing, the
build fails or the run fails.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
BINARY = BUILD_DIR / "ppsm_perfbench"
WORKLOADS = ["dbp-selective", "nd-fanout", "uk-sharded-socket"]
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds ppsm_perfbench; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"ppsm sources not found under {ROOT / 'src'}")
        return False
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "ppsm_perfbench"])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            log(f"build step failed ({result.returncode}): {' '.join(step)}")
            return False
    return BINARY.is_file()


def run_workload(workload, seed, seconds, trace):
    """Runs ppsm_perfbench once; returns (report lines, result) or None."""
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    lines = result.stdout.rstrip("\n").split("\n")
    if result.returncode != 0:
        sys.stderr.write(result.stdout)
        log(f"{workload}: ppsm_perfbench exited with {result.returncode}")
        return None
    try:
        parsed = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{workload}: last line is not a JSON result")
        return None
    return lines[:-1], parsed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not build():
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        outcome = run_workload(workload, args.seed, args.seconds, args.trace)
        if outcome is None:
            return 1
        report, results[workload] = outcome
        print("\n".join(report), flush=True)
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
