#!/usr/bin/env python3
"""Repository benchmark: build the driver, run one workload, print metrics.

    python3 perfbench/run.py --workload sim_long --seed 1 --seconds 20 --trace 0

Builds perfbench/ (CMake, Release) into $CARGO_TARGET_DIR or .bench_build,
then runs trials of the workload, each in a fresh process, until --seconds
have passed (--trace 1 runs one traced trial instead). Trial i gets the
seed derived from (--seed, i). A timing metric is the best value over the
trials (the trial least disturbed by other load on the host); any other
metric is the median over the trials.

stdout: one line per trial, the first trial's notes (the host and build
fingerprint among them), failed_frac, and as the last line one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. Any failed correctness gate, build error or missing metric
exits non-zero without printing a result.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_long", "sim_gc", "min_space", "wal_commit")
TRIAL_TIMEOUT_S = 170
# Address-space cap per trial. The largest workload peaks near 0.3 GB RSS;
# the cap turns a runaway simulation (e.g. the recirculation livelock of
# an undersized layout) into a failed trial instead of a host-wide OOM.
TRIAL_ADDRESS_SPACE = 4 << 30
MASK64 = (1 << 64) - 1
# Units of host-time metrics (txn_per_s is commits per host second).
TIMING_UNITS = ("s", "ms", "1/s")


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the driver; returns the binary path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def trial_seed(seed, index):
    """SplitMix64 of (seed, index): every trial owns its RNG stream."""
    z = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS,
                       (TRIAL_ADDRESS_SPACE, TRIAL_ADDRESS_SPACE))


def run_trial(binary, workload, seed, trace, work_dir, extra=()):
    """Runs one trial; returns (exit code, parsed report or None)."""
    command = [binary, workload, "--seed", str(seed), "--dir", work_dir,
               "--trace", "1" if trace else "0", *extra]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=TRIAL_TIMEOUT_S, preexec_fn=limit_memory)
    lines = proc.stdout.strip().splitlines()
    report = None
    if lines:
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            report = None
    return proc.returncode, report


def expected_metrics(trace):
    """(name, better) of every metric BENCHMARK.json lists for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["better"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def aggregate(values, unit, better):
    """Best of the trials for host timings, the median otherwise."""
    if unit in TIMING_UNITS:
        return min(values) if better == "lower" else max(values)
    return statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"perfbench: build failed: {error}")
        return 1
    work_dir = os.path.join(build_dir(), "work")
    os.makedirs(work_dir, exist_ok=True)
    expected = expected_metrics(args.trace)
    names = [name for name, _ in expected]

    # Trials continue while another one of the mean length still fits in
    # --seconds (always at least one; one only when tracing).
    reports = []
    start = time.monotonic()
    while not reports or (not args.trace and
                          (time.monotonic() - start) * (len(reports) + 1) /
                          len(reports) <= args.seconds):
        seed = trial_seed(args.seed, len(reports))
        try:
            code, report = run_trial(binary, args.workload, seed, args.trace,
                                     work_dir)
        except subprocess.TimeoutExpired:
            log(f"perfbench: trial {len(reports)} timed out")
            return 1
        if report is None or code != 0 or not report.get("correct"):
            log(f"perfbench: trial {len(reports)} (seed {seed}) failed with "
                f"exit code {code}")
            for failure in (report or {}).get("failures", []):
                log(f"  gate: {failure}")
            return 1
        missing = [n for n in names if n not in report["metrics"]]
        if missing:
            log(f"perfbench: trial output lacks metrics {missing}")
            return 1
        values = {n: report["metrics"][n]["value"] for n in names}
        print(f"trial {len(reports)} seed {seed}: " + json.dumps(values))
        reports.append(report)

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print("notes: " + json.dumps(reports[0]["notes"], sort_keys=True))
    print(f"failed_frac: {failed / attempted if attempted else 0.0} "
          f"({failed} of {attempted}); trials: {len(reports)}")
    metrics = {}
    for name, better in expected:
        unit = reports[0]["metrics"][name]["unit"]
        value = aggregate([r["metrics"][name]["value"] for r in reports],
                          unit, better)
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
