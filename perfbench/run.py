#!/usr/bin/env python3
"""Whole-run benchmark of libmnsim (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (its own CMake project,
compiling ../src) into .bench_build/perfbench, then runs cold jobs of the
workload, each in a fresh mnsim_bench process, until S seconds have
passed. Every job checks its own outputs; all jobs of one run must also
produce the same output digest. Prints each metric with its unit, then,
as the last line, one JSON object: end-to-end metrics (medians over the
jobs) with --trace 0, per-layer metrics with --trace 1.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"
BINARY = BUILD / "mnsim_bench"
INPUTS = HERE / "inputs"
# Names and units of the metrics; the run must print exactly these.
SPEC = ROOT / "BENCHMARK.json"

# Workload -> (name, unit) of its throughput as printed for people; the
# JSON carries it as work_per_s so every workload reports every metric.
WORKLOADS = {
    "dse-fault-lenet": ("points_per_s", "points/s"),
    "dse-cycle-vgg16": ("points_per_s", "points/s"),
    "mc-accuracy": ("samples_per_s", "samples/s"),
    "transient-rc": ("sim_ns_per_s", "ns/s"),
}

MIN_JOBS = 3          # untraced jobs per run, whatever --seconds says
MIN_TRACED_JOBS = 2   # traced and untraced jobs each, in a --trace 1 run
JOB_TIMEOUT_S = 120
BUILD_JOBS = "2"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures and brings the runner up to date (a no-op build when
    nothing changed). The compiler's temporary files stay in the build
    directory too."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "mnsim_bench",
                    "-j", BUILD_JOBS], check=True, stdout=sys.stderr, env=env)


def run_job(workload, seed, traced):
    cmd = [str(BINARY), workload, "--seed", str(seed), "--inputs", str(INPUTS)]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        job = json.loads(lines[-1])
    except (IndexError, ValueError):
        job = {"ok": False, "errors": ["no result: " + proc.stderr.strip()]}
    if proc.returncode != 0:
        job["ok"] = False
        job.setdefault("errors", []).append(
            "exit code %d: %s" % (proc.returncode, proc.stderr.strip()))
    job["traced"] = traced
    return job


def run_jobs(workload, seed, seconds, trace):
    """Cold jobs back to back while the next one is expected to end within
    `seconds`. A traced run alternates traced and untraced jobs so their
    walls compare."""
    jobs = []
    start = time.monotonic()
    while True:
        traced = trace and len(jobs) % 2 == 0
        job_start = time.monotonic()
        job = run_job(workload, seed, traced)
        jobs.append(job)
        if not job["ok"]:
            return jobs
        n_traced = sum(j["traced"] for j in jobs)
        enough = (n_traced >= MIN_TRACED_JOBS and
                  len(jobs) - n_traced >= MIN_TRACED_JOBS) if trace \
            else len(jobs) >= MIN_JOBS
        now = time.monotonic()
        if enough and now + (now - job_start) - start > seconds:
            return jobs


def median_of(jobs, key):
    return statistics.median(key(j) for j in jobs)


def main():
    # subprocess.run kills and reaps its child when the wait is interrupted
    # by an exception, so turning SIGTERM into one stops the running job.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed:", e)
        return 1

    jobs = run_jobs(args.workload, args.seed, args.seconds, args.trace == 1)
    failed = [j for j in jobs if not j["ok"]]
    for j in failed:
        log("perfbench: job failed:", "; ".join(j.get("errors", [])))
    digests = {j.get("digest") for j in jobs}
    if len(digests) > 1:
        log("perfbench: jobs disagree on the output digest:", sorted(digests))
    correct = not failed and len(digests) == 1
    result = {"correct": correct, "attempted": len(jobs),
              "failed": len(failed), "metrics": {}}
    if failed:
        print(json.dumps(result))
        return 1

    plain = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    work_name, work_unit = WORKLOADS[args.workload]
    print("workload %s, seed %d: %d jobs (%d traced), digest %s"
          % (args.workload, args.seed, len(jobs), len(traced), digests.pop()))

    if args.trace:
        metrics = {}
        for name in sorted(traced[0]["layers"]):
            metrics[name] = median_of(traced, lambda j: j["layers"][name])
        metrics["obs.overhead_frac"] = (
            median_of(traced, lambda j: j["wall_s"]) /
            median_of(plain, lambda j: j["wall_s"]) - 1.0)
    else:
        failed_frac = median_of(plain, lambda j: j["ops_failed"] / j["ops"])
        metrics = {
            "setup_s": median_of(plain, lambda j: j["setup_s"]),
            "wall_s": median_of(plain, lambda j: j["wall_s"]),
            "work_per_s": median_of(plain, lambda j: j["work"] / j["wall_s"]),
            "completed_frac": 1.0 - failed_frac,
            "peak_rss_mb": median_of(plain, lambda j: j["peak_rss_mb"]),
        }
        print("  %-32s %14.6g %s" % (work_name, metrics["work_per_s"], work_unit))
        print("  %-32s %14.6g %s" % ("failed_frac", failed_frac, "fraction"))
    if set(metrics) != set(units):
        log("perfbench: metrics differ from %s:" % SPEC.name,
            sorted(set(metrics) ^ set(units)))
        return 1
    for name, value in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, units[name]))
        result["metrics"][name] = {"value": value, "unit": units[name]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
