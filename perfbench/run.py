#!/usr/bin/env python3
"""Run one workload of the ADEPT end-to-end benchmark and print its result.

    python3 perfbench/run.py --workload design_r1 --seed 1 --seconds 40 --trace 0

Builds perfbench/ (which builds the library from the repository sources) in
.bench_build/perfbench on first use, runs adept_perfbench, checks its
outputs and prints, as the last line of stdout, one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}}}

--trace 0 reports every end-to-end metric of BENCHMARK.json. It runs the
binary as PROCESSES (3) processes in turn, each for a third of --seconds, pools
their per-call samples and reports medians, so that the state one process
happens to start in (heap layout, where its kernel threads land) is sampled
several times per run; the serve staircase carries on from one process to
the next. --trace 1 runs one process with one untraced and one traced pass
and reports every per-layer metric.
The lines before it give the environment stamp and the run's details.
perfbench/README.md maps every metric to its layer and workload.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170  # for all processes of a run together
BUILD_TIMEOUT_S = 850
PROCESSES = 3



def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die(f"no library sources under {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--target", "adept_perfbench", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(os.path.join(BUILD, "build.log"), "w") as log:
        for cmd in steps:
            try:
                subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                               check=True, timeout=BUILD_TIMEOUT_S)
            except (subprocess.SubprocessError, OSError) as e:
                die(f"build failed ({e}); see {log.name}")
    return os.path.join(BUILD, "adept_perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (subprocess.SubprocessError, OSError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    workdir = os.path.join(BUILD, "run")
    os.makedirs(workdir, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    def run_binary(index, seconds, extra=()):
        report_path = os.path.join(workdir, f"report_{args.workload}_{index}.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--workdir", workdir, "--out", report_path, *extra]
        try:
            subprocess.run(cmd, check=True,
                           timeout=max(1.0, deadline - time.monotonic()))
            with open(report_path) as f:
                return json.load(f)
        except (subprocess.SubprocessError, OSError, ValueError) as e:
            die(f"benchmark run failed: {e}")

    t0 = time.monotonic()
    if args.trace:
        reports = [run_binary(0, args.seconds)]
        values = dict(reports[0]["layer"])
        sys.path.insert(0, HERE)
        import attribute
        try:
            values.update(attribute.attribute(reports[0]["trace_file"],
                                              sorted(set(reports[0]["plan_step_kinds"]))))
        except ValueError as e:
            die(f"trace attribution failed: {e}")
    else:
        reports = []
        for i in range(PROCESSES):
            stair = reports[-1]["stair_rate"] if reports else 0
            reports.append(run_binary(i, args.seconds / PROCESSES,
                                      ["--stair-rate", repr(stair)]))
        values = {}
        for name in reports[0]["samples"]:
            pooled = [v for r in reports for v in r["samples"][name]]
            values[name] = max(pooled) if name == "peak_rss_mb" else statistics.median(pooled)

    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            die(f"metric {m['name']} missing or not finite: {v!r}")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    attempted = sum(int(r["attempted"]) for r in reports)
    failed = sum(int(r["failed"]) for r in reports)
    failures = [f for r in reports for f in r["failures"]]
    # The same seed must give the same searched design in every process.
    digests = [r["digest"] for r in reports]
    for d in digests[1:]:
        attempted += 1
        if d != digests[0]:
            failed += 1
            failures.append(f"searched topology digest {d} differs from {digests[0]}")

    env = dict(reports[0]["env"], git_sha=git_sha())
    print("env " + json.dumps(env, sort_keys=True))
    retrains = sum(len(r["samples"]["train_samples_per_s"]) for r in reports)
    print(f"run workload={args.workload} seed={args.seed} processes={len(reports)} "
          f"retrains={retrains} digest={digests[0]} wall_s={time.monotonic() - t0:.1f}")
    for r in reports:
        print("ladder " + json.dumps(r["ladder"]))
    for failure in failures:
        print(f"check failed: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
