#!/usr/bin/env python3
"""Build and run the host-cost benchmark of the RaPiD reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train|serve|chip --seed N \
        --seconds S --trace 0|1 [--threads T]

The first run configures and builds perfbench/ (the repository's
libraries plus the benchmark binary) in Release mode into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed.
Build output goes to stderr. The binary's report goes to stdout, and the
last stdout line is the result: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.

An untraced run is split into PROCESSES processes of S / PROCESSES
seconds each, and each end-to-end metric is the median of theirs. How
fast one process runs depends on where its memory lands: on a shared
4-vCPU host the rounds of one process vary by about 3% while whole
processes differ by about 10%, so several processes average that out.
A traced run is one process of S seconds.
End-to-end times and rates are in reference-host units: each is scaled
by a host-speed kernel timed on every worker thread just before and just
after it. The report lines print the raw host values and the measured
host speed too, and the traced run reports the speed as host.speed.
A per-layer metric reads 0 on a workload that does not call that layer.
With --trace 1 the spans are written to <build dir>/trace-<workload>-
<seed>.json.

Exits non-zero without a result when the build or the run fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_JOBS = "4"
PROCESSES = 4


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
           "-j", BUILD_JOBS]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def drive(cmd):
    """Run the binary once; print its report and return its result."""
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"perfbench exited with code {run.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("perfbench printed no result")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--threads", type=int, default=2)
    args = ap.parse_args()

    spec_path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", args.trace, "--threads", str(args.threads)]
    if args.trace == "1":
        raws = [drive(cmd + ["--seconds", str(args.seconds), "--trace-out",
                             os.path.join(build_dir, f"trace-{args.workload}"
                                          f"-{args.seed}.json")])]
        wanted, measured = spec["per_layer"], raws[0]["layers"]
    else:
        seconds = str(args.seconds / PROCESSES)
        raws = [drive(cmd + ["--seconds", seconds])
                for _ in range(PROCESSES)]
        wanted = spec["end_to_end"]
        measured = {name: statistics.median(r["e2e"][name] for r in raws)
                    for name in raws[0]["e2e"]}
    metrics = {}
    # Every process runs the same inputs, so all must agree on the
    # simulated outputs.
    correct = (all(r["correct"] for r in raws) and
               len({r["sim_digest"] for r in raws}) == 1)
    for m in wanted:
        value = measured.get(m["name"])
        if value is None:
            if args.trace == "0":
                fail(f"perfbench did not report {m['name']}")
            value = 0.0
        if not math.isfinite(value):
            correct = False
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in raws),
                      "failed": sum(r["failed"] for r in raws),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
