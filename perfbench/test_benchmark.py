#!/usr/bin/env python3
"""Self-test of the host-cost benchmark.

Run from the root of a checkout:

    python3 perfbench/test_benchmark.py [--seed N]

Builds the benchmark binary like run.py, then for every workload checks that
  - two runs of one seed print the same sim_digest, and a run at
    --threads 1 prints it too (the simulated outputs do not depend on
    the thread count);
  - every op passed its output check;
  - the binary reports exactly the end-to-end metrics of BENCHMARK.json
    untraced, and only declared per-layer metrics traced.
Exits 1 on the first failure.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build step of the benchmark itself)

SECONDS = "1"


def drive(binary, workload, seed, threads, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", SECONDS, "--trace", trace, "--threads",
           str(threads)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.splitlines()[-1])


def check(cond, msg):
    if not cond:
        print(f"FAIL: {msg}")
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    root = os.path.dirname(run.HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = run.build(build_dir)

    for w in (w["name"] for w in spec["workloads"]):
        first = drive(binary, w, args.seed, 2, "0")
        again = drive(binary, w, args.seed, 2, "0")
        serial = drive(binary, w, args.seed, 1, "0")
        traced = drive(binary, w, args.seed, 2, "1")
        digests = {r["sim_digest"] for r in (first, again, serial, traced)}
        check(len(digests) == 1,
              f"{w}: sim_digest differs across runs/threads: {digests}")
        for r in (first, again, serial, traced):
            check(r["correct"] and r["failed"] == 0,
                  f"{w}: {r['failed']} of {r['attempted']} ops failed")
        check(set(first["e2e"]) == e2e,
              f"{w}: end-to-end metrics {sorted(first['e2e'])}")
        extra = set(traced["layers"]) - per_layer
        check(not extra, f"{w}: undeclared per-layer metrics {extra}")
        check(traced["layers"], f"{w}: traced run reported no layers")
        print(f"ok {w}: sim_digest {first['sim_digest']} at threads 2/2/1,"
              f" {len(traced['layers'])} per-layer metrics")


if __name__ == "__main__":
    main()
