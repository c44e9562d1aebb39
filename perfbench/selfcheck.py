#!/usr/bin/env python3
"""Determinism self-check for the TP1 benchmark.

    python3 perfbench/selfcheck.py [--workloads tp1_spread16,tp1_hotspot]

Builds tp1_bench like run.py and, per workload, runs single passes (a pass is
the run's virtual reference) to check that:
  1. two runs with one seed give the same virtual digest and bit-identical
     virtual metrics (the digest covers every latency sample, every per-call
     sample and every counter delta);
  2. another seed gives a different digest;
  3. a traced run gives the same digest as an untraced one. The traced run
     is an untraced pass followed by a traced pass, and tp1_bench itself
     fails if the traced pass's virtual results differ, so the observer and
     the spans are shown to be passive.
Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys

import run

WORKLOADS = ("tp1_spread16", "tp1_home_large", "tp1_hotspot")
VIRTUAL_METRICS = ("virt_txn_per_s", "virt_latency_p50_ms", "virt_latency_p99_ms",
                   "commit_ratio")


def one_pass(binary, workload, seed, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", "0",
           "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        print(out.stderr, file=sys.stderr)
        raise SystemExit(f"selfcheck: {' '.join(cmd)} exited {out.returncode}")
    lines = out.stdout.strip().splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("virtual-digest "))
    return digest, json.loads(lines[-1])["metrics"]


def check(ok, message):
    print(("ok    " if ok else "FAIL  ") + message)
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    binary = run.build()
    passed = True
    for workload in args.workloads.split(","):
        digest, metrics = one_pass(binary, workload, args.seed, 0)
        again, metrics_again = one_pass(binary, workload, args.seed, 0)
        same = digest == again and all(
            metrics[m]["value"] == metrics_again[m]["value"] for m in VIRTUAL_METRICS)
        passed &= check(same, f"{workload}: seed {args.seed} repeats bit for bit ({digest})")
        other, _ = one_pass(binary, workload, args.seed + 1, 0)
        passed &= check(other != digest,
                        f"{workload}: seed {args.seed + 1} differs ({other})")
        traced, _ = one_pass(binary, workload, args.seed, 1)
        passed &= check(traced == digest,
                        f"{workload}: traced run matches the untraced one ({traced})")
    print("selfcheck " + ("passed" if passed else "FAILED"))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
