#!/usr/bin/env python3
"""The benchmark's own test: its work counts repeat exactly at one seed.

    python3 perfbench/test_determinism.py [--workload <name>] [--seed <n>]

For each workload, runs the traced run (which replays a fixed number of
requests from one thread) twice at `--seed` and once at `--seed + 1`,
and compares the `work:` lines: SAT decisions and clauses, candidate
rows, rows decided and reused, answer-path counts, WAL bytes and wire
bytes. They must be identical at one seed and differ under the other,
and every run must report correct answers. Exits 1 on any failure.
Run from the root of a checkout.
"""

import argparse
import json
import subprocess
import sys

from run import WORKLOADS


def traced_run(workload, seed):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    out = subprocess.run(command, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    work = [line for line in lines if line.startswith("work:")]
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode != 0 or not result.get("correct") or len(work) != 1:
        raise AssertionError("%s seed %d: exit %d, result %s\n%s" %
                             (workload, seed, out.returncode, lines[-1:],
                              out.stderr[-2000:]))
    return work[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    failures = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        first = traced_run(workload, args.seed)
        again = traced_run(workload, args.seed)
        other = traced_run(workload, args.seed + 1)
        same = first == again
        differs = first != other
        print("%-15s %s  same-seed repeat: %s  other seed differs: %s" %
              (workload, first, "ok" if same else "FAIL",
               "ok" if differs else "FAIL"))
        if not same:
            print("  seed %d again: %s" % (args.seed, again))
        failures += (not same) + (not differs)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
