"""Write the reference CSVs the correctness gate compares against.

Usage, from the repository root:
    python3 perfbench/make_reference.py [--workload W] [--ops K]

Runs the first K ops of each workload's plan at the default seed, untimed,
and stores each op's arguments and CSV row in perfbench/reference/<W>.csv.
Regenerate only when the plan changes or a change to the program's numbers
is intended and reviewed.
"""

from __future__ import annotations

import argparse
import os

import checks
import run
import workloads

REFERENCE_OPS = {"chi-scan": 60, "alpha-scan": 80, "compare-decoy": 24}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--ops", type=int)
    args = ap.parse_args()
    os.makedirs(run.WORK, exist_ok=True)
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    for workload in [args.workload] if args.workload else workloads.WORKLOADS:
        count = args.ops or REFERENCE_OPS[workload]
        rec = run.run_child(workload, checks.DEFAULT_SEED, "reference", 0, ["--ops", str(count)])
        lines = []
        for i, op in enumerate(rec["ops"]):
            errors = checks.check_op(op, None)
            if errors:
                raise SystemExit(f"{workload} op {i} fails its invariants: {errors}")
            header, row = op["csv"].strip().splitlines()
            if not lines:
                lines.append("op,argv," + header)
            lines.append(f"{i},{' '.join(op['argv'])},{row}")
        path = os.path.join(checks.REFERENCE_DIR, f"{workload}.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {len(rec['ops'])} rows to {os.path.relpath(path, run.ROOT)}")


if __name__ == "__main__":
    main()
