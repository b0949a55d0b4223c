"""Run one workload's ops through ``swapkd.cli.main`` in this fresh process.

Usage: python3 perfbench/child.py --workload W --seed N --work DIR --out FILE
       [--seconds S | --ops K] [--trace 0|1]

Runs whole rounds of the plan, one op after another, until at least S
seconds have passed and at least the workload's ``MIN_OPS`` ops are done
(or exactly K ops with --ops).  Each op's CSV is read back and deleted.  Writes one JSON record:
per-op wall time, exit code, CSV text and work counters, the peak RSS of
this process, and, when traced, per-function calls and self times.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout

import workloads
from tracer import Tracer

CACHES = {"bsm_povm": ("swapkd.swap", "_balanced_pair_povm"),
          "analyzer_povm": ("swapkd.metrics", "_analyzer_povms")}


def _cache_info():
    """(hits, misses) per POVM cache; (0, 0) for a cache the program lacks."""
    out = {}
    for name, (mod_name, attr) in CACHES.items():
        fn = getattr(sys.modules[mod_name], attr, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[name] = (info.hits, info.misses) if info else (0, 0)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    from swapkd import cli

    tracer = Tracer(timed=bool(args.trace))
    tracer.install()
    os.makedirs(args.work, exist_ok=True)

    ops = []
    t_start = time.perf_counter()
    round_index = 0
    while True:
        for argv in workloads.round_ops(args.workload, args.seed, round_index):
            if args.ops is not None and len(ops) >= args.ops:
                break
            prefix = f"op{len(ops)}"
            full = argv + ["--output-dir", args.work, "--output-prefix", prefix]
            calls0, n_max0 = tracer.snapshot()
            cache0 = _cache_info()
            sink = io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(sink):
                try:
                    code = cli.main(full)
                except SystemExit as exc:  # argparse rejected the command line
                    code = exc.code
            t1 = time.perf_counter()
            cache1 = _cache_info()
            calls1, n_max1 = tracer.snapshot()
            csv_path = os.path.join(args.work, prefix + ".csv")
            csv_text = ""
            if os.path.exists(csv_path):
                with open(csv_path) as fh:
                    csv_text = fh.read()
                os.remove(csv_path)
            manifest = os.path.join(args.work, prefix + "_manifest.json")
            if os.path.exists(manifest):
                os.remove(manifest)
            ops.append({
                "argv": argv,
                "round": round_index,
                "wall_s": t1 - t0,
                "exit_code": code,
                "stdout": sink.getvalue(),
                "csv": csv_text,
                "calls": dict(calls1 - calls0),
                "swap_n_max": {str(k): v for k, v in (n_max1 - n_max0).items()},
                "cache": {k: [cache1[k][i] - cache0[k][i] for i in (0, 1)] for k in cache1},
            })
        round_index += 1
        if args.ops is not None:
            if len(ops) >= args.ops:
                break
        elif time.perf_counter() - t_start >= args.seconds and len(ops) >= workloads.MIN_OPS[args.workload]:
            break
    wall = time.perf_counter() - t_start

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "loop_wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops,
    }
    if args.trace:
        record["calls"] = dict(tracer.calls)
        record["self_s"] = dict(tracer.self_s)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
