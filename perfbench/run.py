"""swapkd benchmark: CLI workloads end to end, and a traced run per layer.

Usage, from the repository root:
    python3 perfbench/run.py --workload chi-scan|alpha-scan|compare-decoy|all
                             [--seed N] [--seconds S] [--trace 0|1]

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
runs the same ops traced for half the time, replays them untraced for the
tracing overhead, and reports the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A full record (environment, counters, per-op times) is written to
.bench_work/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from typing import Dict, List, Optional

import checks
import workloads
from tracer import EVALUATE, LAYERS, SWAP

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 8
# Keep every run under 180 s: 8+1 setup probes plus one child, or two
# children when traced.
SETUP_TIMEOUT_S = 5.0
CHILD_TIMEOUT_S = 120.0
TRACED_CHILD_TIMEOUT_S = 80.0


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload: str, seed: int, tag: str, trace: int, extra: List[str],
           timeout: float = CHILD_TIMEOUT_S) -> Dict:
    work = os.path.join(WORK, f"{workload}-{seed}-{tag}-{os.getpid()}")
    out = work + ".json"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--work", work, "--out", out, "--trace", str(trace)] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"child failed with exit code {proc.returncode}:\n{proc.stderr}")
        with open(out) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.exists(out):
            os.remove(out)


_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import swapkd, swapkd.cli
sys.path.insert(0, sys.argv[1])
import workloads
workloads.first_ops(sys.argv[2], int(sys.argv[3]), 100)
print(time.perf_counter() - t0)
"""


def measure_setup(workload: str, seed: int, count: int) -> List[float]:
    """Fresh-process ``import swapkd`` plus input generation, ``count`` times."""
    times = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, HERE, workload, str(seed)],
                              cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def check_ops(workload: str, seed: int, ops: List[Dict]) -> List[List[str]]:
    refs = checks.load_reference(workload) if seed == checks.DEFAULT_SEED else []
    return [checks.check_op(op, refs[i] if i < len(refs) else None) for i, op in enumerate(ops)]


def counters(ops: List[Dict]) -> Dict:
    """Deterministic work counters over a list of ops."""
    n = len(ops)
    calls, swap_n_max, n_max_used = Counter(), Counter(), Counter()
    cache = {k: [0, 0] for k in ops[0]["cache"]} if ops else {}
    for op in ops:
        calls.update(op["calls"])
        swap_n_max.update(op["swap_n_max"])
        for k, (hits, misses) in op["cache"].items():
            cache[k][0] += hits
            cache[k][1] += misses
        if op["argv"][0] == "sweep":
            try:
                n_max_used[checks.parse_row(op["csv"])["n_max_used"] or "none"] += 1
            except (KeyError, ValueError):
                n_max_used["unreadable"] += 1
    out = {
        "ops": n,
        "pipeline_runs": calls[SWAP],
        "pipeline_runs_per_op": calls[SWAP] / n if n else 0.0,
        "evaluations": calls[EVALUATE],
        "evaluations_per_op": calls[EVALUATE] / n if n else 0.0,
        "swap_calls_by_n_max": dict(sorted(swap_n_max.items())),
        "cache": {k: {"hits": h, "misses": m} for k, (h, m) in cache.items()},
    }
    if n_max_used:
        out["n_max_used"] = dict(sorted(n_max_used.items()))
    return out


def environment(seed: int) -> Dict:
    import numpy as np

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=5).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _blas_threads() -> Optional[int]:
    """Thread count of the OpenBLAS that numpy loaded, left at its default."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> Dict:
    # The first probe may compile bytecode, which users pay once: discard it.
    # Import time drifts in phases of a few seconds on a shared machine, so
    # half the probes run before the ops and half after them.
    setup = measure_setup(workload, seed, SETUP_REPEATS // 2 + 1)[1:]
    rec = run_child(workload, seed, "e2e", 0, ["--seconds", str(seconds)])
    setup += measure_setup(workload, seed, SETUP_REPEATS - SETUP_REPEATS // 2)
    ops = rec["ops"]
    errors = check_ops(workload, seed, ops)
    walls = [op["wall_s"] for op in ops]
    metrics = {
        "ops_per_s": _metric(len(ops) / rec["loop_wall_s"], "1/s"),
        "op_s_p50": _metric(statistics.median(walls), "s"),
        "peak_rss_mb": _metric(rec["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }
    return {"workload": workload, "trace": 0, "metrics": metrics, "ops": ops, "errors": errors,
            "detail": {"op_samples": len(walls), "setup_samples": setup,
                       "loop_wall_s": rec["loop_wall_s"], "op_wall_s": walls,
                       "counters": counters(ops[:workloads.MIN_OPS[workload]])}}


def per_layer(workload: str, seed: int, seconds: float) -> Dict:
    traced = run_child(workload, seed, "traced", 1, ["--seconds", str(seconds / 2.0)],
                       TRACED_CHILD_TIMEOUT_S)
    ops = traced["ops"]
    replay = run_child(workload, seed, "replay", 0, ["--ops", str(len(ops))], TRACED_CHILD_TIMEOUT_S)
    errors = check_ops(workload, seed, ops)
    n = len(ops)
    calls, self_s = Counter(traced["calls"]), Counter(traced["self_s"])
    count = counters(ops)
    dense_bytes = sum(16 * (int(k) + 1) ** 8 * v for k, v in count["swap_calls_by_n_max"].items())
    layer_self = {layer: sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
                  for layer in LAYERS}
    wall = traced["loop_wall_s"]

    def hit_ratio(name: str) -> float:
        c = count["cache"][name]
        return c["hits"] / (c["hits"] + c["misses"]) if c["hits"] + c["misses"] else 0.0

    csv_bytes = sum(len(op["csv"].encode()) for op in ops)
    m = {}
    for name in ("swap.swap_conditional_state", "metrics.visibility",
                 "metrics.fourfold_coincidence", "fock.pair_mixer_unitary", "optimize.evaluate",
                 "rates.optimal_mu"):
        m[f"{name}.calls"] = _metric(calls[name], "count")
        m[f"{name}.self_s"] = _metric(self_s[name], "s")
    m["metrics.qber.self_s"] = _metric(self_s["metrics.qber"], "s")
    m["rates.secret_rate.calls"] = _metric(calls["rates.secret_rate"], "count")
    m["cli.main.self_s"] = _metric(self_s["cli.main"], "s")
    m["cli.csv_bytes"] = _metric(csv_bytes, "bytes")
    m["swap.dense_bytes_computed"] = _metric(dense_bytes, "bytes")
    m["swap.bsm_povm.misses"] = _metric(count["cache"]["bsm_povm"]["misses"], "count")
    m["swap.bsm_povm.hit_ratio"] = _metric(hit_ratio("bsm_povm"), "ratio")
    m["metrics.analyzer_povm.misses"] = _metric(count["cache"]["analyzer_povm"]["misses"], "count")
    m["metrics.analyzer_povm.hit_ratio"] = _metric(hit_ratio("analyzer_povm"), "ratio")
    m["optimize.pipeline_runs_per_op"] = _metric(count["pipeline_runs_per_op"], "count")
    m["optimize.evaluations_per_op"] = _metric(count["evaluations_per_op"], "count")
    m["optimize.n_max_used.max"] = _metric(
        max((int(k) for k in count["swap_calls_by_n_max"]), default=0), "photons")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = _metric(layer_self[layer], "s")
    m["trace.ops"] = _metric(n, "count")
    m["trace.wall_s"] = _metric(wall, "s")
    m["trace.unaccounted_s"] = _metric(wall - sum(layer_self.values()), "s")
    m["trace.overhead_s"] = _metric(wall - replay["loop_wall_s"], "s")
    return {"workload": workload, "trace": 1, "metrics": m, "ops": ops, "errors": errors,
            "detail": {"replay_wall_s": replay["loop_wall_s"], "counters": count}}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    res = (per_layer if trace else end_to_end)(workload, seed, seconds)
    failed = [i for i, e in enumerate(res["errors"]) if e]
    attempted = len(res["ops"])
    res["attempted"] = attempted
    res["failed"] = len(failed)
    res["failed_ops_ratio"] = len(failed) / attempted
    res["env"] = environment(seed)
    record = {k: v for k, v in res.items() if k != "ops"}
    record["failures"] = {str(i): res["errors"][i] for i in failed}
    record["op_argv"] = [" ".join(op["argv"]) for op in res["ops"]]
    path = os.path.join(WORK, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {workload} seed={seed} trace={trace} ops={attempted} "
          f"failed_ops_ratio={res['failed_ops_ratio']:.4g} record={os.path.relpath(path, ROOT)}")
    for name, m in res["metrics"].items():
        note = f"  (median of {res['detail']['op_samples']} ops)" if name == "op_s_p50" else ""
        print(f"{workload:>14}  {name:<40} {m['value']:>14.6g} {m['unit']}{note}")
    for i in failed[:5]:
        print(f"FAILED op {i} ({' '.join(res['ops'][i]['argv'])}): {'; '.join(res['errors'][i])}")
    print(json.dumps({"env": res["env"], "counters": res["detail"]["counters"]}))
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "swapkd", "cli.py")):
        print(f"error: no swapkd sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    if args.workload == "all":
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    else:
        metrics = results[0]["metrics"]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
