"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_arguments(workload):
    assert workloads.first_ops(workload, 7, 25) == workloads.first_ops(workload, 7, 25)
    assert workloads.first_ops(workload, 7, 25) != workloads.first_ops(workload, 8, 25)


def test_metric_and_workload_names():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_correctness(workload):
    rec = run.run_child(workload, checks.DEFAULT_SEED, "smoke", 0, ["--ops", "2"])
    assert len(rec["ops"]) == 2
    assert run.check_ops(workload, checks.DEFAULT_SEED, rec["ops"]) == [[], []]


# coincidence_probability on the first chi-scan row is about 7e-20: the
# check must catch a relative error there, not only on values near 1.
@pytest.mark.parametrize("workload,key", [("alpha-scan", "qber_direct"),
                                          ("chi-scan", "coincidence_probability")])
def test_reference_mismatch_is_reported(workload, key):
    rec = run.run_child(workload, checks.DEFAULT_SEED, "smoke", 0, ["--ops", "1"])
    op = rec["ops"][0]
    ref = dict(checks.load_reference(workload)[0])
    assert checks.check_op(op, ref) == []
    ref[key] = repr(float(ref[key]) * (1 + 10 * checks.REL_TOL))
    assert any(key in e for e in checks.check_op(op, ref))


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_reported_metrics_match_spec(trace, section):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "compare-decoy",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in _spec()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
