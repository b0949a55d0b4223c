import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import swapkd
import swapkd.cli as cli_module
import swapkd.optimize as optimize_module
from swapkd.cli import (
    COMPARE_COLUMNS,
    OPTIMIZE_COLUMNS,
    ROW_COLUMNS,
    ConfigError,
    build_parser,
    main,
    parse_grid,
)
from swapkd.detectors import DEFAULT_CONSTRAINT
from swapkd.optimize import Comparison, OptimumPoint, SweepRow

FAST = ["--n-max", "2"]


def read_csv(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]
    return header, rows


def run(args, capsys=None):
    code = main(args)
    return code


# ---------------------------------------------------------------------------
# grid parsing


def test_parse_grid_step_form():
    values = parse_grid("0:50:2.5")
    assert len(values) == 21
    assert values[0] == 0.0
    assert values[-1] == pytest.approx(50.0)
    assert values[1] == pytest.approx(2.5)


def test_parse_grid_step_excludes_off_lattice_stop():
    assert parse_grid("0:9:2.5") == pytest.approx([0.0, 2.5, 5.0, 7.5])


def test_parse_grid_log_and_lin():
    values = parse_grid("1e-4:1e-2:3:log")
    assert values == pytest.approx([1e-4, 1e-3, 1e-2])
    values = parse_grid("0:1:5:lin")
    assert values == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_parse_grid_lists_and_scalars():
    assert parse_grid("0.1,0.2,0.3") == pytest.approx([0.1, 0.2, 0.3])
    assert parse_grid(0.25) == [0.25]
    assert parse_grid([1, 2]) == [1.0, 2.0]


def test_parse_grid_rejects_bad_specs():
    for bad in ("5:1:1", "1:2:0", "1:2:3:cubic", "1:2:3:4:5", "", ",", " , ", "1e-4:1e-2:0:log"):
        with pytest.raises(ConfigError):
            parse_grid(bad)
    with pytest.raises(ConfigError):
        parse_grid("-1:2:3:log")


def test_parse_grid_rejects_values_that_are_not_numbers():
    """A grid value that does not convert is invalid input (exit 2), not a
    ValueError from inside the run."""
    for bad in ("a,b", "0:x:1", "1:2:x:log", "1:2:2.5:lin", ["a"], [None]):
        with pytest.raises(ConfigError, match="values must be numbers"):
            parse_grid(bad)


def test_parse_grid_rejects_bools_and_other_types():
    """A bool is not a number, alone or in a list, and any other type that is
    not a string, a number or a list is named in the message."""
    for bad in (True, [True, False], [0.5, False]):
        with pytest.raises(ConfigError, match="values must be numbers"):
            parse_grid(bad)
    with pytest.raises(ConfigError, match="not dict"):
        parse_grid({"a": 1})


SWEEP_POINT = ["sweep", "--chi-grid", "0.05", "--eta0-grid", "0.3", "--pdc", "1e-5"]
DECOY_POINT = ["compare-decoy", "--alpha-d-grid", "10", "--eta0", "0.2", "--pdc", "1.8e-5"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["crossover", "--eta0", "0.3", "--pdc", "1e-5", "--alpha-max", "inf"], "finite"),
        (SWEEP_POINT + ["--alpha-d-grid", "0:inf:1"], "finite"),
        (SWEEP_POINT + ["--alpha-d-grid", "0:nan:1"], "finite"),
        (["evaluate", "--chi", "0.05", "--eta0", "0.3", "--alpha-d", "inf", "--pdc", "1e-5"],
         "alpha_d_db"),
        (SWEEP_POINT + ["--alpha-d-grid", "0:10:1e-300"], "points"),
        (SWEEP_POINT + ["--alpha-d-grid", "0:10:1000000000:lin"], "points"),
        (SWEEP_POINT + ["--alpha-d-grid", "1:10:1000000000:log"], "points"),
        (DECOY_POINT + ["--nu", "nan"], "nu"),
        (DECOY_POINT + ["--nu", "inf"], "nu"),
        (DECOY_POINT + ["--mu", "inf"], "mu"),
        (DECOY_POINT + ["--mu", "0.10000001"], "mu - nu"),
        (DECOY_POINT + ["--chi", "0.5"], "chi 0.5"),
        (["crossover", "--eta0", "0.2", "--pdc", "1.8e-5", "--nu", "nan"], "nu"),
    ],
    ids=["crossover-inf", "step-inf", "step-nan", "evaluate-inf", "step-oversized",
         "lin-oversized", "log-oversized", "decoy-nu-nan", "decoy-nu-inf", "decoy-mu-inf",
         "decoy-mu-next-to-nu", "decoy-chi-above-cap", "crossover-nu-nan"],
)
def test_non_finite_or_oversized_input_is_a_configuration_error(args, message, tmp_path, capsys):
    assert main(args + ["--output-dir", str(tmp_path)] + FAST) == 2
    assert message in json.loads(capsys.readouterr().out)["error"]["message"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [["evaluate", "--chi", "0.05", "--eta0", "0.3", "--alpha-d", "5", "--pdc", "1e-5"],
     ["figure-data", "--figure", "fig3"]],
    ids=["evaluate", "figure-data"],
)
def test_cutoff_above_the_cap_is_a_configuration_error(args, tmp_path, capsys):
    """--n-max 21, one above cli.MAX_N_MAX, exits 2 before anything is built
    and writes nothing."""
    assert main(args + ["--n-max", "21", "--output-dir", str(tmp_path)]) == 2
    assert "n_max must be at most 20" in json.loads(capsys.readouterr().out)["error"]["message"]
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_writes_pinned_header(tmp_path):
    out = str(tmp_path)
    code = main(
        ["evaluate", "--chi", "0.05", "--eta0", "0.3", "--alpha-d", "5",
         "--pdc", "1e-5", "--output-dir", out] + FAST
    )
    assert code == 0
    header, rows = read_csv(os.path.join(out, "evaluate.csv"))
    assert header == ROW_COLUMNS
    assert len(rows) == 1
    row = rows[0]
    assert float(row["chi"]) == 0.05
    assert row["converged"] == "true"
    assert row["error"] == ""
    # 12 significant digits in scientific notation
    assert "e" in row["r_sec"]
    mantissa = row["r_sec"].split("e")[0]
    assert len(mantissa.replace("-", "").replace(".", "")) == 12


def test_csv_writes_negative_zero_as_zero(tmp_path):
    assert cli_module._fmt(-0.0) == cli_module._fmt(0.0) == "0.00000000000e+00"
    out = str(tmp_path)
    code = main(
        ["evaluate", "--chi", "0", "--eta0", "0.3", "--alpha-d", "10",
         "--pdc", "1e-5", "--output-dir", out] + FAST
    )
    assert code == 0
    with open(os.path.join(out, "evaluate.csv")) as fh:
        assert "-0.0" not in fh.read()


def test_evaluate_zero_rate_leaves_log_empty(tmp_path):
    out = str(tmp_path)
    code = main(
        ["evaluate", "--chi", "0.01", "--eta0", "0.1", "--alpha-d", "50",
         "--pdc", "1e-3", "--output-dir", out] + FAST
    )
    assert code == 0
    _, rows = read_csv(os.path.join(out, "evaluate.csv"))
    assert float(rows[0]["r_sec"]) == 0.0
    assert rows[0]["log10_r_sec"] == ""


@pytest.mark.parametrize("args, stem, column", [
    (["evaluate", "--chi", "1e-9", "--eta0", "0.1", "--alpha-d", "10", "--pdc", "0"],
     "evaluate", "qber_direct"),
    (["compare-decoy", "--alpha-d-grid", "10", "--eta0", "0.1", "--pdc", "0", "--chi", "1e-9",
      "--n-max", "2"], "compare_decoy", "r_es"),
    (["sweep", "--chi-grid", "1e-9,1e-3", "--eta0-grid", "0.1", "--alpha-d-grid", "10",
      "--pdc", "0"], "sweep", "qber_direct"),
], ids=["evaluate", "compare-decoy", "sweep"])
def test_noiseless_single_pair_rounding_is_no_error(args, stem, column, tmp_path):
    """Without dark counts the one-pair-per-source wrong count is exactly 0
    in the model, and its rounding of either sign must not turn into a
    negative QBER that exits 2 as a configuration error."""
    assert main(args + ["--output-dir", str(tmp_path)]) == 0
    _, rows = read_csv(tmp_path / f"{stem}.csv")
    assert rows and all(float(row[column]) >= 0.0 and not row.get("error") for row in rows)


def test_evaluate_requires_parameters(tmp_path, capsys):
    code = main(["evaluate", "--chi", "0.05", "--output-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "ConfigError"


def test_evaluate_rejects_both_dark_count_modes(tmp_path, capsys):
    code = main(
        ["evaluate", "--chi", "0.05", "--eta0", "0.3", "--alpha-d", "5",
         "--pdc", "1e-5", "--constraint", "--output-dir", str(tmp_path)]
    )
    assert code == 2
    assert "not both" in capsys.readouterr().out
    code = main(
        ["evaluate", "--chi", "0.1", "--eta0", "0.3", "--alpha-d", "10",
         "--output-dir", str(tmp_path)]
    )
    assert code == 2
    assert "one of p_dc or constraint is required" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


EVALUATE_AT_10_DB = [
    "evaluate", "--chi", "0.1", "--eta0", "0.3", "--alpha-d", "10", "--constraint"
]
COMPARE_DECOY_AT_10_DB = [
    "compare-decoy", "--alpha-d-grid", "10", "--eta0", "0.2", "--pdc", "1.8e-5"
]
SWEEP_AT_10_DB = [
    "sweep", "--chi-grid", "0.1", "--eta0-grid", "0.3", "--alpha-d-grid", "10", "--constraint"
]


@pytest.mark.parametrize(
    "command, kappa",
    [
        pytest.param(EVALUATE_AT_10_DB, "nan", id="evaluate"),
        pytest.param(COMPARE_DECOY_AT_10_DB, "nan", id="compare-decoy"),
        pytest.param(EVALUATE_AT_10_DB, "inf", id="evaluate-inf"),
        pytest.param(COMPARE_DECOY_AT_10_DB, "inf", id="compare-decoy-inf"),
        pytest.param(SWEEP_AT_10_DB, "0.5", id="sweep-below-1"),
        pytest.param(SWEEP_AT_10_DB, "nan", id="sweep"),
    ],
)
def test_nan_kappa_is_a_configuration_error(tmp_path, capsys, command, kappa):
    """A kappa that is not a finite number >= 1 exits 2 and writes no CSV."""
    code = main(command + ["--kappa", kappa, "--output-dir", str(tmp_path)] + FAST)
    assert code == 2
    assert f"kappa {kappa}" in capsys.readouterr().out
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "command",
    [
        pytest.param(EVALUATE_AT_10_DB, id="evaluate"),
        pytest.param(["sweep", "--chi-grid", "0.05", "--eta0-grid", "0.3",
                      "--alpha-d-grid", "0,10", "--constraint"], id="sweep"),
        pytest.param(["optimize", "--alpha-d-grid", "10", "--constraint"], id="optimize"),
    ],
)
@pytest.mark.parametrize(
    "flag", ["--constraint-a=-1e-7", "--constraint-a=nan", "--constraint-b=nan"],
    ids=["negative-a", "nan-a", "nan-b"],
)
def test_bad_dark_count_constraint_is_a_configuration_error(tmp_path, capsys, command, flag):
    """A dark-count fit that is not finite, or has a negative floor, exits 2
    before any row is written."""
    code = main(command + [flag, "--output-dir", str(tmp_path)] + FAST)
    assert code == 2
    assert "need finite a >= 0 and finite b" in capsys.readouterr().out
    assert not list(tmp_path.glob("*.csv"))


def test_numerical_failure_exit_code(tmp_path, capsys):
    code = main(
        ["evaluate", "--chi", "0.2", "--eta0", "1.0", "--alpha-d", "0",
         "--pdc", "0", "--n-max", "1", "--tol", "1e-12",
         "--output-dir", str(tmp_path)]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "TruncationError"
    # a blind, noiseless link has no coincidences, so no row can be written
    code = main(["compare-decoy", "--alpha-d-grid", "10", "--eta0", "0", "--pdc", "0",
                 "--output-dir", str(tmp_path)] + FAST)
    assert code == 3
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "NoCoincidenceError"
    assert list(tmp_path.glob("*.csv")) == []


def test_dark_count_exponent_beyond_float_range_is_a_constraint_violation(tmp_path, capsys):
    """p_dc = a exp(b eta0) past the float range violates the constraint like
    any p_dc >= 1: evaluate exits 2, and a sweep writes an error cell per row."""
    code = main(EVALUATE_AT_10_DB + ["--constraint-b", "1e4", "--output-dir", str(tmp_path)])
    assert code == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "ConstraintViolationError",
                   "message": "constraint p_dc = inf >= 1 at eta0 = 0.3"}
    out = tmp_path / "sweep"
    code = main(["sweep", "--chi-grid", "0.1", "--eta0-grid", "0.01,0.3", "--alpha-d-grid",
                 "10", "--constraint", "--constraint-b", "3000", "--output-dir", str(out)])
    assert code == 0
    _, rows = read_csv(out / "sweep.csv")
    assert [row["error"].split(":")[0] for row in rows] == ["ConstraintViolationError"] * 2
    assert "p_dc = inf" in rows[1]["error"]
    manifest = json.loads((out / "sweep_manifest.json").read_text())
    assert manifest["results"] == {"failed_points": 2, "points": 2}


def test_value_error_while_computing_propagates(tmp_path, monkeypatch):
    """Exit 2 is for invalid input only: a ValueError raised while computing
    a valid point keeps its traceback."""

    def broken(r_sift, qber, kappa):
        raise ValueError(f"qber {qber!r} outside [0, 0.5]")

    monkeypatch.setattr(optimize_module, "secret_rate", broken)
    with pytest.raises(ValueError, match="outside"):
        main(EVALUATE_AT_10_DB + FAST + ["--output-dir", str(tmp_path)])
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize(
    "key, value, message",
    [("n_max", 2.5, "an integer"), ("kappa", [1.22], "a number"),
     ("constraint", "yes", "true or false"), ("output_prefix", 3, "a string")],
    ids=["fractional-n_max", "list-kappa", "string-constraint", "number-prefix"],
)
def test_config_value_of_the_wrong_type_is_a_configuration_error(
    tmp_path, capsys, key, value, message
):
    """A config-file value whose type does not fit its key exits 2; none is
    converted, so 2.5 never runs as cutoff 2."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chi": 0.1, "eta0": 0.3, "alpha_d": 10.0, "p_dc": 1e-5, key: value}))
    assert main(["evaluate", "--config", str(cfg), "--output-dir", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ConfigError" and key in err["message"] and message in err["message"]
    assert list(tmp_path.glob("*.csv")) == []


def test_bool_grid_in_a_config_file_is_a_configuration_error(tmp_path, capsys):
    """"alpha_d_grid": true does not run at 1 dB: sweep exits 2 and writes
    nothing, as every scalar key does for a bool."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chi_grid": 0.1, "eta0_grid": 0.3, "alpha_d_grid": True,
                               "p_dc": 1e-5}))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--output-dir", str(out)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "ConfigError" and "values must be numbers" in err["message"]
    assert not out.exists() or list(out.iterdir()) == []


def test_programming_errors_propagate(tmp_path, monkeypatch):
    """Exit 3 is for numerical failures of the model; a TypeError or an
    ArithmeticError keeps its traceback."""
    for error in (TypeError, ZeroDivisionError, OverflowError):

        def broken(s):
            raise error("unsupported operand")

        monkeypatch.setattr(cli_module, "evaluate", broken)
        with pytest.raises(error):
            main(["evaluate", "--chi", "0.05", "--eta0", "0.3", "--alpha-d", "5",
                  "--pdc", "1e-5", "--output-dir", str(tmp_path)])


# ---------------------------------------------------------------------------
# sweep and manifest round-trip


def test_sweep_manifest_round_trip(tmp_path):
    out1 = str(tmp_path / "run1")
    code = main(
        ["sweep", "--chi-grid", "0.02,0.05", "--eta0-grid", "0.3",
         "--alpha-d-grid", "0:10:5", "--pdc", "1e-5",
         "--workers", "1", "--output-dir", out1] + FAST
    )
    assert code == 0
    header, rows = read_csv(os.path.join(out1, "sweep.csv"))
    assert header == ROW_COLUMNS
    assert len(rows) == 6
    manifest = json.loads(Path(out1, "sweep_manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["command"] == "sweep"
    assert manifest["config"]["alpha_d_grid"] == [0.0, 5.0, 10.0]
    assert manifest["outputs"] == ["sweep.csv"]

    out2 = str(tmp_path / "run2")
    code = main(
        ["sweep", "--config", os.path.join(out1, "sweep_manifest.json"),
         "--output-dir", out2]
    )
    assert code == 0
    with open(os.path.join(out1, "sweep.csv"), "rb") as fh:
        bytes1 = fh.read()
    with open(os.path.join(out2, "sweep.csv"), "rb") as fh:
        bytes2 = fh.read()
    assert bytes1 == bytes2


def test_config_command_mismatch(tmp_path, capsys):
    out = str(tmp_path)
    main(
        ["evaluate", "--chi", "0.05", "--eta0", "0.3", "--alpha-d", "5",
         "--pdc", "1e-5", "--output-dir", out] + FAST
    )
    code = main(
        ["sweep", "--config", os.path.join(out, "evaluate_manifest.json"),
         "--output-dir", out]
    )
    assert code == 2
    assert "was written by command" in capsys.readouterr().out


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"chi": 0.05, "bogus": 1}))
    code = main(["evaluate", "--config", str(cfg), "--eta0", "0.3",
                 "--alpha-d", "5", "--pdc", "1e-5"])
    assert code == 2
    assert "bogus" in capsys.readouterr().out


def test_config_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["evaluate", "--config", str(cfg)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().out


def test_flags_override_config(tmp_path):
    out = str(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "chi": 0.02, "eta0": 0.3, "alpha_d": 5.0, "p_dc": 1e-5, "n_max": 2,
    }))
    code = main(["evaluate", "--config", str(cfg), "--chi", "0.05",
                 "--output-dir", out])
    assert code == 0
    _, rows = read_csv(os.path.join(out, "evaluate.csv"))
    assert float(rows[0]["chi"]) == 0.05


# ---------------------------------------------------------------------------
# optimize / compare-decoy


def test_optimize_csv(tmp_path):
    out = str(tmp_path)
    code = main(
        ["optimize", "--alpha-d-grid", "10", "--eta0", "0.2", "--pdc", "1e-5",
         "--output-dir", out] + FAST
    )
    assert code == 0
    header, rows = read_csv(os.path.join(out, "optimize.csv"))
    assert header == OPTIMIZE_COLUMNS
    assert len(rows) == 1
    assert rows[0]["positive"] == "true"
    assert 0.1 < float(rows[0]["chi_opt"]) < 0.2


def test_optimize_joint_requires_constraint(tmp_path, capsys):
    code = main(["optimize", "--alpha-d-grid", "10", "--pdc", "1e-5",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "constraint" in capsys.readouterr().out


def test_optimize_joint_rejects_both_dark_count_modes(tmp_path, capsys):
    code = main(["optimize", "--alpha-d-grid", "10", "--constraint", "--pdc", "1e-5",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "not both" in capsys.readouterr().out
    assert list(tmp_path.glob("*.csv")) == []


@pytest.mark.parametrize(
    "args",
    [
        ["optimize", "--constraint"],
        ["compare-decoy", "--eta0", "0.2", "--pdc", "1.8e-5"],
        ["figure-data", "--figure", "fig3"],
    ],
    ids=["optimize", "compare-decoy", "figure-data"],
)
def test_comma_only_grid_is_a_configuration_error(args, tmp_path, capsys):
    code = main(args + ["--alpha-d-grid", ",", "--output-dir", str(tmp_path)] + FAST)
    assert code == 2
    assert "empty grid" in capsys.readouterr().out
    assert list(tmp_path.glob("*.csv")) == []


def test_compare_decoy_fixed_parameters(tmp_path):
    out = str(tmp_path)
    code = main(
        ["compare-decoy", "--alpha-d-grid", "0,10", "--eta0", "0.2",
         "--pdc", "1.8e-5", "--mu", "0.7", "--chi", "0.1",
         "--output-dir", out] + FAST
    )
    assert code == 0
    header, rows = read_csv(os.path.join(out, "compare_decoy.csv"))
    assert header == COMPARE_COLUMNS
    assert len(rows) == 2
    for row in rows:
        assert float(row["mu_used"]) == 0.7
        assert float(row["chi_used"]) == 0.1
        # near range zero the decoy baseline outrates the swapped link
        assert float(row["r_decoy"]) > float(row["r_es"])


def test_compare_decoy_blind_detector_writes_nan_chi(tmp_path):
    """At eta0 = 0 the swap rate is 0 at every brightness, so no optimal chi
    exists: chi_used is written as nan and the log rate is left empty."""
    code = main(["compare-decoy", "--alpha-d-grid", "10", "--eta0", "0", "--pdc", "1e-5",
                 "--output-dir", str(tmp_path)] + FAST)
    assert code == 0
    _, rows = read_csv(tmp_path / "compare_decoy.csv")
    assert rows[0]["chi_used"] == "nan"
    assert float(rows[0]["r_es"]) == 0.0
    assert rows[0]["log10_r_es"] == ""


@pytest.mark.parametrize("n_max", ["2", "4"])
@pytest.mark.parametrize("fixed_chi", [[], ["--chi", "0.12"]], ids=["search", "fixed"])
def test_compare_decoy_builds_one_polynomial_per_row(n_max, fixed_chi, tmp_path, monkeypatch):
    """Each row reads the swap rate off one QBER polynomial, searched or at
    the fixed chi; no row runs the swap pipeline.  The CSV bytes at these
    cutoffs are pinned by the compare_decoy golden cases."""
    runs, builds = [], []
    swap, graded = optimize_module.swap_conditional_state, optimize_module.graded_swap_state

    def counting(calls, fn):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(optimize_module, "swap_conditional_state", counting(runs, swap))
    monkeypatch.setattr(optimize_module, "graded_swap_state", counting(builds, graded))
    out = str(tmp_path)
    code = main(
        ["compare-decoy", "--alpha-d-grid", "5,25", "--eta0", "0.2", "--pdc", "1e-6",
         "--n-max", n_max, "--output-dir", out] + fixed_chi
    )
    assert code == 0
    _, rows = read_csv(os.path.join(out, "compare_decoy.csv"))
    assert len(rows) == 2
    assert runs == []
    assert [args[1] for args in builds] == [float(row["alpha_d_db"]) for row in rows]


def test_crossover_optimizes_each_grid_distance_once(tmp_path, monkeypatch):
    calls = Counter()
    es_optimal_rate = optimize_module.es_optimal_rate

    def counting(alpha, *args, **kwargs):
        calls[alpha] += 1
        return es_optimal_rate(alpha, *args, **kwargs)

    monkeypatch.setattr(optimize_module, "es_optimal_rate", counting)
    out = str(tmp_path)
    code = main(
        ["crossover", "--eta0", "0.2", "--pdc", "1.8e-5", "--alpha-min", "0",
         "--alpha-max", "30", "--step", "5", "--output-dir", out] + FAST
    )
    assert code == 0
    _, rows = read_csv(os.path.join(out, "crossover.csv"))
    grid = [float(row["alpha_d_db"]) for row in rows]
    assert grid == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
    assert all(calls[alpha] == 1 for alpha in grid)
    # the bisection adds only distances between grid points
    assert max(calls.values()) == 1
    manifest = json.loads(Path(out, "crossover_manifest.json").read_text())
    assert 0.0 < manifest["results"]["alpha_crossover"] < 30.0


def test_crossover_rows_are_compare_decoy_rows(tmp_path):
    """crossover and compare-decoy read each distance's rates off the same
    comparison, so their r_es and r_decoy cells agree."""
    dark = ["--eta0", "0.2", "--pdc", "1.8e-5"] + FAST
    assert main(["crossover", "--alpha-min", "20", "--alpha-max", "30", "--step", "5",
                 "--output-dir", str(tmp_path)] + dark) == 0
    assert main(["compare-decoy", "--alpha-d-grid", "20:30:5",
                 "--output-dir", str(tmp_path)] + dark) == 0
    _, crossover = read_csv(tmp_path / "crossover.csv")
    _, compare = read_csv(tmp_path / "compare_decoy.csv")
    columns = ("alpha_d_db", "r_es", "r_decoy")
    assert [[row[c] for c in columns] for row in crossover] == [
        [row[c] for c in columns] for row in compare
    ]
    assert len(crossover) == 3


# ---------------------------------------------------------------------------
# figure data


def test_figure_data_fig4_naming(tmp_path):
    out = str(tmp_path)
    code = main(
        ["figure-data", "--figure", "fig4", "--variant", "a",
         "--alpha-d-grid", "0,5", "--chi-grid", "0.01",
         "--workers", "1", "--output-dir", out] + FAST
    )
    assert code == 0
    assert os.path.exists(os.path.join(out, "fig4a_chi0.01.csv"))
    manifest = json.loads(Path(out, "fig4_manifest.json").read_text())
    assert manifest["command"] == "figure-data"
    assert manifest["outputs"] == ["fig4a_chi0.01.csv"]
    header, rows = read_csv(os.path.join(out, "fig4a_chi0.01.csv"))
    assert header == ROW_COLUMNS
    assert len(rows) == 2


@pytest.mark.parametrize("figure", ["fig4", "fig6"])
def test_figure_data_rejects_unknown_variant(figure, tmp_path, capsys):
    code = main(["figure-data", "--figure", figure, "--variant", "z",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "variant" in capsys.readouterr().out
    assert list(tmp_path.glob("*.csv")) == []


def test_figure_data_requires_figure(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["figure-data", "--output-dir", str(out)]) == 2
    assert "figure is required" in capsys.readouterr().out
    assert not out.exists()


def test_figure_data_config_rejects_unknown_figure(tmp_path, capsys):
    """argparse's choices guard the flag; the config file is checked too."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"figure": "fig9"}))
    out = tmp_path / "out"
    assert main(["figure-data", "--config", str(cfg), "--output-dir", str(out)]) == 2
    assert "unknown figure 'fig9'" in capsys.readouterr().out
    assert not out.exists()


@pytest.mark.parametrize("figure", ["fig6", "fig7", "fig8"])
def test_figure_data_rejects_chi_grid_it_would_ignore(figure, tmp_path, capsys):
    """These figures choose their own brightness, so an overriding chi grid
    would be recorded in the manifest without reaching any row."""
    code = main(["figure-data", "--figure", figure, "--chi-grid", "0.5",
                 "--output-dir", str(tmp_path)] + FAST)
    assert code == 2
    assert "chi_grid" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "figure, key, outputs",
    [("fig7", "alpha_d_grid", ["fig7a_es_vs_decoy.csv"]),
     ("fig4", "chi_grid", ["fig4a_chi0.csv"])],
    ids=["alpha_d_grid", "chi_grid"],
)
def test_figure_data_zero_grid_override_replaces_preset(figure, key, outputs, tmp_path,
                                                        monkeypatch):
    """A grid override of 0 is the one value 0, not a fall-back to the preset."""
    monkeypatch.setattr(cli_module, "sweep", lambda scens: [SweepRow(s, None) for s in scens])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"figure": figure, "variant": "a", key: 0, "n_max": 2}))
    out = tmp_path / "out"
    assert main(["figure-data", "--config", str(cfg), "--output-dir", str(out)]) == 0
    assert json.loads((out / f"{figure}_manifest.json").read_text())["outputs"] == outputs
    column = {"alpha_d_grid": "alpha_d_db", "chi_grid": "chi"}[key]
    for name in outputs:
        _, rows = read_csv(out / name)
        assert rows and {float(r[column]) for r in rows} == {0.0}, name


def test_figure_data_empty_grid_override_is_rejected(tmp_path, capsys):
    """An empty override is an empty grid (exit 2), as it is for sweep."""
    code = main(["figure-data", "--figure", "fig7", "--variant", "a", "--alpha-d-grid", "",
                 "--output-dir", str(tmp_path)] + FAST)
    assert code == 2
    assert "empty grid" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def _log_grid(lo, hi):
    return list(np.logspace(math.log10(lo), math.log10(hi), 25))


def _alpha_scan(hi):
    return [2.5 * i for i in range(int(hi / 2.5) + 1)]


def _constraint_curve(alphas, eta0, chis):
    return [(a, eta0, c, DEFAULT_CONSTRAINT.p_dc(eta0)) for a in alphas for c in chis]


def _fig8_curve(eta0, chi):
    return [(a, eta0, chi, 1e-12) for a in _alpha_scan(60)]


# (alpha_d_db, eta0, chi, p_dc) per file at the preset grids; fig8's decoy
# files carry no chi
_FIG3_ALPHAS = [0, 5, 10, 25, 50]
_ZOOM, _FULL = _log_grid(1e-4, 1e-2), _log_grid(1e-4, 0.3)
PRESET_FILES = {
    "fig3": {
        f"fig3{v}_ad{a}.csv": _constraint_curve([a], eta0, chis)
        for v, eta0, chis in (("a", 0.1, _ZOOM), ("b", 0.1, _FULL),
                              ("c", 0.3, _ZOOM), ("d", 0.3, _FULL))
        for a in _FIG3_ALPHAS
    },
    "fig4": {
        f"fig4{v}_chi{label}.csv": _constraint_curve(_alpha_scan(50), eta0, [chi])
        for v, eta0 in (("a", 0.1), ("b", 0.3))
        for label, chi in (("0.0001", 1e-4), ("0.001", 1e-3), ("0.01", 1e-2),
                           ("0.1", 0.1), ("0.2", 0.2))
    },
    "fig5": {
        f"fig5{v}_ad{a}.csv": _constraint_curve([a], eta0, _FULL)
        for v, eta0 in (("a", 0.1), ("b", 0.3))
        for a in _FIG3_ALPHAS
    },
    "fig8": {
        "fig8a_decoy_mu0.8.csv": _fig8_curve(0.2, None),
        "fig8a_decoy_mu0.4.csv": _fig8_curve(0.2, None),
        "fig8a_es_chi0.174.csv": _fig8_curve(0.2, 0.174),
        "fig8a_es_chi0.172.csv": _fig8_curve(0.2, 0.172),
        "fig8a_es_chi0.12.csv": _fig8_curve(0.2, 0.12),
        "fig8b_decoy_eta0.9.csv": _fig8_curve(0.9, None),
        "fig8b_es_eta0.9.csv": _fig8_curve(0.9, 0.12),
        "fig8b_decoy_eta0.1.csv": _fig8_curve(0.1, None),
        "fig8b_es_eta0.1.csv": _fig8_curve(0.1, 0.12),
    },
}


@pytest.mark.parametrize("figure", sorted(PRESET_FILES))
def test_figure_data_preset_grids(figure, tmp_path, monkeypatch):
    """The preset grids of every swap-link curve, with the swap pipeline
    stubbed out; the golden cases run the figures on overridden grids."""
    def stub_sweep(scenarios):
        return [SweepRow(s, None, "stub") for s in scenarios]

    monkeypatch.setattr(cli_module, "sweep", stub_sweep)
    code = main(["figure-data", "--figure", figure, "--workers", "1",
                 "--output-dir", str(tmp_path)] + FAST)
    assert code == 0
    manifest = json.loads((tmp_path / f"{figure}_manifest.json").read_text())
    assert manifest["outputs"] == list(PRESET_FILES[figure])
    for name, want in PRESET_FILES[figure].items():
        _, rows = read_csv(tmp_path / name)
        got = [
            (float(r["alpha_d_db"]), float(r["eta0"]),
             float(r["chi"]) if "chi" in r else None, float(r["p_dc"]))
            for r in rows
        ]
        assert got == [pytest.approx(w, rel=1e-10) for w in want], name


# The arguments each per-distance search receives at the preset grids, per
# file: optimize_joint's (alpha_d_db, constraint) for fig6 and
# _compare_schemes' (alpha_d_db, eta0, p_dc, chi, mu) for fig7
SEARCHED_PRESET_FILES = {
    "fig6": {"fig6_optima.csv": [(a, DEFAULT_CONSTRAINT) for a in _alpha_scan(50)]},
    "fig7": {
        f"fig7{v}_es_vs_decoy.csv": [(a, 0.2, p_dc, None, None) for a in _alpha_scan(60)]
        for v, p_dc in (("a", 1.8e-5), ("b", 1e-6), ("c", 1e-10))
    },
}


@pytest.mark.parametrize("figure", sorted(SEARCHED_PRESET_FILES))
def test_figure_data_searched_preset_grids(figure, tmp_path, monkeypatch):
    """fig6's and fig7's preset distances and settings, with the searches
    per distance stubbed out."""
    calls = []

    def stub_optimize_joint(alpha_d_db, constraint, **kwargs):
        calls.append((alpha_d_db, constraint))
        return OptimumPoint(alpha_d_db, 0.1, 0.2, 1e-6, 1e-3, 0.01)

    def stub_compare(alpha_d_db, eta0, p_dc, chi, mu, **kwargs):
        calls.append((alpha_d_db, eta0, p_dc, chi, mu))
        return Comparison(alpha_d_db, 0.1, 1e-3, 0.5, 1e-3)

    monkeypatch.setattr(cli_module, "optimize_joint", stub_optimize_joint)
    monkeypatch.setattr(cli_module, "_compare_schemes", stub_compare)
    code = main(["figure-data", "--figure", figure, "--output-dir", str(tmp_path)] + FAST)
    assert code == 0
    want = SEARCHED_PRESET_FILES[figure]
    manifest = json.loads((tmp_path / f"{figure}_manifest.json").read_text())
    assert manifest["outputs"] == list(want)
    assert calls == [pytest.approx(c, rel=1e-10) for file in want.values() for c in file]
    for name, file_calls in want.items():
        _, rows = read_csv(tmp_path / name)
        assert [float(r["alpha_d_db"]) for r in rows] == pytest.approx([c[0] for c in file_calls])


def test_console_script_version():
    # `python -m swapkd` runs the same main() as the console script, so this
    # covers the command-line --version path without an installed package.
    # The imported package's directory goes first on PYTHONPATH so the child
    # finds it whatever the working directory.
    env = dict(os.environ)
    src = str(Path(swapkd.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "swapkd", "--version"],
        capture_output=True, text=True, check=True, env=env,
    )
    assert result.stdout.strip() == f"swapkd {swapkd.__version__}"


def test_pyproject_declares_console_script():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["scripts"]["swapkd"] == "swapkd.cli:main"
    # --version prints __version__, so the two must agree
    assert project["version"] == swapkd.__version__


def readme_command_lines():
    """The swapkd lines of README's Command line block, continuations joined
    and comments dropped.  CI runs each of them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```\n", 2)[1]
    lines = [line.split("#", 1)[0] for line in block.replace("\\\n", " ").splitlines()]
    return [line for line in lines if line.startswith("swapkd ")]


def test_readme_command_lines_parse():
    """Every swapkd line of README's Command line block parses; nothing runs."""
    commands = [
        build_parser().parse_args(shlex.split(line)[1:]).command
        for line in readme_command_lines()
    ]
    assert set(commands) == set(cli_module.COMMANDS)


@pytest.mark.skipif(shutil.which("swapkd") is None, reason="swapkd console script not installed")
def test_installed_console_script_version():
    result = subprocess.run(
        ["swapkd", "--version"], capture_output=True, text=True, check=True
    )
    # the executable on PATH may belong to another install of the package
    assert result.stdout.strip().startswith("swapkd ")
