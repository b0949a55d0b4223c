import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import swapkd
from swapkd.cli import (
    COMPARE_COLUMNS,
    OPTIMIZE_COLUMNS,
    ROW_COLUMNS,
    ConfigError,
    main,
    parse_grid,
)

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
    for bad in ("5:1:1", "1:2:0", "1:2:3:cubic", "1:2:3:4:5", "", "1e-4:1e-2:0:log"):
        with pytest.raises(ConfigError):
            parse_grid(bad)
    with pytest.raises(ConfigError):
        parse_grid("-1:2:3:log")


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


def test_numerical_failure_exit_code(tmp_path, capsys):
    code = main(
        ["evaluate", "--chi", "0.2", "--eta0", "1.0", "--alpha-d", "0",
         "--pdc", "0", "--n-max", "1", "--tol", "1e-12",
         "--output-dir", str(tmp_path)]
    )
    assert code == 3
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "TruncationError"


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
    manifest = json.load(open(os.path.join(out1, "sweep_manifest.json")))
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


def test_optimize_parallel_matches_serial(tmp_path):
    csv = {}
    for workers in ("1", "2"):
        out = tmp_path / workers
        code = main(
            ["optimize", "--alpha-d-grid", "0,10", "--eta0", "0.2", "--pdc", "1e-5",
             "--workers", workers, "--output-dir", str(out)] + FAST
        )
        assert code == 0
        csv[workers] = (out / "optimize.csv").read_bytes()
    assert csv["2"] == csv["1"]


def test_optimize_joint_requires_constraint(tmp_path, capsys):
    code = main(["optimize", "--alpha-d-grid", "10", "--pdc", "1e-5",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "constraint" in capsys.readouterr().out


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
    manifest = json.load(open(os.path.join(out, "fig4_manifest.json")))
    assert manifest["command"] == "figure-data"
    assert manifest["outputs"] == ["fig4a_chi0.01.csv"]
    header, rows = read_csv(os.path.join(out, "fig4a_chi0.01.csv"))
    assert header == ROW_COLUMNS
    assert len(rows) == 2


def test_figure_data_rejects_unknown_variant(tmp_path, capsys):
    code = main(["figure-data", "--figure", "fig4", "--variant", "z",
                 "--output-dir", str(tmp_path)])
    assert code == 2
    assert "variant" in capsys.readouterr().out


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


@pytest.mark.skipif(shutil.which("swapkd") is None, reason="swapkd console script not installed")
def test_installed_console_script_version():
    result = subprocess.run(
        ["swapkd", "--version"], capture_output=True, text=True, check=True
    )
    # the executable on PATH may belong to another install of the package
    assert result.stdout.strip().startswith("swapkd ")


def test_workers_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SWAPKD_WORKERS", "1")
    out = str(tmp_path)
    code = main(
        ["sweep", "--chi-grid", "0.05", "--eta0-grid", "0.3",
         "--alpha-d-grid", "5", "--pdc", "1e-5", "--output-dir", out] + FAST
    )
    assert code == 0
    _, rows = read_csv(os.path.join(out, "sweep.csv"))
    assert len(rows) == 1
