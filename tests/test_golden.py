"""Pinned CLI output: every command and figure variant at a small cutoff.

Each case runs ``main`` into its own directory and compares every file it
writes with ``tests/golden/<case>/``: CSVs byte for byte, manifests as JSON
with the two run-dependent fields (``wall_time_s`` and
``config.output_dir``) masked.  Regenerate the pinned files with
``PYTHONPATH=src python tests/test_golden.py`` only when an output change is
intended.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from swapkd.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

SMALL = ["--n-max", "2"]
FIGURE = ["--alpha-d-grid", "10", "--chi-grid", "0.1", "--workers", "1"] + SMALL

CASES = {
    "evaluate": ["evaluate", "--chi", "0.1", "--eta0", "0.3", "--alpha-d", "10",
                 "--constraint"] + SMALL,
    # eta0 0.9 violates the dark-count constraint: a row with an error cell
    "sweep": ["sweep", "--chi-grid", "0.1", "--eta0-grid", "0.3,0.9", "--alpha-d-grid", "10",
              "--constraint", "--workers", "1"] + SMALL,
    "optimize_chi": ["optimize", "--alpha-d-grid", "10", "--eta0", "0.2", "--pdc", "1e-5",
                     "--workers", "1"] + SMALL,
    "optimize_joint": ["optimize", "--alpha-d-grid", "10", "--constraint",
                       "--workers", "1"] + SMALL,
    "compare_decoy": ["compare-decoy", "--alpha-d-grid", "10", "--eta0", "0.2",
                      "--pdc", "1.8e-5"] + SMALL,
    "compare_decoy_fixed": ["compare-decoy", "--alpha-d-grid", "10", "--eta0", "0.2",
                            "--pdc", "1.8e-5", "--mu", "0.7", "--chi", "0.1"] + SMALL,
    "crossover": ["crossover", "--eta0", "0.2", "--pdc", "1.8e-5", "--alpha-min", "20",
                  "--alpha-max", "30", "--step", "5"] + SMALL,
}
CASES.update(
    {fig: ["figure-data", "--figure", fig] + FIGURE
     for fig in ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")}
)


def _masked_manifest(path: Path) -> dict:
    manifest = json.loads(path.read_text())
    manifest["wall_time_s"] = None
    manifest["config"]["output_dir"] = None
    return manifest


def _run_case(name: str, out_dir: Path) -> None:
    code = main(CASES[name] + ["--output-dir", str(out_dir)])
    assert code == 0, name


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    _run_case(name, tmp_path)
    want = GOLDEN / name
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(want))
    for fname in os.listdir(want):
        if fname.endswith("_manifest.json"):
            pinned = json.loads((want / fname).read_text())
            assert _masked_manifest(tmp_path / fname) == pinned, fname
        else:
            assert (tmp_path / fname).read_bytes() == (want / fname).read_bytes(), fname


def _regenerate() -> None:
    for name in sorted(CASES):
        out_dir = GOLDEN / name
        out_dir.mkdir(parents=True, exist_ok=True)
        for old in out_dir.iterdir():
            old.unlink()
        _run_case(name, out_dir)
        for path in out_dir.glob("*_manifest.json"):
            path.write_text(json.dumps(_masked_manifest(path), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate()
    sys.exit(0)
