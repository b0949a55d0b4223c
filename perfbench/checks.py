"""Correctness checks on the CSV row each op writes.

Every row, for any seed, must satisfy the invariants below.  For the
default seed, rows are also compared with reference CSVs stored in
``reference/``: QBER, coincidence and herald probability, visibility and
rates agree within the engine's own convergence tolerance, relative 1e-4.
The comparison is relative only: the compared values reach down to 1e-20,
so any absolute floor would wave through large relative errors.
"""

from __future__ import annotations

import csv
import io
import math
import os
from typing import Dict, List, Optional

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
DEFAULT_SEED = 0
REL_TOL = 1e-4
# Acceptance criterion 11 holds qber_direct and (1 - V)/2 to this gap.
QBER_V_GAP = 5e-4

COMPARED = {
    "sweep": ("qber_direct", "qber_from_v", "visibility", "coincidence_probability",
              "herald_probability", "r_sec"),
    "compare-decoy": ("chi_used", "r_es", "mu_used", "r_decoy"),
}


def parse_row(csv_text: str) -> Dict[str, str]:
    """The single data row of an op's CSV."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row, found {len(rows)}")
    return rows[0]


def _float(row: Dict[str, str], key: str) -> float:
    return float(row[key])


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def invariant_errors(command: str, row: Dict[str, str]) -> List[str]:
    errors = []
    if command == "sweep":
        if row.get("error"):
            errors.append(f"error cell: {row['error']}")
            return errors
        if row["converged"] != "true":
            errors.append("converged is not true")
        q = _float(row, "qber_direct")
        if not 0.0 <= q <= 0.5:
            errors.append(f"qber_direct {q} outside [0, 0.5]")
        qv = _float(row, "qber_from_v")
        if not abs(q - qv) <= QBER_V_GAP:
            errors.append(f"qber_direct {q} and qber_from_v {qv} differ by more than {QBER_V_GAP}")
        rates = ("r_sift", "r_sec")
    else:
        rates = ("r_es", "r_decoy")
    for key in rates:
        if not _float(row, key) >= 0.0:
            errors.append(f"{key} {row[key]} negative")
    return errors


def load_reference(workload: str) -> List[Dict[str, str]]:
    path = os.path.join(REFERENCE_DIR, f"{workload}.csv")
    with open(path) as fh:
        return list(csv.DictReader(fh))


def reference_errors(command: str, argv: List[str], row: Dict[str, str],
                     ref: Dict[str, str]) -> List[str]:
    if ref["argv"] != " ".join(argv):
        return [f"reference row is for {ref['argv']!r}, not {' '.join(argv)!r}"]
    errors = []
    for key in COMPARED[command]:
        a, b = _float(row, key), _float(ref, key)
        if not _close(a, b):
            errors.append(f"{key} {a!r} differs from reference {b!r}")
    return errors


def check_op(op: Dict, ref: Optional[Dict[str, str]]) -> List[str]:
    """All errors of one op; empty when the op is correct."""
    if op["exit_code"] != 0:
        return [f"exit code {op['exit_code']}: {op['stdout'].strip()}"]
    command = op["argv"][0]
    try:
        row = parse_row(op["csv"])
        errors = invariant_errors(command, row)
        if ref is not None and not errors:
            errors = reference_errors(command, op["argv"], row, ref)
    except (KeyError, ValueError) as exc:
        errors = [f"unreadable row: {exc}"]
    return errors
