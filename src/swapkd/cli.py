"""Command-line front end: scenario evaluation, sweeps, optimization runs,
decoy comparisons, and figure-data export.

Every run writes one or more CSV files plus a JSON manifest that echoes the
fully resolved configuration; re-running a command with --config pointed at
the manifest reproduces the CSVs byte for byte.  Values in CSVs use
scientific notation with 12 significant digits.  Exit codes: 0 success, 2
invalid input (a rejected value, an unreadable or undecodable config file,
or an output that cannot be written), 3 numerical failure; any other
exception, a ValueError raised while computing included, propagates.
Commands run serially: a --workers value is recorded for replay, not used.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import __version__
from .detectors import DEFAULT_CONSTRAINT, DetectorConstraint
from .errors import NUMERICAL_ERRORS, ConstraintViolationError, InvalidInputError
from .fock import TruncationPolicy
from .optimize import (
    CROSSOVER_TOL_DB,
    OptimumPoint,
    Scenario,
    SweepRow,
    _crossover_scan,
    _rate_curve,
    _step_grid,
    es_optimal_rate,
    evaluate,
    optimize_chi,
    optimize_joint,
    sweep,
)
from .rates import (
    KAPPA_DEFAULT,
    NU_DEFAULT,
    decoy_inputs,
    decoy_rate_report,
    optimal_mu,
)

SCHEMA_VERSION = 1

ROW_COLUMNS = [
    "alpha_d_db",
    "chi",
    "eta0",
    "p_dc",
    "kappa",
    "n_max_used",
    "converged",
    "visibility",
    "qber_direct",
    "qber_from_v",
    "r_sift",
    "r_sec_raw",
    "r_sec",
    "log10_r_sec",
    "herald_probability",
    "coincidence_probability",
    "error",
]

OPTIMIZE_COLUMNS = [
    "alpha_d_db",
    "chi_opt",
    "eta0_opt",
    "p_dc_at_opt",
    "r_sec_at_opt",
    "qber_at_opt",
    "converged",
    "positive",
    "guard_flag",
]

COMPARE_COLUMNS = [
    "alpha_d_db",
    "eta0",
    "p_dc",
    "chi_used",
    "r_es",
    "log10_r_es",
    "mu_used",
    "r_decoy",
    "log10_r_decoy",
]

DECOY_COLUMNS = [
    "alpha_d_db",
    "eta0",
    "p_dc",
    "mu",
    "nu",
    "q_mu",
    "e_mu",
    "y1_lower",
    "q1_lower",
    "e1_upper",
    "r_raw",
    "r_sec",
    "log10_r_sec",
]

CROSSOVER_COLUMNS = ["alpha_d_db", "r_es", "r_decoy"]


class ConfigError(InvalidInputError):
    """Raised for unknown keys, bad values, or contradictory settings."""


# ---------------------------------------------------------------------------
# formatting and file output


def _fmt(value) -> str:
    """One CSV cell: floats in 12-significant-digit scientific notation."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return "%.11e" % (value + 0.0)  # + 0.0 turns -0.0 into 0.0
    return str(value).replace(",", ";")


def _write_csv(path: str, columns: Sequence[str], rows: Sequence[Dict]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _log10_or_none(rate: float) -> Optional[float]:
    return math.log10(rate) if rate > 0.0 else None


def _report_row(sr: SweepRow) -> Dict:
    s = sr.scenario
    row: Dict = {
        "alpha_d_db": s.alpha_d_db,
        "chi": s.chi,
        "eta0": s.eta0,
        "kappa": s.kappa,
        "error": sr.error,
    }
    try:
        row["p_dc"] = s.resolved_p_dc
    except ConstraintViolationError:
        row["p_dc"] = None
    r = sr.report
    if r is not None:
        row.update(
            n_max_used=r.n_max_used,
            converged=r.converged,
            visibility=r.visibility,
            qber_direct=r.qber,
            qber_from_v=r.qber_from_v,
            r_sift=r.r_sift,
            r_sec_raw=r.r_sec_raw,
            r_sec=r.r_sec,
            log10_r_sec=_log10_or_none(r.r_sec),
            herald_probability=r.herald_probability,
            coincidence_probability=r.coincidence_probability,
        )
    return row


def _optimum_row(pt: OptimumPoint) -> Dict:
    return {col: getattr(pt, col) for col in OPTIMIZE_COLUMNS}


def _decoy_row(alpha: float, eta0: float, p_dc: float, rep) -> Dict:
    return {
        "alpha_d_db": alpha,
        "eta0": eta0,
        "p_dc": p_dc,
        "mu": rep.inputs.mu,
        "nu": rep.inputs.nu,
        "q_mu": rep.q_mu,
        "e_mu": rep.e_mu,
        "y1_lower": rep.y1_lower,
        "q1_lower": rep.q1_lower,
        "e1_upper": rep.e1_upper,
        "r_raw": rep.r_raw,
        "r_sec": rep.r_sec,
        "log10_r_sec": _log10_or_none(rep.r_sec),
    }


# ---------------------------------------------------------------------------
# grid parsing and config resolution

GridLike = Union[str, Sequence[float], float, int]


# Largest grid a start:stop:step or start:stop:n:lin/log spec may describe,
# checked before the grid is built; the figure presets use 25 points.
MAX_GRID_POINTS = 100_000


def _numbers(text: str, values, kind: type = float) -> List:
    """values converted by kind; one that does not convert is a bad grid."""
    try:
        return [kind(v) for v in values]
    except (TypeError, ValueError):
        raise ConfigError(f"bad grid {text!r}: values must be numbers") from None


def _finite(text: str, values: List[float]) -> List[float]:
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"bad grid {text!r}: values must be finite")
    return values


def parse_grid(spec: GridLike) -> List[float]:
    """Turn a grid description into an explicit list of finite floats.

    Accepted forms: a list of numbers, a single number, "v1,v2,v3",
    "start:stop:step" (stop included when it lands on the step lattice), and
    "start:stop:n:log" / "start:stop:n:lin" for n log- or linearly spaced
    points.  The step and spaced forms hold at most MAX_GRID_POINTS points.
    """
    if isinstance(spec, (int, float)):
        return _finite(repr(spec), [float(spec)])
    if isinstance(spec, (list, tuple)):
        values = _numbers(repr(spec), spec)
    else:
        text = str(spec).strip()
        if ":" in text:
            parts = text.split(":")
            if len(parts) == 3:
                start, stop, step = _finite(text, _numbers(text, parts))
                if step <= 0.0 or stop < start:
                    raise ConfigError(f"bad grid {text!r}: need start <= stop, step > 0")
                if (stop - start) / step >= MAX_GRID_POINTS:
                    raise ConfigError(f"bad grid {text!r}: more than {MAX_GRID_POINTS} points")
                return _step_grid(start, stop, step)
            if len(parts) == 4:
                start, stop = _finite(text, _numbers(text, parts[:2]))
                n = _numbers(text, parts[2:3], int)[0]
                kind = parts[3].lower()
                if not 1 <= n <= MAX_GRID_POINTS:
                    raise ConfigError(f"bad grid {text!r}: need 1 to {MAX_GRID_POINTS} points")
                if kind == "log":
                    if start <= 0.0 or stop <= 0.0:
                        raise ConfigError(f"bad grid {text!r}: log spacing needs positive bounds")
                    return list(np.logspace(math.log10(start), math.log10(stop), n))
                if kind == "lin":
                    return list(np.linspace(start, stop, n))
                raise ConfigError(f"bad grid {text!r}: spacing must be 'log' or 'lin'")
            raise ConfigError(f"bad grid {text!r}: expected 3 or 4 ':'-separated fields")
        values = _numbers(text, [v for v in text.split(",") if v.strip() != ""])
    if not values:
        raise ConfigError("empty grid")
    return _finite(str(spec), values)


def _load_config_file(path: str, command: str) -> Dict:
    with open(path) as fh:
        loaded = json.load(fh)
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path!r} must hold a JSON object")
    if "schema_version" in loaded and "config" in loaded:
        if loaded.get("command") != command:
            raise ConfigError(
                f"manifest {path!r} was written by command "
                f"{loaded.get('command')!r}, not {command!r}"
            )
        loaded = loaded["config"]
    return loaded


_GRID_KEYS = ("chi_grid", "eta0_grid", "alpha_d_grid")


def _check_config_value(key: str, value, default) -> None:
    """Reject a config-file value whose type does not fit its key.

    Keys whose flag parses a float take a number, those parsing an int an
    integer, constraint a bool and the rest a string; null stands only for
    a key whose default is None.  Grids are left to parse_grid.  No value is
    converted, so the manifest records the file's values as given.
    """
    if key in _GRID_KEYS or (value is None and default is None):
        return
    flag_type = _FLAGS[key][1].get("type")
    if key == "constraint":
        kinds, name = (bool,), "true or false"
    elif flag_type is float:
        kinds, name = (int, float), "a number"
    elif flag_type is int:
        kinds, name = (int,), "an integer"
    else:
        kinds, name = (str,), "a string"
    if not isinstance(value, kinds) or (isinstance(value, bool) and key != "constraint"):
        raise ConfigError(f"config value {key} = {value!r} must be {name}")


def _resolve(args: argparse.Namespace, defaults: Dict) -> Dict:
    """Merge defaults, config file, and explicit flags (flags win)."""
    config = dict(defaults)
    if getattr(args, "config", None):
        loaded = _load_config_file(args.config, args.command)
        unknown = sorted(set(loaded) - set(defaults))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in loaded.items():
            _check_config_value(key, value, defaults[key])
        config.update(loaded)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = value
    return config


def _resolve_pdc_mode(config: Dict) -> Tuple[Optional[float], Optional[DetectorConstraint]]:
    """Translate the p_dc/constraint pair of config keys into Scenario inputs."""
    use_constraint = bool(config.get("constraint"))
    p_dc = config.get("p_dc")
    if use_constraint and p_dc is not None:
        raise ConfigError("give either p_dc or constraint, not both")
    if not use_constraint and p_dc is None:
        raise ConfigError("one of p_dc or constraint is required")
    if use_constraint:
        return None, DetectorConstraint(
            a=config.get("constraint_a", DEFAULT_CONSTRAINT.a),
            b=config.get("constraint_b", DEFAULT_CONSTRAINT.b),
        )
    return float(p_dc), None


def _policy(config: Dict) -> TruncationPolicy:
    return TruncationPolicy(
        n_max=int(config["n_max"]), convergence_tol=float(config["convergence_tol"])
    )


def _out_path(config: Dict, name: str) -> str:
    out_dir = config.get("output_dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


# ---------------------------------------------------------------------------
# commands
#
# A command's run(config) returns its CSV files as (suffix, columns, rows),
# each written to <stem><suffix>.csv, and the manifest's "results" entry
# (None for none).  It may replace config values by their parsed form, which
# the manifest then records.  figure-data runs these same functions with each
# figure's settings, so a figure file is the CSV its command would write.

Output = Tuple[str, Sequence[str], List[Dict]]
RunResult = Tuple[List[Output], Optional[Dict]]


class _Command(NamedTuple):
    help: str
    defaults: Dict
    required: Tuple[str, ...]
    run: Callable[[Dict], RunResult]
    stem_key: str = "output_prefix"  # config key naming the output files
    flag_help: Dict[str, str] = {}


def _run_evaluate(config: Dict) -> RunResult:
    p_dc, constraint = _resolve_pdc_mode(config)
    scenario = Scenario(
        alpha_d_db=float(config["alpha_d"]),
        chi=float(config["chi"]),
        eta0=float(config["eta0"]),
        p_dc=p_dc,
        constraint=constraint,
        kappa=float(config["kappa"]),
        policy=_policy(config),
    )
    report = evaluate(scenario)
    row = _report_row(SweepRow(scenario=scenario, report=report))
    results = {"r_sec": report.r_sec, "qber": report.qber, "visibility": report.visibility}
    return [("", ROW_COLUMNS, [row])], results


def _run_sweep(config: Dict) -> RunResult:
    p_dc, constraint = _resolve_pdc_mode(config)
    for key in ("alpha_d_grid", "eta0_grid", "chi_grid"):
        config[key] = parse_grid(config[key])
    policy = _policy(config)
    scenarios = [
        Scenario(
            alpha_d_db=a, chi=c, eta0=e, p_dc=p_dc, constraint=constraint,
            kappa=float(config["kappa"]), policy=policy,
        )
        for a in config["alpha_d_grid"]
        for e in config["eta0_grid"]
        for c in config["chi_grid"]
    ]
    rows = [_report_row(sr) for sr in sweep(scenarios)]
    n_failed = sum(1 for r in rows if r.get("error"))
    return [("", ROW_COLUMNS, rows)], {"points": len(rows), "failed_points": n_failed}


def _run_optimize(config: Dict) -> RunResult:
    config["alpha_d_grid"] = parse_grid(config["alpha_d_grid"])
    eta0 = config["eta0"]
    if eta0 is None and not config.get("constraint"):
        # joint (chi, eta0) optimization needs the dark-count constraint
        raise ConfigError("joint optimization requires constraint mode (or give eta0)")
    p_dc, constraint = _resolve_pdc_mode(config)
    eta0 = None if eta0 is None else float(eta0)
    policy = _policy(config)
    kappa = float(config["kappa"])
    points = [
        optimize_joint(a, constraint=constraint, kappa=kappa, policy=policy)
        if eta0 is None
        else optimize_chi(a, eta0, p_dc=p_dc, constraint=constraint, kappa=kappa, policy=policy)
        for a in config["alpha_d_grid"]
    ]
    return [("", OPTIMIZE_COLUMNS, [_optimum_row(pt) for pt in points])], {"points": len(points)}


def _run_compare_decoy(config: Dict) -> RunResult:
    config["alpha_d_grid"] = parse_grid(config["alpha_d_grid"])
    eta0, p_dc = float(config["eta0"]), float(config["p_dc"])
    nu, kappa, policy = float(config["nu"]), float(config["kappa"]), _policy(config)
    fixed_mu, fixed_chi = config["mu"], config["chi"]
    rows = []
    for alpha in config["alpha_d_grid"]:
        if fixed_chi is None:
            chi_used, r_es = es_optimal_rate(alpha, eta0, p_dc, kappa=kappa, policy=policy)
        else:
            chi_used = fixed_chi
            s = Scenario(
                alpha_d_db=alpha, chi=fixed_chi, eta0=eta0, p_dc=p_dc,
                kappa=kappa, policy=policy,
            )
            r_es = _rate_curve(s)(fixed_chi)
        if fixed_mu is None:
            mu_used, r_dk = optimal_mu(eta0, alpha, p_dc, nu=nu, kappa=kappa)
        else:
            mu_used = fixed_mu
            r_dk = decoy_rate_report(
                decoy_inputs(fixed_mu, eta0, alpha, p_dc, nu=nu, kappa=kappa)
            ).r_sec
        rows.append(
            {
                "alpha_d_db": alpha,
                "eta0": eta0,
                "p_dc": p_dc,
                "chi_used": chi_used,
                "r_es": r_es,
                "log10_r_es": _log10_or_none(r_es),
                "mu_used": mu_used,
                "r_decoy": r_dk,
                "log10_r_decoy": _log10_or_none(r_dk),
            }
        )
    return [("", COMPARE_COLUMNS, rows)], {"points": len(rows)}


def _run_crossover(config: Dict) -> RunResult:
    alpha_star, rows = _crossover_scan(
        float(config["eta0"]),
        float(config["p_dc"]),
        parse_grid(f"{config['alpha_min']}:{config['alpha_max']}:{config['step']}"),
        tol=CROSSOVER_TOL_DB,
        kappa=float(config["kappa"]),
        policy=_policy(config),
        nu=float(config["nu"]),
    )
    rows = [dict(zip(CROSSOVER_COLUMNS, row)) for row in rows]
    return [("", CROSSOVER_COLUMNS, rows)], {"alpha_crossover": alpha_star}


def _run_decoy_curve(config: Dict) -> RunResult:
    """The decoy bound chain per distance at the fixed intensity mu."""
    eta0, p_dc, mu = float(config["eta0"]), float(config["p_dc"]), float(config["mu"])
    rows = [
        _decoy_row(a, eta0, p_dc, decoy_rate_report(decoy_inputs(mu, eta0, a, p_dc)))
        for a in parse_grid(config["alpha_d_grid"])
    ]
    return [("", DECOY_COLUMNS, rows)], None


# fig8's decoy curves; no subcommand writes these rows
_DECOY_CURVE = _Command("decoy bound chain at fixed mu", {}, (), _run_decoy_curve)


# ---------------------------------------------------------------------------
# figure data

_CHI_SCAN_FULL = "1e-4:0.3:25:log"
_CHI_SCAN_ZOOM = "1e-4:1e-2:25:log"
_ALPHA_SCAN = "0:50:2.5"
_ALPHA_SCAN_LONG = "0:60:2.5"

# fig3/fig5: chi-scan curves at (eta0, chi grid) under the dark-count
# constraint, one file per alpha*d
_FIG3_ALPHAS = (0.0, 5.0, 10.0, 25.0, 50.0)
# fig4: alpha-scan curves at eta0 under the constraint, one file per chi
_FIG4_CHIS = (1e-4, 1e-3, 1e-2, 0.1, 0.2)
# fig7: decoy vs swap at eta0 = 0.2 and per-distance optimal brightness,
# one variant per dark-count level
_FIG7_ETA0 = 0.2
_FIG8_PDC = 1e-12


def _num_label(value: float) -> str:
    return ("%g" % value).replace("-0", "-").replace("+", "")


# fig8: fixed intensities and brightnesses at p_dc = _FIG8_PDC.  Each curve
# is (scheme, file label, eta0, mu or chi): "decoy" evaluates the decoy
# chain at intensity mu, "es" sweeps the swap link at brightness chi.
_FIG8_CURVES = {
    "a": [("decoy", f"mu{_num_label(mu)}", 0.2, mu) for mu in (0.8, 0.4)]
    + [("es", f"chi{_num_label(chi)}", 0.2, chi) for chi in (0.174, 0.172, 0.12)],
    "b": [
        (scheme, f"eta{_num_label(eta0)}", eta0, x)
        for eta0 in (0.9, 0.1)
        for scheme, x in (("decoy", 0.7), ("es", 0.12))
    ],
}

# The figures whose brightness grid chi_grid overrides; the others choose
# their brightness per distance or per curve.
_CHI_GRID_FIGURES = ("fig3", "fig4", "fig5")

# Variants of each figure, in default order; fig6 has one unnamed variant.
_FIGURES = {
    "fig3": {
        "a": (0.1, _CHI_SCAN_ZOOM),
        "b": (0.1, _CHI_SCAN_FULL),
        "c": (0.3, _CHI_SCAN_ZOOM),
        "d": (0.3, _CHI_SCAN_FULL),
    },
    "fig4": {"a": 0.1, "b": 0.3},
    "fig5": {"a": (0.1, _CHI_SCAN_FULL), "b": (0.3, _CHI_SCAN_FULL)},
    "fig6": {"": None},
    "fig7": {"a": 1.8e-5, "b": 1e-6, "c": 1e-10},
    "fig8": _FIG8_CURVES,
}


def _figure_runs(
    figure: str, variant: str, alpha_grid: Optional[GridLike], chi_grid: Optional[GridLike]
) -> List[Tuple[str, _Command, Dict]]:
    """The (file suffix, command, settings) that write one figure variant."""
    preset = _FIGURES[figure][variant]
    sweep_cmd = COMMANDS["sweep"]
    if figure in ("fig3", "fig5"):
        eta0, chi_scan = preset
        return [
            (f"{variant}_ad{_num_label(a)}", sweep_cmd,
             {"alpha_d_grid": [a], "eta0_grid": [eta0], "chi_grid": chi_grid or chi_scan,
              "constraint": True})
            for a in parse_grid(alpha_grid or _FIG3_ALPHAS)
        ]
    if figure == "fig4":
        return [
            (f"{variant}_chi{_num_label(c)}", sweep_cmd,
             {"alpha_d_grid": alpha_grid or _ALPHA_SCAN, "eta0_grid": [preset], "chi_grid": [c],
              "constraint": True})
            for c in parse_grid(chi_grid or _FIG4_CHIS)
        ]
    if figure == "fig6":
        settings = {"alpha_d_grid": alpha_grid or _ALPHA_SCAN, "constraint": True}
        return [("_optima", COMMANDS["optimize"], settings)]
    alphas = alpha_grid or _ALPHA_SCAN_LONG
    if figure == "fig7":
        settings = {"alpha_d_grid": alphas, "eta0": _FIG7_ETA0, "p_dc": preset}
        return [(f"{variant}_es_vs_decoy", COMMANDS["compare-decoy"], settings)]
    runs = []
    for scheme, label, eta0, x in preset:
        settings = {"alpha_d_grid": alphas, "p_dc": _FIG8_PDC}
        if scheme == "decoy":
            settings.update(eta0=eta0, mu=x)
            runs.append((f"{variant}_decoy_{label}", _DECOY_CURVE, settings))
        else:
            settings.update(eta0_grid=[eta0], chi_grid=[x])
            runs.append((f"{variant}_es_{label}", sweep_cmd, settings))
    return runs


def _run_figure_data(config: Dict) -> RunResult:
    figure = config["figure"]
    if figure not in _FIGURES:
        raise ConfigError(f"unknown figure {figure!r}")
    if config["chi_grid"] is not None and figure not in _CHI_GRID_FIGURES:
        raise ConfigError(f"chi_grid applies to {', '.join(_CHI_GRID_FIGURES)} only, not {figure}")
    variants = (config["variant"],) if config["variant"] else tuple(_FIGURES[figure])
    shared = {key: config[key] for key in ("n_max", "convergence_tol")}
    files: List[Output] = []
    for variant in variants:
        if variant not in _FIGURES[figure]:
            raise ConfigError(f"unknown variant {variant!r} for {figure}")
        for suffix, command, settings in _figure_runs(
            figure, variant, config["alpha_d_grid"], config["chi_grid"]
        ):
            [(_, columns, rows)], _ = command.run({**command.defaults, **shared, **settings})
            files.append((suffix, columns, rows))
    return files, None


# ---------------------------------------------------------------------------
# command table, argument parsing and the runner


_COMMON_DEFAULTS: Dict = {"n_max": 4, "convergence_tol": 1e-4, "output_dir": "."}
_PDC_MODE_DEFAULTS: Dict = {
    "p_dc": None,
    "constraint": False,
    "constraint_a": DEFAULT_CONSTRAINT.a,
    "constraint_b": DEFAULT_CONSTRAINT.b,
}

COMMANDS: Dict[str, _Command] = {
    "evaluate": _Command(
        "evaluate one operating point",
        {**_COMMON_DEFAULTS, **_PDC_MODE_DEFAULTS, "chi": None, "eta0": None, "alpha_d": None,
         "kappa": KAPPA_DEFAULT, "output_prefix": "evaluate"},
        ("chi", "eta0", "alpha_d"),
        _run_evaluate,
    ),
    "sweep": _Command(
        "evaluate a parameter grid",
        {**_COMMON_DEFAULTS, **_PDC_MODE_DEFAULTS, "chi_grid": None, "eta0_grid": None,
         "alpha_d_grid": None, "kappa": KAPPA_DEFAULT, "workers": None, "output_prefix": "sweep"},
        ("chi_grid", "eta0_grid", "alpha_d_grid"),
        _run_sweep,
    ),
    "optimize": _Command(
        "maximize the key rate per distance",
        {**_COMMON_DEFAULTS, **_PDC_MODE_DEFAULTS, "alpha_d_grid": None, "eta0": None,
         "kappa": KAPPA_DEFAULT, "workers": None, "output_prefix": "optimize"},
        ("alpha_d_grid",),
        _run_optimize,
        flag_help={"eta0": "fix eta0 and optimize chi only"},
    ),
    "compare-decoy": _Command(
        "swap scheme vs decoy baseline per distance",
        {**_COMMON_DEFAULTS, "alpha_d_grid": None, "eta0": None, "p_dc": None, "nu": NU_DEFAULT,
         "mu": None, "chi": None, "kappa": KAPPA_DEFAULT, "output_prefix": "compare_decoy"},
        ("alpha_d_grid", "eta0", "p_dc"),
        _run_compare_decoy,
        flag_help={"chi": "fix the swap source brightness"},
    ),
    "crossover": _Command(
        "find the decoy/swap crossover distance",
        {**_COMMON_DEFAULTS, "eta0": None, "p_dc": None, "alpha_min": 0.0, "alpha_max": 60.0,
         "step": 2.5, "nu": NU_DEFAULT, "kappa": KAPPA_DEFAULT, "output_prefix": "crossover"},
        ("eta0", "p_dc"),
        _run_crossover,
    ),
    "figure-data": _Command(
        "emit the published parameter grids",
        {**_COMMON_DEFAULTS, "figure": None, "variant": None, "alpha_d_grid": None,
         "chi_grid": None, "workers": None},
        (),
        _run_figure_data,
        stem_key="figure",
        flag_help={
            "alpha_d_grid": "override the preset grid",
            "chi_grid": "override the preset grid (fig3, fig4, fig5)",
        },
    ),
}

# Command-line flag and argparse settings of every config key.
_FLAGS: Dict[str, Tuple[str, Dict]] = {
    "chi": ("--chi", {"type": float}),
    "eta0": ("--eta0", {"type": float}),
    "alpha_d": ("--alpha-d", {"type": float}),
    "p_dc": ("--pdc", {"type": float, "help": "explicit dark-count probability"}),
    "constraint": ("--constraint", {
        "action": "store_const", "const": True,
        "help": "tie dark counts to eta0 via the efficiency/dark-count fit",
    }),
    "constraint_a": ("--constraint-a", {"type": float}),
    "constraint_b": ("--constraint-b", {"type": float}),
    "kappa": ("--kappa", {"type": float}),
    "nu": ("--nu", {"type": float}),
    "mu": ("--mu", {"type": float, "help": "fix the decoy signal intensity"}),
    "alpha_min": ("--alpha-min", {"type": float}),
    "alpha_max": ("--alpha-max", {"type": float}),
    "step": ("--step", {"type": float}),
    "chi_grid": ("--chi-grid", {}),
    "eta0_grid": ("--eta0-grid", {}),
    "alpha_d_grid": ("--alpha-d-grid", {}),
    "figure": ("--figure", {"choices": list(_FIGURES)}),
    "variant": ("--variant", {"help": "single variant letter; default all"}),
    "workers": ("--workers", {
        "type": int, "help": "accepted for old command lines and manifests; runs are always serial",
    }),
    "n_max": ("--n-max", {"type": int, "help": "Fock cutoff per mode"}),
    "convergence_tol": ("--tol", {"type": float, "help": "truncation convergence tolerance"}),
    "output_dir": ("--output-dir", {"help": "directory for output files"}),
    "output_prefix": ("--output-prefix", {}),
}


@functools.lru_cache(maxsize=1)  # one parse tree per process; parse_args does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapkd",
        description="Simulate and optimize entanglement-swapping QKD key rates.",
    )
    parser.add_argument("--version", action="version", version=f"swapkd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file or run manifest")
        for key in command.defaults:
            flag, options = _FLAGS[key]
            if key in command.flag_help:
                options = dict(options, help=command.flag_help[key])
            p.add_argument(flag, dest=key, **options)
    return parser


def _run(name: str, args: argparse.Namespace) -> int:
    """Resolve the config, check required keys, run, write the CSVs and the manifest."""
    t0 = time.time()
    command = COMMANDS[name]
    config = _resolve(args, command.defaults)
    for key in command.required:
        if config[key] is None:
            raise ConfigError(f"{key} is required")
    files, results = command.run(config)
    stem = config[command.stem_key]
    outputs = []
    for suffix, columns, rows in files:
        path = _out_path(config, f"{stem}{suffix}.csv")
        _write_csv(path, columns, rows)
        outputs.append(os.path.basename(path))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool": "swapkd",
        "version": __version__,
        "command": name,
        "config": config,
        "outputs": outputs,
        "wall_time_s": time.time() - t0,
    }
    if results is not None:
        payload["results"] = results
    with open(_out_path(config, f"{stem}_manifest.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args.command, args)
    except (InvalidInputError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    # ArithmeticError comes from fock.rotation_eigensystem; any other
    # exception is a bug and propagates with its traceback
    except NUMERICAL_ERRORS + (ArithmeticError,) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
