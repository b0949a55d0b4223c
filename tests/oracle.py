"""Perturbative desk check for the entanglement-swapping coincidence statistics.

Everything here is deliberately independent of the package under test: states are
sparse dicts mapping occupation tuples to amplitudes, the pair-production
exponential is Taylor-expanded operator by operator, beamsplitters act by
binomial substitution on creation-operator polynomials, and threshold detection
is an explicit loss/dark-count branching sum over surviving photon numbers.
Emission events are truncated at two pairs total, which bounds the neglected
coincidence weight at O(chi^6); good enough for low-order QBER cross-checks.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

State = Dict[Tuple[int, ...], complex]

MODES = ("aH", "aV", "bH", "bV", "cH", "cV", "dH", "dV")
_IDX = {m: i for i, m in enumerate(MODES)}

# Source pairings: (aH,bH) and (aV,bV) from source 1, (cH,dH) and (cV,dV) from source 2.
PAIRINGS = (("aH", "bH"), ("aV", "bV"), ("cH", "dH"), ("cV", "dV"))

# Accepted two-click heralds, as (clicked BSM detectors, target Bell state).
HERALDS = (
    (("bH", "cV"), "psi_minus"),
    (("bV", "cH"), "psi_minus"),
    (("bH", "bV"), "psi_plus"),
    (("cH", "cV"), "psi_plus"),
)

_TAYLOR_TERMS = 18
_TAYLOR_CAP = 8  # per-mode occupation bound while iterating the Taylor series


def _prune(state: State, tiny: float = 1e-30) -> State:
    return {occ: a for occ, a in state.items() if abs(a) > tiny}


def _apply_pair_generator(state: State, i1: int, i2: int, cap: int) -> State:
    """Apply K = a1^dag a2^dag + a1 a2 to a sparse state."""
    out: State = {}
    for occ, amp in state.items():
        m, n = occ[i1], occ[i2]
        if m + 1 <= cap and n + 1 <= cap:
            up = list(occ)
            up[i1], up[i2] = m + 1, n + 1
            key = tuple(up)
            out[key] = out.get(key, 0.0) + amp * math.sqrt((m + 1) * (n + 1))
        if m >= 1 and n >= 1:
            dn = list(occ)
            dn[i1], dn[i2] = m - 1, n - 1
            key = tuple(dn)
            out[key] = out.get(key, 0.0) + amp * math.sqrt(m * n)
    return out


def apply_pair_squeezer(state: State, mode1: str, mode2: str, chi: float) -> State:
    """Apply exp[i*chi*(a1^dag a2^dag + a1 a2)] by a truncated operator Taylor series."""
    i1, i2 = _IDX[mode1], _IDX[mode2]
    total: State = dict(state)
    term: State = dict(state)
    for k in range(1, _TAYLOR_TERMS + 1):
        term = _apply_pair_generator(term, i1, i2, _TAYLOR_CAP)
        term = {occ: a * (1j * chi) / k for occ, a in term.items()}
        term = _prune(term)
        if not term:
            break
        for occ, a in term.items():
            total[occ] = total.get(occ, 0.0) + a
    return _prune(total)


def pair_amplitude(chi: float, n: int) -> complex:
    """Amplitude of the |n,n> component of a single squeezed pair (desk value)."""
    vac: State = {(0,) * 8: 1.0}
    st = apply_pair_squeezer(vac, "aH", "bH", chi)
    occ = [0] * 8
    occ[_IDX["aH"]] = occ[_IDX["bH"]] = n
    return complex(st.get(tuple(occ), 0.0))


def two_source_state(chi: float, max_pairs: int = 2) -> State:
    """Both PDC sources, truncated to at most `max_pairs` emitted pairs in total."""
    st: State = {(0,) * 8: 1.0}
    for m1, m2 in PAIRINGS:
        st = apply_pair_squeezer(st, m1, m2, chi)
    return {occ: a for occ, a in st.items() if sum(occ) <= 2 * max_pairs}


def beamsplitter(state: State, mode1: str, mode2: str, theta: float) -> State:
    """Mix two modes: a1^dag -> cos(t) a1^dag - sin(t) a2^dag, a2^dag -> sin(t) a1^dag + cos(t) a2^dag.

    Implemented by expanding (a1^dag)^m (a2^dag)^n with binomial sums, so no
    matrix exponentials are involved.
    """
    i1, i2 = _IDX[mode1], _IDX[mode2]
    c, s = math.cos(theta), math.sin(theta)
    out: State = {}
    for occ, amp in state.items():
        m, n = occ[i1], occ[i2]
        base = amp / math.sqrt(math.factorial(m) * math.factorial(n))
        for r in range(m + 1):
            f1 = math.comb(m, r) * (c ** r) * ((-s) ** (m - r))
            for t in range(n + 1):
                f2 = math.comb(n, t) * (s ** t) * (c ** (n - t))
                p = r + t
                q = (m - r) + (n - t)
                coeff = base * f1 * f2 * math.sqrt(math.factorial(p) * math.factorial(q))
                if coeff == 0.0:
                    continue
                new = list(occ)
                new[i1], new[i2] = p, q
                key = tuple(new)
                out[key] = out.get(key, 0.0) + coeff
    return _prune(out)


def phase_flip(state: State, mode: str) -> State:
    i = _IDX[mode]
    return {occ: a * ((-1.0) ** occ[i]) for occ, a in state.items()}


def _threshold_weight(click: bool, n: int, eta: float, p_dc: float) -> float:
    """Branch n photons through a transmittance-eta loss; click iff any survive or a dark count fires."""
    p_click = 0.0
    for j in range(n + 1):
        pj = math.comb(n, j) * (eta ** j) * ((1.0 - eta) ** (n - j))
        p_click += pj * (1.0 if j > 0 else p_dc)
    return p_click if click else 1.0 - p_click


def pairs_per_source(occ: Tuple[int, ...]) -> Tuple[int, int]:
    """(n_aH + n_aV, n_dH + n_dV): the pairs each source emitted into this component.

    The BSM mixes only b with c and each analyzer only the H and V modes of
    one side, so every optic of the link keeps both sums.
    """
    return occ[_IDX["aH"]] + occ[_IDX["aV"]], occ[_IDX["dH"]] + occ[_IDX["dV"]]


def detection_sectors(
    state: State, clicks: Dict[str, bool], eta: Dict[str, float], p_dc: float
) -> Dict[Tuple[int, int], float]:
    """Probability that exactly the demanded click/no-click outcome fires on
    every mode, binned by each component's pairs_per_source.

    The binning is exact: the detection sum is diagonal in the occupations,
    and each occupation tuple belongs to one (N_A, N_B).
    """
    sectors: Dict[Tuple[int, int], float] = {}
    for occ, amp in state.items():
        w = abs(amp) ** 2
        for mode, wanted in clicks.items():
            w *= _threshold_weight(wanted, occ[_IDX[mode]], eta[mode], p_dc)
            if w == 0.0:
                break
        key = pairs_per_source(occ)
        sectors[key] = sectors.get(key, 0.0) + w
    return sectors


Sectors = Dict[str, Dict[Tuple[str, str, int, int], float]]


def coincidence_sectors(
    chi: float,
    eta0: float,
    alpha_d_db: float,
    p_dc: float,
    max_pairs: int = 2,
) -> Sectors:
    """Joint herald+coincidence probabilities per basis and (Alice, Bob, N_A, N_B).

    Alice's and Bob's outcomes are "H" or "V"; N_A and N_B are the pairs
    each source emitted (pairs_per_source), summed over all four heralds
    with the psi+ heralds rotated into the psi- frame (V -> -V phase on
    mode d).
    """
    eta_arm = eta0 * 10.0 ** (-alpha_d_db / 40.0)
    base = two_source_state(chi, max_pairs=max_pairs)
    mixed = beamsplitter(base, "bH", "cH", math.pi / 4.0)
    mixed = beamsplitter(mixed, "bV", "cV", math.pi / 4.0)

    bsm_modes = ("bH", "bV", "cH", "cV")
    eta_map = {m: eta_arm for m in MODES}
    out: Sectors = {}
    for basis, theta in (("Z", 0.0), ("X", math.pi / 4.0)):
        table: Dict[Tuple[str, str, int, int], float] = {}
        for clicked, target in HERALDS:
            st = mixed
            if target == "psi_plus":
                st = phase_flip(st, "dV")
            if theta != 0.0:
                st = beamsplitter(st, "aH", "aV", theta)
                st = beamsplitter(st, "dH", "dV", theta)
            herald_req = {m: (m in clicked) for m in bsm_modes}
            for a_out in ("H", "V"):
                for b_out in ("H", "V"):
                    req = dict(herald_req)
                    req["aH"] = a_out == "H"
                    req["aV"] = a_out == "V"
                    req["dH"] = b_out == "H"
                    req["dV"] = b_out == "V"
                    for (n_a, n_b), p in detection_sectors(st, req, eta_map, p_dc).items():
                        key = (a_out, b_out, n_a, n_b)
                        table[key] = table.get(key, 0.0) + p
        out[basis] = table
    return out


def coincidence_tables(
    chi: float,
    eta0: float,
    alpha_d_db: float,
    p_dc: float,
    max_pairs: int = 2,
) -> Dict[str, Dict[str, float]]:
    """Joint herald+coincidence probabilities per basis, split into right/wrong outcomes.

    Wrong means Alice and Bob see the same polarization after the psi+ heralds
    have been rotated into the psi- frame (V -> -V phase on mode d).
    """
    out: Dict[str, Dict[str, float]] = {}
    for basis, table in coincidence_sectors(chi, eta0, alpha_d_db, p_dc, max_pairs).items():
        wrong = sum(p for (a_out, b_out, _, _), p in table.items() if a_out == b_out)
        right = sum(p for (a_out, b_out, _, _), p in table.items() if a_out != b_out)
        out[basis] = {"right": right, "wrong": wrong, "total": right + wrong}
    return out


def qber_oracle(chi: float, eta0: float, alpha_d_db: float, p_dc: float, max_pairs: int = 2) -> float:
    tables = coincidence_tables(chi, eta0, alpha_d_db, p_dc, max_pairs=max_pairs)
    wrong = tables["Z"]["wrong"] + tables["X"]["wrong"]
    total = tables["Z"]["total"] + tables["X"]["total"]
    if total <= 0.0:
        raise ZeroDivisionError("no coincidences at these parameters")
    return wrong / total
