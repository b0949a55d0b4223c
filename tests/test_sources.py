import math

import numpy as np
import pytest

from dense_reference import (
    MODE_ORDER,
    ChannelSegment,
    PdcSource,
    effective_efficiency,
    two_source_state,
)
from swapkd.fock import TruncationPolicy
from swapkd.sources import CHI_CAP, pair_amplitudes


def test_pair_amplitudes_geometric_form():
    chi = 0.2
    c = pair_amplitudes(chi, 5)
    t = math.tanh(chi)
    for n in range(6):
        expect = (1j * t) ** n / math.cosh(chi)
        assert c[n] == pytest.approx(expect, abs=1e-15)
    # truncated norm approaches 1 from below with a tanh^2 tail
    tail = t ** 12 / math.cosh(chi) ** 2 / (1 - t ** 2)
    assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0 - tail, abs=1e-15)


def test_two_source_state_structure():
    chi = 0.15
    pol = TruncationPolicy(n_max=3)
    reg = two_source_state(chi, pol)
    assert reg.labels == MODE_ORDER
    # norm deficit is exactly the truncated geometric tail of the four pairs
    pair_norm = float(np.sum(np.abs(pair_amplitudes(chi, pol.n_max)) ** 2))
    assert reg.norm_squared() == pytest.approx(pair_norm ** 4, abs=1e-14)
    assert reg.norm_squared() == pytest.approx(1.0, abs=1e-5)
    amp = reg.amplitudes
    # vacuum amplitude: one 1/cosh factor per two-mode-squeezed pair
    assert amp[(0,) * 8] == pytest.approx(1.0 / math.cosh(chi) ** 4, abs=1e-15)
    # one pair in (aH, bH): amplitude i tanh(chi) relative to vacuum
    idx = {m: i for i, m in enumerate(MODE_ORDER)}
    occ = [0] * 8
    occ[idx["aH"]] = occ[idx["bH"]] = 1
    expect = 1j * math.tanh(chi) / math.cosh(chi) ** 4
    assert amp[tuple(occ)] == pytest.approx(expect, abs=1e-15)
    # pairs never straddle the source pairings
    occ = [0] * 8
    occ[idx["aH"]] = occ[idx["cH"]] = 1
    assert amp[tuple(occ)] == 0.0


def test_two_source_state_factorizes():
    """Amplitudes multiply across the four independent squeezed pairs."""
    chi = 0.1
    pol = TruncationPolicy(n_max=2)
    reg = two_source_state(chi, pol)
    c = pair_amplitudes(chi, 2)
    idx = {m: i for i, m in enumerate(MODE_ORDER)}
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(0, 3, size=4)
        occ = [0] * 8
        for k, (m1, m2) in enumerate((("aH", "bH"), ("aV", "bV"), ("cH", "dH"), ("cV", "dV"))):
            occ[idx[m1]] = occ[idx[m2]] = int(n[k])
        expect = c[n[0]] * c[n[1]] * c[n[2]] * c[n[3]]
        assert reg.amplitudes[tuple(occ)] == pytest.approx(expect, abs=1e-15)


def test_pdc_source_validation():
    src = PdcSource(chi=0.2)
    assert src.mean_pairs_per_polarization == pytest.approx(math.sinh(0.2) ** 2)
    with pytest.raises(ValueError):
        PdcSource(chi=CHI_CAP + 0.01)
    with pytest.raises(ValueError):
        PdcSource(chi=-0.1)


def test_channel_segment():
    assert ChannelSegment(10.0).transmission == pytest.approx(0.1)
    assert ChannelSegment(0.0).transmission == 1.0
    with pytest.raises(ValueError):
        ChannelSegment(-1.0)


def test_effective_efficiency():
    assert effective_efficiency(0.4, 10.0) == pytest.approx(0.04)
    assert effective_efficiency(1.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        effective_efficiency(1.2, 0.0)
