"""Discriminants, windows, and exclusion-bound solver tests."""

import math

import mpmath
import pytest

from lucasdisc.bounds import (
    K_CAP,
    _bl_cap,
    _bl_log_b,
    _matveev_gap,
    bl_crossover_k,
    bound_profile,
    discriminant,
    localize_k_by_power2,
    m_range,
    n_window,
    solve_bl_k_bound,
    solve_matveev_k_bound,
)
from lucasdisc.twoadic import nu2


def test_discriminant_spot_values():
    assert discriminant(2) == 5
    assert discriminant(3) == 44
    assert discriminant(4) == 563


@pytest.mark.parametrize("k", list(range(2, 80)) + [123, 200, 321, 500])
def test_discriminant_closed_form_divides_exactly(k):
    numerator = 2 ** (k + 1) * k**k - (k + 1) ** (k + 1)
    assert numerator % (k - 1) ** 2 == 0
    value = discriminant(k)
    assert value > 0
    assert value * (k - 1) ** 2 == numerator


def test_discriminant_parity_split():
    for k in range(2, 60):
        expected = 0 if k % 2 == 0 else k - 1
        assert nu2(discriminant(k)) == expected


def test_n_window_reference_value():
    lo, hi = n_window(1024)
    assert abs(lo - 11243.9) < 1e-6
    assert abs(hi - 11246.3) < 1e-6
    assert hi == lo + 2.4


def test_n_window_domain():
    with pytest.raises(ValueError):
        n_window(200)


# Log-spaced k from 201 to the k cap, plus the k where a double-precision
# formula for w(k) was off by more than one ulp.
WINDOW_GRID = sorted(
    {round(201 * (K_CAP / 201) ** (i / 400)) for i in range(401)} | {69_997, 10**16 + 12_345}
)


def w_200(k):
    """w(k) = k + (k-2) log2(k) - 1/10 in 200-bit arithmetic."""
    with mpmath.workprec(200):
        return k + (k - 2) * mpmath.log(k, 2) - mpmath.mpf(1) / 10


def test_n_window_is_correctly_rounded():
    for k in WINDOW_GRID:
        lo, hi = n_window(k)
        assert lo == float(w_200(k)), k
        assert hi == lo + 2.4


def test_bound_profile_m_band_matches_200_bit_formula():
    for k in WINDOW_GRID:
        profile = bound_profile(k)
        with mpmath.workprec(200):
            w = w_200(k)
            m_lo = int(mpmath.ceil((w - k) / (k + 1)))
            m_hi = int(mpmath.floor((w + mpmath.mpf(12) / 5) / (k + 1)))
        assert (profile.m_lo, profile.m_hi) == (m_lo, m_hi), k


def test_n_window_monotone_in_k():
    prev = n_window(201)[0]
    for k in [250, 300, 1000, 10_000, 1_000_000]:
        lo, _ = n_window(k)
        assert lo > prev
        prev = lo


def test_matveev_solver_caps():
    caps = solve_matveev_k_bound()
    assert caps.k_max == 65854579697213341
    assert caps.n_max == 3745158725196720903
    assert caps.k_max < 7 * 10**16
    assert caps.n_max < 4 * 10**18
    # The cap is the last k before the gap turns nonnegative.
    with mpmath.workprec(160):
        assert _matveev_gap(caps.k_max) < 0 <= _matveev_gap(caps.k_max + 1)
        assert caps.n_max == int(mpmath.floor(w_200(caps.k_max) + mpmath.mpf(12) / 5))


def test_bl_chain_caps():
    assert bl_crossover_k() == 58711
    assert bl_crossover_k() < 59000
    assert solve_bl_k_bound() == 65964094
    assert solve_bl_k_bound() < 7 * 10**7
    # Each cap is the last k before its gap turns nonnegative.
    k = bl_crossover_k()
    assert _bl_log_b(k) - 10 * math.log(2) < 0 <= _bl_log_b(k + 1) - 10 * math.log(2)
    k = solve_bl_k_bound()
    assert (k - 1) - _bl_cap(k) < 0 <= k - _bl_cap(k + 1)


def test_m_range_envelope():
    assert m_range() == (8, 57)
    lo, hi = m_range(10**9)
    assert lo == 8
    assert hi < 57


def test_localize_k_by_power2():
    assert localize_k_by_power2(9) == (212, 812)
    lo, hi = localize_k_by_power2(16)
    assert lo == 2**16 - 300 and hi == 2**16 + 300
    lo, hi = localize_k_by_power2(57)
    assert lo >= hi  # clipped empty at the cap
    with pytest.raises(ValueError):
        localize_k_by_power2(7)


def test_bound_profile_consistency():
    profile = bound_profile(1024)
    assert profile.m_lo == profile.m_hi == 10
    assert profile.a_max == math.floor(6 * math.log(1024) + 2) == 43
    # n = m*(k+1) + r with 0 <= r <= k, so m = n // (k+1) for n inside the window
    lo, hi = n_window(1024)
    assert math.floor(lo / 1025) <= profile.m_lo
    assert profile.m_hi <= math.floor(hi / 1025)
    with pytest.raises(ValueError):
        bound_profile(200)
