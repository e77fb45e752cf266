"""Discriminants, windows, and exclusion-bound solver tests."""

import decimal
import math

import mpmath
import pytest

from lucasdisc import bounds
from lucasdisc.bounds import (
    K_CAP,
    _bl_cap,
    _bl_log_b,
    _ell,
    _matveev_gap,
    bl_crossover_k,
    bound_profile,
    discriminant,
    localize_k_by_power2,
    m_range,
    n_window,
    solve_bl_k_bound,
    solve_matveev_k_bound,
    window_integers,
)
from lucasdisc.roots import PrecisionError, binet_error_check, growth_bounds_check
from lucasdisc.sequences import LUCAS, SeqParams, term_iter
from lucasdisc.twoadic import l_quantity, lucas_congruence_parts, nu2


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


def test_discriminant_domain():
    with pytest.raises(ValueError, match="need k >= 2, got k=1"):
        discriminant(1)


def test_discriminant_parity_split():
    for k in range(2, 60):
        expected = 0 if k % 2 == 0 else k - 1
        assert nu2(discriminant(k)) == expected


def test_lucas_parity_cells():
    # With n = m(k+1) + r, L(n) is odd iff r is 1 or 2; |disc| is odd iff k is
    # even (above), so odd k with r in {1, 2} and even k with r >= 3 are closed.
    for k in range(2, 61):
        for n, value in term_iter(SeqParams(k, LUCAS), 0):
            if n >= 8 * (k + 1):
                break
            assert value % 2 == (n % (k + 1) in (1, 2)), (k, n)
    # The same from the congruence, for every k: 2^(r-2) B(m, r) is odd at
    # r = 1 and 2, and holds 2^(r-2) >= 2 at r >= 3.
    for m in range(2_000):
        assert l_quantity(m, 1) == 8 * m + 2, m
        assert l_quantity(m, 2) == 4 * m * m + 6 * m + 3, m
    for k in (3, 4, 9, 10, 61):
        for m in range(5):
            shifts = [lucas_congruence_parts(k, m, r)[2] for r in range(1, k + 1)]
            assert shifts[:2] == [0, 0] and min(shifts[2:]) >= 1, (k, m)


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


def test_ell_at_powers_of_two_is_exact():
    for j in range(8, 57):
        assert _ell(2**j) == 10 * j * (2**j - 2), j


def test_ell_matches_200_bit_formula():
    ks = WINDOW_GRID + [2**j + d for j in range(8, 57) for d in (-1, 1)]
    for k in ks:
        with mpmath.workprec(200):
            assert _ell(k) == int(mpmath.floor(10 * (k - 2) * mpmath.log(k, 2))), k


def test_ell_undecided_raises(monkeypatch):
    monkeypatch.setattr(bounds, "_pow_bounds", lambda x, n, w: (1, 2, 0))
    with pytest.raises(PrecisionError, match="window integer l\\(k\\) for k=1000"):
        _ell(1000)


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


def test_window_integers_match_200_bit_formula():
    for k in WINDOW_GRID[::10] + [1024]:
        w = w_200(k)
        with mpmath.workprec(200):
            start = int(mpmath.floor(w))
            expected = [n for n in range(start, start + 4) if w < n < w + mpmath.mpf(12) / 5]
        assert window_integers(k) == expected, k
    assert window_integers(1024) == [11244, 11245, 11246]
    with pytest.raises(ValueError):
        window_integers(200)


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
    assert caps.k_max <= K_CAP  # the campaigns search k up to K_CAP
    assert caps.n_max < 4 * 10**18
    # The cap is the last k before the gap turns nonnegative, in the solver's
    # decimal gap and in a 160-bit mpmath one.
    assert _matveev_gap(caps.k_max) < 0 <= _matveev_gap(caps.k_max + 1)
    assert mpmath_gap_160(caps.k_max) < 0 <= mpmath_gap_160(caps.k_max + 1)
    with mpmath.workprec(160):
        assert caps.n_max == int(mpmath.floor(w_200(caps.k_max) + mpmath.mpf(12) / 5))


def mpmath_gap_160(k):
    """(k/2) log 2 - 3.5e11 (log k)^2 log(3 k log k) in 160-bit arithmetic."""
    with mpmath.workprec(160):
        logk = mpmath.log(k)
        return k * mpmath.log(2) / 2 - mpmath.mpf("3.5e11") * logk**2 * mpmath.log(3 * k * logk)


def test_decimal_work_leaves_the_global_context_alone():
    # Each decimal computation sets its own precision: a 7-digit global
    # context neither changes a result nor is changed.
    with decimal.localcontext() as ctx:
        ctx.prec = 7
        assert growth_bounds_check(7, 30) and binet_error_check(7, 30)
        assert bound_profile(1024).n_lo == 11243.9
        assert solve_matveev_k_bound.__wrapped__() == solve_matveev_k_bound()
        assert decimal.getcontext().prec == 7


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
    with pytest.raises(ValueError, match="need k_max > 201, got 201"):
        m_range(201)


def test_localize_k_by_power2():
    assert localize_k_by_power2(9) == (212, 812)
    lo, hi = localize_k_by_power2(16)
    assert lo == 2**16 - 300 and hi == 2**16 + 300
    lo, hi = localize_k_by_power2(55)
    assert lo < hi  # the last band below the cap
    for m in (56, 57):
        lo, hi = localize_k_by_power2(m)
        assert lo >= hi, m  # clipped empty at the cap
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
