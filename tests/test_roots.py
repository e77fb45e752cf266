"""Dominant-root enclosure tests against independent root computations."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import to_rational

from lucasdisc.roots import (
    _IV,
    MAX_PRECISION_BITS,
    RootEnclosure,
    _alpha_iv,
    _dominant_iv,
    _last_negative,
    binet_error_check,
    binet_vs_power2_check,
    dominant_root,
    gk_sign,
    growth_bounds_check,
)


def test_golden_ratio_enclosure_exact():
    # k = 2: the dominant root is (1 + sqrt(5))/2, so (2x - 1)^2 = 5.
    enc = dominant_root(2)
    lo, hi = 2 * enc.lo - 1, 2 * enc.hi - 1
    assert lo * lo < 5 < hi * hi


def test_tribonacci_root_against_numpy():
    enc = dominant_root(3)
    roots = np.roots([1, -1, -1, -1])
    real = max(r.real for r in roots if abs(r.imag) < 1e-9)
    assert abs(real - 1.8392867552141612) < 1e-10
    assert float(enc.lo) - 1e-12 <= real <= float(enc.hi) + 1e-12


@pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 10, 16, 25, 50, 100, 200, 400])
def test_enclosure_brackets_sign_change(k):
    enc = dominant_root(k)
    assert isinstance(enc, RootEnclosure)
    assert gk_sign(k, enc.lo) < 0 < gk_sign(k, enc.hi)
    assert enc.width() <= Fraction(1, 2**enc.precision_bits)
    # endpoints stay inside the a-priori bracket [2*(1 - 2^(1-k)), 2]; for large k
    # that bracket is already narrower than the requested width, so hi may equal 2
    assert 2 - Fraction(2, 2 ** (k - 1)) <= enc.lo < enc.hi <= 2


def fraction_bisection_root(k, bits):
    """The enclosure by halving Fraction brackets from [2(1 - 2^-k), 2]."""
    lo, hi = Fraction(2 * (2**k - 1), 2**k), Fraction(2)
    while hi - lo > Fraction(1, 2**bits):
        mid = (lo + hi) / 2
        if gk_sign(k, mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


@pytest.mark.parametrize(
    "k, bits",
    [(2, 16), (2, 128), (3, 300), (5, 64), (16, 16), (17, 16), (18, 16), (40, 39), (40, 40),
     (40, 128), (120, 128), (129, 128), (130, 128), (200, 256), (300, 128), (455, 512)],
)
def test_enclosure_equals_fraction_bisection(k, bits):
    # bits < k - 1 included: the starting bracket is already narrow enough.
    enc = dominant_root(k, bits)
    assert (enc.lo, enc.hi) == fraction_bisection_root(k, bits)
    assert enc.precision_bits == bits


@given(st.integers(min_value=-(2**80), max_value=2**80), st.integers(0, 2**70), st.integers(1, 2**70))
@settings(max_examples=200, deadline=None)
def test_last_negative_finds_threshold(threshold, below, above):
    # f(x) = -1 for x < threshold, +1 from it on; the bracket straddles it.
    lo, hi = threshold - 1 - below, threshold + above - 1
    assert _last_negative(lambda x: -1 if x < threshold else 1, lo, hi) == threshold - 1


@pytest.mark.parametrize("threshold", [10**3 + 1, 2**63, 2**63 + 1, 65854579697213342, 10**20 - 1])
def test_last_negative_on_brackets_wider_than_2_to_63(threshold):
    assert _last_negative(lambda x: x - threshold, 10**3, 10**20) == threshold - 1
    assert _last_negative(lambda x: x - threshold, -(2**100), 2**100) == threshold - 1


def test_last_negative_rejects_invalid_bracket():
    with pytest.raises(AssertionError):
        _last_negative(lambda x: x - 5, 5, 10)  # f(lo) == 0
    with pytest.raises(AssertionError):
        _last_negative(lambda x: x - 5, 0, 5)  # f(hi) == 0
    with pytest.raises(AssertionError):
        _last_negative(lambda x: 5 - x, 0, 10)  # decreasing
    with pytest.raises(AssertionError):
        _last_negative(lambda x: x - 50, 0, 10)  # crossing beyond hi


def test_enclosure_precision_escalation():
    enc = dominant_root(5, 300)
    assert enc.width() <= Fraction(1, 2**300)
    inner = dominant_root(5, 300)
    outer = dominant_root(5, 64)
    assert outer.lo <= inner.lo <= inner.hi <= outer.hi


def test_gk_sign_values():
    assert gk_sign(5, Fraction(2)) > 0
    assert gk_sign(5, Fraction(3, 2)) < 0
    with pytest.raises(ValueError):
        gk_sign(5, Fraction(1))


def test_binet_dominant_is_a_tight_interval():
    iv = _dominant_iv(5, 9, 128)
    lo, hi = iv.a, iv.b
    assert lo <= hi
    # The dominant term should sit within 3/2 of the exact value 352.
    assert abs(352 - lo) < 2 and abs(352 - hi) < 2


def exact_endpoints(x):
    """The endpoints of an mpmath interval as Fractions."""
    return tuple(Fraction(*to_rational(e)) for e in x._mpi_)


@pytest.mark.parametrize("k", [2, 3, 5, 12, 20, 29, 30])
@pytest.mark.parametrize("bits", [16, 128, 256])
def test_interval_power_encloses_exact_powers(k, bits):
    # At 53 bits the dyadic endpoints round outward on conversion; at the
    # second precision they convert exactly.  Both must enclose.
    enc = dominant_root(k, bits)
    for n in sorted({2 - k, 0, 1, 2, 3, 50, 700, 3000}):
        exact = (enc.lo ** (n - 1), enc.hi ** (n - 1))
        for prec in (53, max(bits, k) + max(n, 0) + 8):
            _IV.prec = prec
            lo, hi = exact_endpoints(_alpha_iv(k, bits) ** (n - 1))
            assert all(lo <= x <= hi for x in exact), (n, prec)


def test_dominant_iv_encloses_exact_dominant_terms():
    enc = dominant_root(5, 128)
    _IV.prec = 128 + 9 + 8
    lo, hi = exact_endpoints(_dominant_iv(5, 9, 128))
    for x in (enc.lo, enc.hi):
        assert lo <= (x - 1) / (2 + 6 * (x - 2)) * (2 * x - 1) * x**8 <= hi


def test_checks_leave_global_mpmath_precision_alone():
    saved = mpmath.iv.prec, mpmath.mp.prec
    try:
        mpmath.iv.prec, mpmath.mp.prec = 71, 67
        assert growth_bounds_check(7, 30) and binet_error_check(7, 30) and binet_vs_power2_check(13, 20)
        assert (mpmath.iv.prec, mpmath.mp.prec) == (71, 67)
    finally:
        mpmath.iv.prec, mpmath.mp.prec = saved


@pytest.mark.parametrize("k", range(2, 13))
@pytest.mark.parametrize("n", [0, 1, 2, 5, 40])
def test_growth_bounds_grid(k, n):
    assert growth_bounds_check(k, n)


def test_growth_bounds_domain():
    with pytest.raises(ValueError):
        growth_bounds_check(5, -1)


@pytest.mark.parametrize("k", range(2, 21))
def test_dominant_term_error_below_three_halves(k):
    for n in list(range(2 - k, 5)) + [20, 60]:
        assert binet_error_check(k, n)
    with pytest.raises(ValueError):
        binet_error_check(k, 1 - k)


@pytest.mark.parametrize("k", range(12, 21))
def test_power2_comparison_on_domain(k):
    for n in [0, 1, 5, 20]:
        assert binet_vs_power2_check(k, n)


def test_power2_comparison_domain_error():
    with pytest.raises(ValueError):
        binet_vs_power2_check(16, 300)


def test_max_precision_cap_is_sane():
    assert MAX_PRECISION_BITS >= 1024
