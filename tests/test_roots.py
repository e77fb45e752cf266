"""Dominant-root enclosure tests against independent root computations."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucasdisc.roots import (
    MAX_PRECISION_BITS,
    RootEnclosure,
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
    lo, hi = iv.lo, iv.hi
    assert lo <= hi
    # The dominant term should sit within 3/2 of the exact value 352.
    assert abs(352 - lo) < 2 and abs(352 - hi) < 2


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
