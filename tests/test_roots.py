"""Dominant-root enclosure tests against independent root computations."""

import math
import time
from fractions import Fraction
from functools import partial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.ctx_iv import MPIntervalContext

from lucasdisc import roots
from lucasdisc.roots import (
    MAX_PRECISION_BITS,
    PrecisionError,
    RootEnclosure,
    _binet_error_decision,
    _enclosure,
    _gap_sign,
    _growth_decision,
    _last_negative,
    _pow_bounds,
    _power2_decision,
    _seed_numerator,
    binet_error_check,
    binet_vs_power2_check,
    dominant_root,
    gk_sign,
    growth_bounds_check,
)
from lucasdisc.sequences import LUCAS, SeqParams, term


def exact_sign(k, x):
    """Sign of x^k (x - 2) + 1 at x = p/q from the full integer p^k (p - 2q) + q^(k+1)."""
    p, q = x.numerator, x.denominator
    value = p**k * (p - 2 * q) + q ** (k + 1)
    return (value > 0) - (value < 0)


def test_golden_ratio_enclosure_exact():
    # k = 2: the dominant root is (1 + sqrt(5))/2, so (2x - 1)^2 = 5.
    enc = dominant_root(2, 128)
    lo, hi = 2 * enc.lo - 1, 2 * enc.hi - 1
    assert lo * lo < 5 < hi * hi


def test_tribonacci_root_against_cardano():
    # Cardano's formula for the real root of x^3 - x^2 - x - 1, at 100 digits.
    enc = dominant_root(3, 128)
    with mpmath.workdps(100):
        s = 3 * mpmath.sqrt(33)
        real = (1 + mpmath.cbrt(19 + s) + mpmath.cbrt(19 - s)) / 3
        assert abs(real - mpmath.mpf("1.8392867552141611325518525646532866")) < mpmath.mpf(10) ** -33
        assert mpmath.mpf(enc.lo.numerator) / enc.lo.denominator < real
        assert real < mpmath.mpf(enc.hi.numerator) / enc.hi.denominator


def test_dominant_root_takes_its_precision_positionally_only():
    # One call form, so one cache key per enclosure.
    with pytest.raises(TypeError):
        dominant_root(5)
    with pytest.raises(TypeError):
        dominant_root(5, precision_bits=128)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 7, 10, 16, 25, 50, 100, 200, 400])
def test_enclosure_brackets_sign_change(k):
    enc = dominant_root(k, 128)
    assert isinstance(enc, RootEnclosure)
    assert exact_sign(k, enc.lo) < 0 < exact_sign(k, enc.hi)
    assert enc.width() <= Fraction(1, 2**enc.precision_bits)
    # endpoints stay inside the a-priori bracket [2*(1 - 2^(1-k)), 2]; for large k
    # that bracket is already narrower than the requested width, so hi may equal 2
    assert 2 - Fraction(2, 2 ** (k - 1)) <= enc.lo < enc.hi <= 2


def fraction_bisection_root(k, bits):
    """The enclosure by halving Fraction brackets from [2(1 - 2^-k), 2]."""
    lo, hi = Fraction(2 * (2**k - 1), 2**k), Fraction(2)
    while hi - lo > Fraction(1, 2**bits):
        mid = (lo + hi) / 2
        if exact_sign(k, mid) > 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


@pytest.mark.parametrize(
    "k, bits",
    [(2, 16), (2, 128), (3, 300), (5, 64), (16, 16), (17, 16), (18, 16), (40, 39), (40, 40),
     (40, 128), (120, 128), (129, 128), (130, 128), (200, 256), (300, 128), (455, 512), (1001, 1024)],
)
def test_enclosure_equals_fraction_bisection(k, bits):
    # bits < k - 1 included: the starting bracket is already narrow enough.
    enc = dominant_root(k, bits)
    assert (enc.lo, enc.hi) == fraction_bisection_root(k, bits)
    assert enc.precision_bits == bits


@given(st.integers(2, 260), st.integers(16, 300))
@settings(max_examples=150, deadline=None)
def test_enclosure_equals_fraction_bisection_property(k, bits):
    enc = dominant_root(k, bits)
    assert (enc.lo, enc.hi) == fraction_bisection_root(k, bits)
    # The Newton seed lands within one unit of the certified numerator, so the
    # first bracket [p - 1, p + 1] already straddles the sign change.
    s = max(bits, k - 1)
    assert abs(_seed_numerator(k, s) - enc.lo * 2**s) <= 1


# The query strata's top ends at 1024 bits, and k = 300 at 128 bits, where
# the scale s = k - 1 exceeds the requested bits.
@pytest.mark.parametrize("k, bits", [(455, 1024), (1000, 1024), (1003, 1024), (5000, 1024), (300, 128)])
def test_seed_within_one_unit_at_large_k(k, bits):
    s = max(bits, k - 1)
    assert abs(_seed_numerator(k, s) - dominant_root(k, bits).lo * 2**s) <= 1


@pytest.mark.parametrize("offset", [1, -1, 7, -7, 2**20, -(2**20)])
@pytest.mark.parametrize("k, bits", [(2, 128), (5, 64), (40, 39), (130, 128), (300, 128)])
def test_enclosure_survives_a_poor_seed(monkeypatch, k, bits, offset):
    expected = dominant_root(k, bits)
    seed = roots._seed_numerator
    monkeypatch.setattr(roots, "_seed_numerator", lambda k, s: seed(k, s) + offset)
    assert dominant_root.__wrapped__(k, bits) == expected


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
    assert gk_sign(1, Fraction(3, 2)) > 0  # x^1 (x - 2) + 1 = (x - 1)^2
    with pytest.raises(ValueError):
        gk_sign(0, Fraction(3, 2))
    with pytest.raises(ValueError):
        gk_sign(-3, Fraction(3, 2))


@st.composite
def sign_points(draw):
    """(k, x): x > 1 rational, or an endpoint of dominant_root(k, bits) or one unit 2^-(s+5) beyond it."""
    k = draw(st.integers(2, 300))
    kind = draw(st.sampled_from(["rational", "at_least_two", "endpoint"]))
    if kind == "rational":
        q = draw(st.integers(1, 2**200))
        return k, Fraction(draw(st.integers(q + 1, 2 * q)), q)
    if kind == "at_least_two":
        q = draw(st.integers(1, 2**64))
        return k, Fraction(draw(st.integers(2 * q, 5 * q)), q)
    bits = draw(st.integers(16, 300))
    enc = dominant_root(k, bits)
    unit = Fraction(1, 2 ** (max(bits, k - 1) + 5))
    return k, draw(st.sampled_from([enc.lo, enc.hi, enc.lo - unit, enc.hi + unit]))


@given(sign_points())
@settings(max_examples=400, deadline=None)
def test_gk_sign_equals_exact_sign(point):
    k, x = point
    assert gk_sign(k, x) == exact_sign(k, x) != 0


@pytest.mark.parametrize("k", [2, 3, 17, 200, 455, 1001])
def test_gk_sign_at_endpoints_midpoints_and_non_dyadic_points(k):
    enc = dominant_root(k, 128)
    unit = Fraction(1, 2 ** (max(128, k - 1) + 5))
    points = [enc.lo, enc.hi, (enc.lo + enc.hi) / 2, enc.lo - unit, enc.hi + unit, Fraction(3, 2), Fraction(2)]
    points += [Fraction(enc.lo.numerator * 3 + j, enc.lo.denominator * 3) for j in range(-2, 6)]
    for x in points:
        assert gk_sign(k, x) == exact_sign(k, x), x


def fibonacci_convergent(j):
    """F(j+1)/F(j): |x^2 (x - 2) + 1| is about F(j)^-2 there, the k = 2 root's best approximations."""
    a, b = 1, 1
    for _ in range(j - 1):
        a, b = b, a + b
    return Fraction(b, a)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 255, 256, 1001])
def test_pow_bounds_enclose_the_power(n):
    for x in (7, 2**64 + 1, 3**200):
        exact = x**n
        for w in (1, 8, 64, 300, 10**6):
            lo, hi, e = _pow_bounds(x, n, w)
            assert lo << e <= exact <= hi << e, (x, w)
            if exact.bit_length() <= w:
                assert (lo, hi, e) == (exact, exact, 0), (x, w)
            else:
                assert e > 0 and hi.bit_length() <= w + 1, (x, w)
                # A cut keeps about w bits: the bounds are close relative to the power.
                assert (hi - lo) << max(w - 2 * n.bit_length() - 2, 0) <= hi, (x, w)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 255, 256, 1001])
def test_two_base_pow_bounds_enclose_the_lower_and_the_upper_power(n):
    # lo bounds x^n from below and hi bounds y^n from above, under one shared cut.
    for x in (7, 2**64 + 1, 3**200):
        for y in (x, x + 1, 2 * x + 3):
            for w in (1, 8, 64, 300, 10**6):
                lo, hi, e = _pow_bounds(x, n, w, y)
                assert lo << e <= x**n and y**n <= hi << e, (x, y, w)
                if (y**n).bit_length() <= w:
                    assert (lo, hi, e) == (x**n, y**n, 0), (x, y, w)


def test_enclosure_takes_one_power_pass_for_both_bracket_ends(monkeypatch):
    calls = []

    def recording(*args):
        calls.append(args)
        return _pow_bounds(*args)

    monkeypatch.setattr(roots, "_pow_bounds", recording)
    for k, n in ((2, 0), (3, 1), (5, -3), (10, 40), (20, 700)):
        enc = dominant_root(k, 128)  # as _enclosure asks for it, so the root is cached
        calls.clear()
        bounds = _enclosure(k, n, 128, 200)
        assert len(calls) == 1, (k, n)
        x, m, w, y = calls[0]
        q = 1 << max(128, k - 1)
        assert (Fraction(x, q), Fraction(y, q), m, w) == (enc.lo, enc.hi, abs(n - 1), 200), (k, n)
        assert all(within(bounds, exact_dominant(k, n, end)) for end in (enc.lo, enc.hi)), (k, n)


def test_gap_sign_widens_until_the_bounds_separate(monkeypatch):
    widths = []

    def recording(x, n, w):
        widths.append(w)
        return _pow_bounds(x, n, w)

    monkeypatch.setattr(roots, "_pow_bounds", recording)
    for j in (20, 60, 61, 200):
        x = fibonacci_convergent(j)
        widths.clear()
        assert _gap_sign(2, x.numerator, x.denominator, 4) == exact_sign(2, x)
        # |g| ~ F(j)^-2 needs about 2 bitlen(q) bits, so w = 4 must double
        assert len(set(widths)) > 1 and widths[-1] >= 2 * x.denominator.bit_length()
        assert gk_sign(2, x) == exact_sign(2, x)


def test_dominant_root_at_k_20001_is_fast_and_certified():
    k = 20001
    start = time.perf_counter()
    enc = dominant_root.__wrapped__(k, 128)
    assert time.perf_counter() - start < 1.0
    assert enc.lo < enc.hi and enc.width() == Fraction(1, 2 ** (k - 1))
    iv = MPIntervalContext()
    iv.prec = k + 200
    signs = []
    for x in (enc.lo, enc.hi):
        v = iv.mpf(x.numerator) / x.denominator
        g = v**k * (v - 2) + 1
        assert g.b < 0 or g.a > 0
        signs.append(1 if g.a > 0 else -1)
    assert signs == [-1, 1]


def within(bounds, x):
    """Whether lo/lo_den <= x <= hi/hi_den for ``_enclosure`` bounds and an exact rational x."""
    (lo, lo_den), (hi, hi_den) = bounds
    num, den = x
    return lo * den <= num * lo_den and num * hi_den <= hi * den


def exact_power(x, m):
    """x^m as an unreduced (numerator, denominator) pair: exact, without the gcds of big operands."""
    p, q = x.numerator, x.denominator
    return (p**m, q**m) if m >= 0 else (q**-m, p**-m)


def exact_dominant(k, n, x):
    """D(x) = f(x) (2x - 1) x^(n-1) as an unreduced (numerator, denominator) pair."""
    lead = (x - 1) / (2 + (k + 1) * (x - 2)) * (2 * x - 1)
    num, den = exact_power(x, n - 1)
    return lead.numerator * num, lead.denominator * den


def test_binet_dominant_is_a_tight_interval():
    (lo, lo_den), (hi, hi_den) = _enclosure(5, 9, 128, 128 + 9 + 8)
    lo, hi = Fraction(lo, lo_den), Fraction(hi, hi_den)
    assert lo <= hi
    # The dominant term should sit within 3/2 of the exact value 352.
    assert abs(352 - lo) < 2 and abs(352 - hi) < 2


ENCLOSURE_KS = [2, 3, 5, 12, 20, 29, 30]
ENCLOSURE_BITS = [16, 128, 256]


def enclosure_ns(k):
    return sorted({2 - k, 0, 1, 2, 3, 50, 700, 3000})


@pytest.mark.parametrize("k", ENCLOSURE_KS)
@pytest.mark.parametrize("bits", ENCLOSURE_BITS)
def test_interval_power_encloses_exact_powers(k, bits):
    # At 53 bits the powers are cut hard; at the second width they are cut
    # only past the bit length of the check's operand.  Both must enclose
    # the exact power at both bracket ends.
    enc = dominant_root(k, bits)
    for n in enclosure_ns(k):
        for w in (53, max(bits, k) + max(n, 0) + 8):
            bounds = _enclosure(k, n, bits, w, lead=False)
            assert all(within(bounds, exact_power(x, n - 1)) for x in (enc.lo, enc.hi)), (n, w)


def test_enclosure_contains_exact_dominant_terms():
    for k in ENCLOSURE_KS:
        for bits in ENCLOSURE_BITS:
            enc = dominant_root(k, bits)
            for n in enclosure_ns(k):
                bounds = _enclosure(k, n, bits, max(bits, k) + max(n, 0) + 8)
                assert all(within(bounds, exact_dominant(k, n, x)) for x in (enc.lo, enc.hi)), (k, bits, n)


# The inequality checks as they were decided before the integer rewrite, on
# outward-rounded mpmath intervals: an oracle for the integer decisions.
ORACLE_IV = MPIntervalContext()


def oracle_alpha(k, bits):
    enc = dominant_root(k, bits)
    lo = ORACLE_IV.mpf(enc.lo.numerator) / enc.lo.denominator
    hi = ORACLE_IV.mpf(enc.hi.numerator) / enc.hi.denominator
    return ORACLE_IV.mpf([lo.a, hi.b])


def oracle_dominant(k, n, bits):
    alpha = oracle_alpha(k, bits)
    den = 2 + (k + 1) * (alpha - 2)
    assert den.a > 0
    return (alpha - 1) / den * (2 * alpha - 1) * alpha ** (n - 1)


def oracle_growth(k, n, value, bits):
    ORACLE_IV.prec = max(bits, k) + value.bit_length() + 8
    alpha = oracle_alpha(k, bits)
    low, high = alpha ** (n - 1), 2 * alpha**n
    if low.b <= value <= high.a:
        return True
    if low.a > value or high.b < value:
        return False
    return None


def oracle_binet_error(k, n, value, bits):
    ORACLE_IV.prec = max(bits, k) + value.bit_length() + 8
    err = abs(value - oracle_dominant(k, n, bits))
    if 2 * err.b < 3:
        return True
    if 2 * err.a >= 3:
        return False
    return None


def oracle_power2(k, n, target, bits):
    ORACLE_IV.prec = max(bits, k) + 8
    target = ORACLE_IV.mpf(target.numerator) / target.denominator
    lhs = abs(oracle_dominant(k, n, bits) - target)
    rhs = 36 * target / ORACLE_IV.sqrt(2) ** k
    if lhs.b < rhs.a:
        return True
    if lhs.a >= rhs.b:
        return False
    return None


def lucas(k, n):
    return term(SeqParams(k, LUCAS), n)


def power2_target(n):
    return Fraction(3 << max(n - 2, 0), 1 << max(2 - n, 0))


def verdict(decision, k, n, compared):
    try:
        return roots._escalate(partial(decision, k, n, compared))
    except PrecisionError:
        return "PrecisionError"


def agreement_cells():
    """(integer decision, oracle decision, k, n, compared value): a few hundred cells."""
    cells = []
    for k in (2, 3, 5, 10, 20):
        for n in sorted(n for n in {2 - k, -1, 0, 1, 2, 3, 7, 30, 1000, 1300} if n >= 2 - k):
            for d in (-2, -1, 0, 1, 2):
                cells.append((_binet_error_decision, oracle_binet_error, k, n, lucas(k, n) + d))
    for k in (2, 5, 12):
        for n in (0, 1, 2, 5, 40, 1000):
            for value in (lucas(k, n) - 1, lucas(k, n), lucas(k, n) + 1, 0, 3 * lucas(k, n)):
                cells.append((_growth_decision, oracle_growth, k, n, value))
    limit = math.isqrt((1 << 30) - 1)
    for n in sorted({-3, 0, 1, 2, 3, 5, 8, 16, limit // 16, limit // 4, limit // 2, limit}):
        for scale in (1, 2, Fraction(1, 2), 1 + Fraction(36, 1 << 15), 1 - Fraction(36, 1 << 15)):
            cells.append((_power2_decision, oracle_power2, 30, n, power2_target(n) * scale))
    return cells


def test_integer_decisions_agree_with_the_interval_oracle():
    cells = agreement_cells()
    verdicts = {True: 0, False: 0}
    for decision, oracle, k, n, compared in cells:
        got = verdict(decision, k, n, compared)
        assert got == verdict(oracle, k, n, compared), (decision.__name__, k, n, compared)
        verdicts[got] = verdicts.get(got, 0) + 1
    assert len(cells) >= 200 and verdicts[True] > 0 and verdicts[False] > 0


@pytest.mark.parametrize("k", [2, 3, 5, 10, 20])
def test_binet_error_refutes_a_value_two_off(k):
    # At n = 0 and 1 the error L(n) - D is near 3/2, so a value two off may still pass.
    for n in sorted({2 - k, 2, 3, 10, 100, 1000} - {0, 1}):
        for d in (-2, 2):
            assert roots._escalate(partial(_binet_error_decision, k, n, lucas(k, n) + d)) is False, (n, d)


@pytest.mark.parametrize("k", [2, 5, 12, 20])
def test_growth_refutes_values_outside_the_bounds(k):
    enc = dominant_root(k, 128)
    for n in [0, 1, 2, 5, 40]:
        below = math.floor(enc.lo ** (n - 1)) - 1  # at least 1 below alpha^(n-1)
        above = math.ceil(2 * enc.hi**n) + 1  # at least 1 above 2 alpha^n
        for value in (below, above):
            assert roots._escalate(partial(_growth_decision, k, n, value)) is False, (n, value)


@pytest.mark.parametrize("k", [13, 20, 30])
def test_power2_refutes_a_shifted_target(k):
    limit = math.isqrt((1 << k) - 1)
    bound = Fraction(36, 1 << (k // 2))  # at least 36 / 2^(k/2)
    for n in sorted({0, 1, 2, 5, limit // 2, limit}):
        target = power2_target(n)
        for shifted in (target * 2, target / 2, target * (1 + 2 * bound), target * (1 - 2 * bound)):
            assert roots._escalate(partial(_power2_decision, k, n, shifted)) is False, (n, shifted)


def test_binet_error_escalates_past_2048_bits_and_stops_at_the_cap():
    value = lucas(10, 4000)
    levels = [128 << i for i in range(6)]
    assert levels[-1] == MAX_PRECISION_BITS
    assert [_binet_error_decision(10, 4000, value, bits) for bits in levels] == [None] * 5 + [True]
    assert binet_error_check(10, 4000)
    with pytest.raises(PrecisionError):
        binet_error_check(10, 4100)


def test_growth_decision_is_undecided_until_the_root_is_fine_enough():
    # floor(alpha^299) sits just below alpha^(n-1) at n = 300, and one more just above it.
    enc = dominant_root(5, 1024)
    below = math.floor(enc.lo**299)
    assert below == math.floor(enc.hi**299)
    assert [_growth_decision(5, 300, below, bits) for bits in (128, 256, 512)] == [None, None, False]
    assert [_growth_decision(5, 300, below + 1, bits) for bits in (128, 256, 512)] == [None, None, True]


def test_power2_decision_is_undecided_when_the_enclosure_straddles_the_bound(monkeypatch):
    # One end at the target, the other far above it: neither verdict holds.
    monkeypatch.setattr(roots, "_enclosure", lambda k, n, bits, w: [(3, 1), (3 << 40, 1)])
    assert _power2_decision(20, 2, Fraction(3), 128) is None
    with pytest.raises(PrecisionError, match="undecidable at 4096 bits"):
        binet_vs_power2_check(20, 2)


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
