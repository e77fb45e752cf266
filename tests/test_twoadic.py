"""2-adic valuation and congruence tests against exact recurrence values."""

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucasdisc import twoadic
from lucasdisc.sequences import LUCAS, SeqParams, term, term_iter
from lucasdisc.twoadic import (
    _odd_disc_core,
    _scaled_disc_residue,
    disc_match,
    disc_nu2,
    l_quantity,
    l_quantity_nu2,
    lucas_congruence_parts,
    nu2,
)
from lucasdisc.bounds import discriminant
from lucasdisc.campaigns import A_MINUS1_MAX, K_CAP


def binom(a, b):
    """Binomial that vanishes when the top is negative or below the bottom."""
    return math.comb(a, b) if 0 <= b <= a else 0


def four_binomial_q(m, r):
    """Q(m, r), the oracle for the congruence quantity; equals B(m, r) once m + r >= 2.

    Q = 4 (C(m+r+1, m) - C(m+r-1, m-2)) - (C(m+r, m) - C(m+r-2, m-2)).
    """
    return 4 * (binom(m + r + 1, m) - binom(m + r - 1, m - 2)) - (binom(m + r, m) - binom(m + r - 2, m - 2))


def naive_nu2(x):
    count = 0
    while x % 2 == 0:
        x //= 2
        count += 1
    return count


def test_nu2_spot_values():
    assert nu2(352) == 5
    assert nu2(1) == 0
    assert nu2(-8) == 3
    assert nu2(0) == float("inf")


@given(st.integers(min_value=-(10**12), max_value=10**12).filter(lambda x: x != 0))
@settings(max_examples=120, deadline=None)
def test_nu2_matches_division_loop(x):
    assert nu2(x) == naive_nu2(abs(x))


def test_l_quantity_rejects_an_inexact_bracket(monkeypatch):
    weight, den = twoadic._bracket_ratio(LUCAS, 1040, 40)
    assert den > 1
    monkeypatch.setattr(twoadic, "_bracket_ratio", lambda family, N, j: (weight + 1, den))
    with pytest.raises(AssertionError, match="inexact bracket"):
        l_quantity(40, 1000)


def test_l_quantity_spot_values():
    assert l_quantity(1, 3) == 16
    assert l_quantity(0, 7) == 3
    assert l_quantity(2, 3) == 47
    # m + r < 2, where Q differs: B(0, 0) = B(1, 0) = 8 and B(0, 1) = 2.
    assert [l_quantity(0, 0), l_quantity(1, 0), l_quantity(0, 1)] == [8, 8, 2]
    assert [l_quantity_nu2(0, 0), l_quantity_nu2(1, 0), l_quantity_nu2(0, 1)] == [3, 3, 1]
    # r = 1, 2: B = 8m + 2 and 4m^2 + 6m + 3.
    for m in range(50):
        assert l_quantity(m, 1) == 8 * m + 2
        assert l_quantity(m, 2) == 4 * m * m + 6 * m + 3


@pytest.mark.parametrize("m", range(60))
def test_factored_form_agrees(m):
    # The one-binomial form C(m+r, m) P / ((m+r)(m+r-1)) against the four binomials.
    for r in range(max(0, 2 - m), 80):
        q = four_binomial_q(m, r)
        assert l_quantity(m, r) == q, r
        assert l_quantity_nu2(m, r) == nu2(q), r


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200))
@settings(max_examples=80, deadline=None)
def test_factored_form_property(m, r):
    if m + r >= 2:
        assert l_quantity(m, r) == four_binomial_q(m, r)


def regrouped_b_and_nu2(m, r):
    """B(m, r) and its nu2 as the r >= 3 campaign forms them, for m >= 2.

    C(m+r, m) / ((m+r)(m+r-1)) = C(r+m-2, m-2) / (m(m-1)), and the
    bracket's weight written in r is w = 3r^2 + (10m-3)r + 8m(m-1).  The
    valuation is Kummer's on C(r+m-2, m-2) plus nu2(w) - nu2(m(m-1)).
    """
    w = 3 * r * r + (10 * m - 3) * r + 8 * m * (m - 1)
    q, rem = divmod(math.comb(r + m - 2, m - 2) * w, m * (m - 1))
    assert rem == 0, (m, r)
    a = (m - 2).bit_count() + r.bit_count() - (r + m - 2).bit_count() + nu2(w) - nu2(m * (m - 1))
    return q, a


def test_regrouped_form_grid():
    for m in range(2, 61):
        for r in range(301):
            assert regrouped_b_and_nu2(m, r) == (l_quantity(m, r), l_quantity_nu2(m, r)), (m, r)


def test_regrouped_form_near_powers_of_two():
    # A seeded sample of the r the r >= 3 campaign visits for each m of its band.
    rng = random.Random(37)
    for m in range(8, 58):
        for r in rng.sample(range(max(3, (1 << m) - 300 - A_MINUS1_MAX), (1 << m) + 300), 12):
            assert regrouped_b_and_nu2(m, r) == (l_quantity(m, r), l_quantity_nu2(m, r)), (m, r)


@given(st.integers(min_value=2, max_value=80), st.integers(min_value=0, max_value=1 << 64))
@settings(max_examples=100, deadline=None)
def test_regrouped_form_property(m, r):
    assert regrouped_b_and_nu2(m, r) == (l_quantity(m, r), l_quantity_nu2(m, r))


@pytest.mark.parametrize("m", range(2, 61))
def test_l_quantity_nu2_grid(m):
    for r in range(3, 301):
        assert l_quantity_nu2(m, r) == nu2(l_quantity(m, r))


@pytest.mark.parametrize("m", range(9, 58))
def test_l_quantity_nu2_near_powers_of_two(m):
    # Every r the r >= 3 campaign asks about: r = k - (a - 1) with k
    # within 300 of 2^m and a - 1 <= A_MINUS1_MAX.
    for r in range(max(3, (1 << m) - 300 - A_MINUS1_MAX), (1 << m) + 300):
        assert l_quantity_nu2(m, r) == nu2(four_binomial_q(m, r))


@given(st.integers(min_value=2, max_value=80), st.integers(min_value=0, max_value=1 << 64))
@settings(max_examples=200, deadline=None)
def test_l_quantity_nu2_property(m, r):
    assert l_quantity_nu2(m, r) == nu2(l_quantity(m, r))


def residue(parts):
    sign, odd, shift, _ = parts
    return sign * odd << shift


def test_congruence_spot_values():
    # (k, m, r): L(n) == residue (mod 2^E), as (residue, E).
    cells = {(5, 1, 0): (-2, 3), (5, 1, 3): (-32, 6), (4, 0, 2): (3, 4), (2, 0, 0): (0, 0)}
    for (k, m, r), (expect, exponent) in cells.items():
        parts = lucas_congruence_parts(k, m, r)
        assert parts[3] == exponent
        assert (residue(parts) - expect) % (1 << exponent) == 0


@pytest.mark.parametrize("k", range(5, 17))
def test_congruence_grid_against_exact_terms(k):
    params = SeqParams(k=k, family=LUCAS)
    for m in range(0, 7):
        for r in range(0, k + 1):
            parts = lucas_congruence_parts(k, m, r)
            n = m * (k + 1) + r
            assert (term(params, n) - residue(parts)) % (1 << parts[3]) == 0


def assert_truncation(k, m, r, value):
    # Dropping the j < m terms of the generating-function sum leaves
    # 4 L(n) == (-1)^m 2^r B(m, r) modulo 2^(k+1+r): one bit past E = k + r - 2.
    assert (4 * value - (-1) ** m * (l_quantity(m, r) << r)) % (1 << (k + 1 + r)) == 0, (k, m, r)


@pytest.mark.parametrize("k", [8, 9, 64, 65, 1023, 1024, 10**4, 10**4 + 1])
def test_truncation_one_bit_past_e(k):
    params = SeqParams(k=k, family=LUCAS)
    for m in range(7):
        for r in sorted({0, 1, 2, 3, k // 2, k - 1, k}):
            assert_truncation(k, m, r, term(params, m * (k + 1) + r))


@pytest.mark.parametrize("k", range(2, 13))
def test_truncation_one_bit_past_e_walked(k):
    for n, value in term_iter(SeqParams(k=k, family=LUCAS), 0):
        m, r = divmod(n, k + 1)
        if m > 6:
            break
        assert_truncation(k, m, r, value)


def lucas_mod(k, count, bits):
    """L(0), ..., L(count - 1) modulo 2^bits, walked by the order-k recurrence."""
    mask = (1 << bits) - 1
    window = deque([0] * (k - 2) + [2, 1])  # L(2-k), ..., L(1)
    total = 3
    out = [2, 1]
    while len(out) < count:
        nxt = total & mask
        total += nxt - window.popleft()
        window.append(nxt)
        out.append(nxt)
    return out[:count]


def assert_parts_hold(k, m_hi, rs, bits):
    values = lucas_mod(k, (m_hi + 1) * (k + 1), bits)
    for m in range(m_hi + 1):
        for r in rs:
            sign, odd, shift, exponent = lucas_congruence_parts(k, m, r)
            assert odd % 2 == 1 and sign == (-1) ** m
            assert exponent <= bits
            assert (values[m * (k + 1) + r] - sign * odd * (1 << shift)) % (1 << exponent) == 0, (k, m, r)


@pytest.mark.parametrize("k", range(202, 401, 2))
def test_congruence_parts_at_campaign_scale_r_1_2(k):
    # case12's classes at the sizes it runs: even k 202..400, m <= 12.
    assert_parts_hold(k, 12, (1, 2), k + 40)


@pytest.mark.parametrize("k", [255, 257, 511, 513])
def test_congruence_parts_at_campaign_scale_every_r(k):
    # Odd k next to powers of two, as in case3; E reaches 2k - 2.
    assert_parts_hold(k, 3, range(k + 1), 2 * k + 40)


def test_congruence_parts_spot_values():
    assert lucas_congruence_parts(5, 1, 0) == (-1, 1, 1, 3)
    assert lucas_congruence_parts(5, 1, 3) == (-1, 1, 5, 6)  # B(1, 3) = 16
    assert lucas_congruence_parts(4, 2, 1) == (1, 9, 0, 3)
    assert lucas_congruence_parts(4, 2, 2) == (1, 31, 0, 4)
    assert lucas_congruence_parts(7, 0, 5) == (1, 3, 3, 10)


@pytest.mark.parametrize("k", range(3, 260))
def test_scaled_disc_residue_against_exact(k):
    scaled = (k - 1) ** 2 * discriminant(k)
    for s in sorted({0, 1, 2, 3, min(7, k), k // 2, k - 2, k - 1, k, k + 1}):
        for e in (1, 5, 40, k - 1, k, k + 1, k + 30):
            assert _scaled_disc_residue(k, s, e) == (scaled >> s) % (1 << e), (s, e)


@pytest.mark.parametrize(
    "k",
    [*range(3, 70, 2), 1021, 1023, 4093, 4095, 2**55 + 17, 2**55 + 19, K_CAP - 3, K_CAP - 1],
)
def test_odd_disc_core_is_both_powers(k):
    # For k == 3 (mod 4) and k + 1 >= w the second power is skipped as 0 mod 2^w.
    # The k-relative widths cross that boundary; near K_CAP only fixed widths fit.
    # From w = 3 on, an odd base's exponent is reduced mod 2^(w-2); the widths
    # 3..5, 22, 23 and 30 reach that reduction for small k as well as large.
    widths = {1, 2, 3, 4, 5, 22, 23, 30, 98, 148}
    if k < 5000:
        widths |= {k, k + 1, k + 2, k + 30}
    for w in sorted(widths):
        mod = 2**w
        expect = (pow(k, k, mod) - pow((k + 1) // 2, k + 1, mod)) % mod
        assert _odd_disc_core(k, w) == expect, w


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([3, 4, 5, 8, 22, 23, 30]),
    st.integers(0, 2**60),
    st.integers(1, 2**20),
)
def test_odd_disc_core_depends_only_on_k_mod_2_to_w(w, k, j):
    # The class fact behind case3's one-core-per-class prefilter: for w >= 3
    # and odd k >= w - 1, _odd_disc_core(k, w) == _odd_disc_core(k + j 2^w, w).
    k = max(k, w - 1) | 1
    assert _odd_disc_core(k, w) == _odd_disc_core(k + j * 2**w, w)


@pytest.mark.parametrize("w", [3, 4, 5, 8, 22, 23, 30])
def test_odd_disc_core_classes_are_no_coarser_than_2_to_w(w):
    # Half a period apart the cores differ for some k: a class of k mod
    # 2^(w-1) would hand those k a wrong core.
    ks = range(w | 1, w + 400, 2)
    assert any(_odd_disc_core(k, w) != _odd_disc_core(k + 2 ** (w - 1), w) for k in ks)


def test_odd_scaled_residue_at_mixed_widths_in_shuffled_order():
    # Over 600 distinct odd k, each asked at two widths, wide then narrow or
    # narrow then wide, in shuffled order.  Small k are checked against the
    # exact (k-1)^2 |disc|; next to 2^56, where it is too large to form,
    # against the two powers taken mod 2^e itself.
    small = range(3, 1207, 2)
    large = [2**55 + 17, 2**56 - 533, 2**56 + 1, 2**56 + 299, K_CAP - 1]
    rng = random.Random(20251019)
    groups = []
    for i, k in enumerate([*small, *large]):
        t = rng.randrange(8)
        s = k + 1 - t
        scaled = None if k in large else (k - 1) ** 2 * discriminant(k)
        widths = (148, 98) if i % 2 else (3, 148)
        cases = []
        for w in (*widths, widths[0]):
            e = t + w
            if scaled is None:
                mod = 1 << e
                expect = (pow(k, k, mod) - pow((k + 1) // 2, k + 1, mod) << t) % mod
            else:
                expect = (scaled >> s) % (1 << e)
            cases.append((k, s, e, expect))
        groups.append(cases)
    rng.shuffle(groups)
    flat = [case for cases in groups for case in cases]
    for k, s, e, expect in flat:
        assert _scaled_disc_residue(k, s, e) == expect, (k, s, e)
    rng.shuffle(flat)  # again, interleaved
    for k, s, e, expect in flat:
        assert _scaled_disc_residue(k, s, e) == expect, (k, s, e)


@pytest.mark.parametrize("k", range(3, 31))
def test_disc_match_equals_comparison_with_exact_terms(k):
    # The same comparison made with the exact L(n) instead of its congruence.
    scaled = (k - 1) ** 2 * discriminant(k)
    params = SeqParams(k=k, family=LUCAS)
    for m in range(4):
        for r in range(k + 1):
            q = l_quantity(m, r)
            s = max(r - 2, 0)
            value = (k - 1) ** 2 * term(params, m * (k + 1) + r)
            assert value % (1 << s) == 0
            for bits in (0, 1, 8, 1000):  # modulo 2^0 both signs pass
                mod = 1 << max(min(bits, k + r - 2 - s), 0)
                expect = ((value >> s) - (scaled >> s)) % mod == 0, ((value >> s) + (scaled >> s)) % mod == 0
                assert disc_match(k, m, r, q, bits) == expect, (m, r, bits)


def test_disc_match_rejects_a_negative_modulus():
    for r in (0, 1, 3):
        with pytest.raises(ValueError, match="bits >= 0"):
            disc_match(5, 1, r, l_quantity(1, r), -1)


def test_valuation_law_witness():
    # nu2(L(9)) for k=5: 352 = 2^5 * 11, and r=3, a=nu2(16)=4: 3 - 2 + 4 = 5.
    assert nu2(term(SeqParams(k=5, family=LUCAS), 9)) == 5
    assert l_quantity(1, 3) == 16
    assert 3 - 2 + nu2(l_quantity(1, 3)) == 5


@pytest.mark.parametrize("k", range(5, 14))
def test_valuation_law_grid(k):
    params = SeqParams(k=k, family=LUCAS)
    for m in range(1, 6):
        for r in range(3, k + 1):
            q = l_quantity(m, r)
            if q == 0:
                continue
            a = nu2(q)
            if a >= k:  # modulus 2^(k+r-2) cannot pin the valuation
                continue
            assert nu2(term(params, m * (k + 1) + r)) == r - 2 + a


@pytest.mark.parametrize("k", range(2, 201))
def test_disc_nu2_against_exact(k):
    assert disc_nu2(k) == nu2(discriminant(k))
    assert disc_nu2(k) == (0 if k % 2 == 0 else k - 1)


def test_disc_nu2_domain():
    with pytest.raises(ValueError, match="need k >= 2"):
        disc_nu2(1)


def test_domain_errors():
    with pytest.raises(ValueError):
        lucas_congruence_parts(1, 0, 0)
    with pytest.raises(ValueError):
        lucas_congruence_parts(5, -1, 0)
    with pytest.raises(ValueError):
        lucas_congruence_parts(5, 0, 6)
    with pytest.raises(ValueError):
        l_quantity(-1, 3)
    with pytest.raises(ValueError):
        l_quantity(3, -1)
    with pytest.raises(ValueError):
        l_quantity_nu2(-1, 3)
    with pytest.raises(ValueError):
        l_quantity_nu2(5, -1)
    assert l_quantity_nu2(1, 3) == 4  # inside the domain: B(1, 3) = 16
