"""Exact ground truth at small k: the window split, the exact band, r = 0 and the row oracle.

Past k = 200 every verdict rests on the 2-adic congruence, the filters and
the window.  Here exact values of L(n) (``term``) and |disc| decide the
same questions without that machinery, where they are cheap enough.
"""

import pytest

from lucasdisc.bounds import discriminant, window_integers
from lucasdisc.campaigns import campaign_case3, campaign_case12
from lucasdisc.sequences import LUCAS, SeqParams, term
from lucasdisc.twoadic import disc_nu2, nu2


def lucas(k, n):
    return term(SeqParams(k, LUCAS), n)


# case3 rows whose n lies in k's exact window, and the survivors at each width.
@pytest.mark.parametrize("fixture, survivors", [("case3_150_report", 0), ("case3_100_report", 14)])
def test_case3_window_split_closes_all_but_36_rows(fixture, survivors, case3_windows, request):
    report = request.getfixturevalue(fixture)
    inside = [c for c in report.candidates if c.n in case3_windows[c.k]]
    assert len(inside) == 36
    assert len(report.candidates) - len(inside) == 12_183
    assert all(c.verdict == "eliminated" for c in inside)
    assert len(report.survivors) == survivors
    assert not any(c.n in case3_windows[c.k] for c in report.survivors)


def test_exact_band_decides_every_n_for_k_to_2048():
    # L increases for n >= 2, so a bracket around the window and no hit
    # inside it rule out every n at that k, whatever r is.
    for k in range(201, 2049):
        delta = discriminant(k)
        ns = window_integers(k)
        assert lucas(k, ns[0] - 1) < delta < lucas(k, ns[-1] + 1), k
        assert all(lucas(k, n) != delta for n in ns), k


# Every window integer n with r = 0 for 202 <= k < 20,000: case0's cell, which
# no other campaign covers; past k = 2,048 the exact-band test misses it too.
CASE0_WINDOW_PAIRS = [
    (272, 2457), (530, 5310), (531, 5320), (1044, 11495), (1045, 11506), (2070, 24852),
    (2071, 24864), (4120, 53573), (4121, 53586), (8219, 115080), (16413, 246210),
]


def test_case0_clash_at_every_window_pair_to_k_20000():
    pairs = [(k, n) for k in range(202, 20_000) for n in window_integers(k) if n % (k + 1) == 0]
    assert pairs == CASE0_WINDOW_PAIRS
    for k, n in pairs:
        value = lucas(k, n)
        assert nu2(value) == 1 != disc_nu2(k), (k, n)
        assert value != discriminant(k), (k, n)


@pytest.fixture(scope="module")
def case3_small_k_nu2(case3_150_report):
    """nu2(L(n) - |disc|) of each case3 row with k < 8192, from exact values."""
    rows = [c for c in case3_150_report.candidates if c.k < 8192]
    disc = {k: discriminant(k) for k in {c.k for c in rows}}
    return {(c.k, c.n): nu2(lucas(c.k, c.n) - disc[c.k]) for c in rows}


# A row survives iff L(n) == |disc| modulo 2^(min(a + extra, k) + r - 2)
# after both sides are multiplied by (k-1)^2: the congruence disc_match tests.
@pytest.mark.parametrize("extra, true_survivors", [(150, 0), (100, 0), (25, 3), (16, 53), (8, 382), (4, 943)])
def test_case3_verdicts_match_exact_valuations(extra, true_survivors, case3_small_k_nu2, request):
    if extra in (150, 100):
        report = request.getfixturevalue("case3_%d_report" % extra)
    else:
        report = campaign_case3(modulus_extra_bits=extra)
    rows = [c for c in report.candidates if c.k < 8192]
    assert [(c.k, c.n) for c in rows] == list(case3_small_k_nu2)
    assert len(rows) == 1_192
    survived = 0
    for c in rows:
        v = case3_small_k_nu2[c.k, c.n]
        truth = v + 2 * nu2(c.k - 1) - (c.r - 2) >= min(c.k - c.r + 1 + extra, c.k)
        assert (c.verdict == "survivor") == truth, c
        survived += truth
    assert survived == true_survivors


@pytest.fixture(scope="module")
def case12_small_k_nu2():
    """nu2(L(n) - |disc|) and nu2(L(n) + |disc|) of each case12 pair with k < 2^15."""
    out = {}
    for c in campaign_case12(202, 2**15).candidates:
        value, delta = lucas(c.k, c.n), discriminant(c.k)
        out[c.k, c.n] = nu2(value - delta), nu2(value + delta)
    return out


# case12 flags "plus_disc" for L == +|disc| and "minus_disc" for L == -|disc|.
@pytest.mark.parametrize("bits, true_survivors", [(100, 0), (3, 6), (2, 12)])
def test_case12_verdicts_match_exact_valuations(bits, true_survivors, case12_small_k_nu2):
    report = campaign_case12(202, 2**15, test_modulus_bits=bits)
    assert [(c.k, c.n) for c in report.candidates] == list(case12_small_k_nu2)
    assert len(report.candidates) == 12
    survived = 0
    for c in report.candidates:
        e = min(bits, c.k + c.r - 2)
        v_plus, v_minus = case12_small_k_nu2[c.k, c.n]  # nu2(L - |disc|), nu2(L + |disc|)
        assert ("plus_disc" in c.flags) == (v_plus >= e), c
        assert ("minus_disc" in c.flags) == (v_minus >= e), c
        assert (c.verdict == "survivor") == (v_plus >= e or v_minus >= e), c
        survived += v_plus >= e or v_minus >= e
    assert survived == true_survivors
