"""Campaign behavior: frozen counts, shard determinism, filter monotonicity."""

import hashlib
import json
import math
import random
from bisect import bisect_left
from decimal import Context, Decimal, localcontext

import mpmath
import pytest

from lucasdisc.bounds import (
    _ell,
    _m_envelope,
    bound_profile,
    discriminant,
    localize_k_by_power2,
    m_range,
    window_integers,
)
from lucasdisc.campaigns import (
    A_MINUS1_MAX,
    K_CAP,
    CampaignReport,
    CandidatePair,
    campaign_case0,
    campaign_case12,
    campaign_case3,
    campaign_small,
    merge_reports,
    report_to_jsonl,
    search,
    shard,
)
from lucasdisc.cli import run
from lucasdisc.sequences import LUCAS, SeqParams, term, term_iter
from lucasdisc import bounds, campaigns, sequences, twoadic
from lucasdisc.twoadic import disc_match, l_quantity, l_quantity_nu2, nu2

from test_bounds import w_200
from test_twoadic import four_binomial_q

# Counts frozen after the first verified full runs.
SMALL_TERMS = 599  # L(0), L(1) and one term past the jump at each k; two at k = 2 and 3
CASE12_TOY_PAIRS = 10
CASE12_FULL_PAIRS = 32
CASE3_TRIPLES = 3340584
CASE3_VALUATION_MATCHES = 12219
CASE3_LOW_CORE_CLASSES = 2316  # distinct k mod 2^22 among the matches
CASE3_SURVIVORS_AT_100 = 14

# sha256 of report_to_jsonl(report, include_timing=False) per campaign run,
# keyed by the conftest fixture that holds the run (None: case0, run here).
REPORT_SHA256 = {
    "small": ("small_report", "864358a0c7450857ee7251744c93fa26de6514eb34555c9a4d6a617d30e074e1"),
    "case0": (None, "2316d010e980eec251f39ed8917644c4b2870faed1e6cd4c45c732adb39eb18c"),
    "case12": ("case12_full_report", "6f35ae93ef7bf4891f32e8e04fe544564ca2f30cb5a7c273ec66debe5ad06a46"),
    "case3_150": ("case3_150_report", "ab81620237c3d86532a21184c4c40b274cfa5e876113efb874500f87e43e818c"),
    "case3_100": ("case3_100_report", "0f619062d23fa68bbf24d811033ae38484977ef3dd1851ab78d0d7324c05db58"),
}


def test_small_campaign_frozen_counts(small_report):
    assert small_report.stage_counts == [
        ("terms_examined", SMALL_TERMS),
        ("equality_hits", 0),
    ]
    assert small_report.survivors == []
    assert small_report.ranges == {"k_lo": 2, "k_hi": 200, "n_lo": 0}


def test_small_campaign_cross_checks_brute_force():
    report = campaign_small(k_max=16)
    brute = []
    for k in range(2, 17):
        delta = discriminant(k)
        for n, value in term_iter(SeqParams(k=k, family=LUCAS), 0):
            if value == delta:
                brute.append((k, n))
            if n >= 2 and value >= delta:
                break
    assert [(c.k, c.n) for c in report.survivors] == brute == []


def test_lucas_terms_stay_at_or_below_three_times_powers_of_two():
    # small's jump rests on L(n) <= 3 * 2^(n-2) for n >= 2, with equality
    # exactly at the powers of two, n <= k.
    for k in range(2, 41):
        for n, value in term_iter(SeqParams(k, LUCAS), 2):
            if n > 600:
                break
            assert value <= 3 << (n - 2), (k, n)
            assert (value == 3 << (n - 2)) == (n <= k), (k, n)


def small_compared(k_max, k, monkeypatch):
    """The n small compares with |disc| at k, in order, and its stage counts there."""
    compared = []

    def recorded(params, n):
        compared.append(n)
        return term(params, n)

    with monkeypatch.context() as patch:
        patch.setattr(campaigns, "term", recorded)
        one_k = campaign_small(k_max=k_max, shard=(k - 2, k_max - 1))
    return compared, one_k.stage_counts


def test_small_walk_at_each_k_ends_at_its_first_term_past_disc(monkeypatch):
    k_max = 300
    for k in range(2, k_max + 1):
        delta = discriminant(k)
        walk = []  # L(0) .. the crossing, the first n >= 2 with L(n) >= |disc|
        for n, value in term_iter(SeqParams(k, LUCAS), 0):
            walk.append(value)
            if n >= 2 and value >= delta:
                break
        compared, count = small_compared(k_max, k, monkeypatch)
        n0 = compared[2]
        assert compared == [0, 1] + list(range(n0, len(walk))), k
        assert walk[n0 - 1] < delta, k
        assert count == [("terms_examined", len(compared)), ("equality_hits", 0)], k
        # One term past the jump, except at k = 2 and 3.
        assert len(compared) == (4 if k < 4 else 3), k


# With |disc(9)| planted at L(9, n): the two terms compared before the jump,
# the first term past it, the first term past the powers of two, and the
# crossing.  With |disc(2)| := L(2, 10) = 123 the jump lands on n0 = 8 and
# the equality comes on the third term: L(8) = 47, L(9) = 76.
@pytest.mark.parametrize(
    "k, n, compared_at_k",
    [(9, 0, 3), (9, 1, 3), (9, 2, 3), (9, 10, 3), (9, None, 3), (2, 10, 5)],
    ids=["0", "1", "2", "k+1", "crossing", "k=2-third-term"],
)
def test_small_walk_reports_a_planted_equality(k, n, compared_at_k, monkeypatch):
    k_max = 12
    params = SeqParams(k=k, family=LUCAS)
    if n is None:
        n = next(i for i, value in term_iter(params, 2) if value >= discriminant(k))
    planted = term(params, n)
    monkeypatch.setattr(campaigns, "discriminant", lambda j: planted if j == k else discriminant(j))
    report = campaign_small(k_max=k_max)
    m, r = divmod(n, k + 1)
    assert report.survivors == [CandidatePair(k, n, r, m, "survivor")]
    for j in range(2, k_max + 1):
        compared, count = small_compared(k_max, j, monkeypatch)
        assert count[0] == ("terms_examined", compared_at_k if j == k else 4 if j < 4 else 3), j
        assert j != k or n in compared


def test_case0_clash_holds_for_every_k_from_4():
    report = campaign_case0()
    assert report.stage_counts == [("statements_checked", 1), ("clashes_missing", 0)]
    assert report.ranges == {"k_lo": 4, "residue": 0}
    assert report.candidates == []
    # The statement against exact terms and discriminants of both parities.
    for k in range(4, 13):
        for m in range(6):
            assert nu2(term(SeqParams(k, LUCAS), m * (k + 1))) == 1 != nu2(discriminant(k)), (k, m)


def _bracket_off_at(N):
    """``_bracket_ratio`` with its weight one too large at (N, j) = (N, N)."""

    def planted(family, top, j):
        weight, den = sequences._bracket_ratio(family, top, j)
        return (weight + 1, den) if top == j == N else (weight, den)

    return planted


# Each plant breaks one part of the statement: B(m, 0) = 8 at one N >= 2,
# or a discriminant valuation of 1 at the even or at the odd check.
CASE0_PLANTS = [("_bracket_ratio", _bracket_off_at(N)) for N in (2, 3, 4)] + [
    ("disc_nu2", lambda k: 1 if k % 2 == 0 else twoadic.disc_nu2(k)),
    ("disc_nu2", lambda k: 1 if k % 2 else twoadic.disc_nu2(k)),
]


def test_case0_reports_a_missing_clash_as_a_survivor(capsys):
    for name, plant in CASE0_PLANTS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(campaigns, name, plant)
            report = campaign_case0()
            assert report.stage_counts == [("statements_checked", 1), ("clashes_missing", 1)]
            assert report.survivors == [CandidatePair(4, 0, 0, 0, "survivor")]
            assert merge_reports([shard("case0", p, 2) for p in range(2)]).candidates == report.candidates
            assert run(["search", "case0", "--format", "jsonl", "--no-timing"]) == 1
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 2
        assert json.loads(rows[0]) == {"k": 4, "m": 0, "n": 0, "r": 0, "verdict": "survivor"}
        assert json.loads(rows[-1])["survivors"] == [[4, 0]]


def test_case12_toy_frozen_pairs(case12_toy_report):
    report = case12_toy_report
    assert report.stage_counts == [
        ("k_scanned", 4899),
        ("window_residue_pairs", CASE12_TOY_PAIRS),
        ("modulus_survivors", 0),
    ]
    assert [(c.k, c.n) for c in report.candidates] == [
        (274, 2477),
        (532, 5332),
        (1046, 11518),
        (1046, 11519),
        (2072, 24877),
        (2072, 24878),
        (4122, 53600),
        (4122, 53601),
        (8220, 115095),
        (8220, 115096),
    ]
    for c in report.candidates:
        assert c.k % 2 == 0
        assert c.r in (1, 2)
        assert c.n % (c.k + 1) == c.r
        assert c.m == c.n // (c.k + 1)


def case12_brute_force(k_lo, k_hi):
    """Window pairs with r in {1, 2}, testing every even k.

    Membership w < n < w + 2.4 is decided with a 200-bit w(k), far from
    either edge for k < 2^40; floats only place the integers to test, and
    the slack of two on each side dwarfs their error.
    """
    pairs = []
    for k in range(k_lo, k_hi, 2):
        lo = math.floor(k + (k - 2) * math.log2(k) - 0.1)
        w = w_200(k)
        with mpmath.workprec(200):
            pairs += [
                (k, n) for n in range(lo - 2, lo + 5) if n % (k + 1) in (1, 2) and w < n < w + mpmath.mpf(12) / 5
            ]
    return pairs


def test_case12_matches_brute_force(case12_toy_report):
    assert [(c.k, c.n) for c in case12_toy_report.candidates] == case12_brute_force(202, 10_000)


def test_case12_matches_brute_force_past_2_to_30():
    # Far past 1e8: the bisection has no range limit.
    k_lo = 1 << 30
    report = campaign_case12(k_lo, k_lo + 40_000)
    pairs = [(c.k, c.n) for c in report.candidates]
    assert pairs == case12_brute_force(k_lo, k_lo + 40_000)
    assert pairs
    assert report.stage_counts[0] == ("k_scanned", 20_000)


def two_bisection_pairs(ks, m):
    """``_window_pairs`` with the run's end found by a second bisection."""

    def x(k):
        return m * (k + 1) - k

    near = ks[
        bisect_left(ks, True, key=lambda k: 10 * x(k) - 13 <= _ell(k)) :
        bisect_left(ks, True, key=lambda k: 10 * x(k) + 21 <= _ell(k))
    ]
    return [(k, n, m, n - m * (k + 1)) for k in near for n in window_integers(k) if n - m * (k + 1) in (1, 2)]


def test_case12_forward_step_equals_a_second_bisection():
    rng = random.Random(33)
    layouts = [range(202, 10_000, 2)]
    for _ in range(40):
        k_lo = 2 * rng.randrange(101, 50_000_000)
        of = rng.randrange(1, 4)
        layouts.append(range(k_lo + 2 * rng.randrange(of), k_lo + 2 * rng.randrange(1, 500_000), 2 * of))
    pairs = 0
    for ks in layouts:
        if not ks:
            continue
        ms = range(_m_envelope(ks[0])[0], _m_envelope(ks[-1])[1] + 1)
        expected = [pair for m in ms for pair in two_bisection_pairs(ks, m)]
        assert campaigns._window_pairs(ks) == expected, ks
        pairs += len(expected)
    assert pairs >= CASE12_TOY_PAIRS


def test_case12_full_run_calls_ell_once_per_distinct_k(monkeypatch):
    # Every m's bisection probes the same k first; without the memo the
    # full run made 569 calls for 323 distinct k.
    calls = []

    def counted(k):
        calls.append(k)
        return _ell(k)

    monkeypatch.setattr(campaigns, "_ell", counted)
    monkeypatch.setattr(bounds, "_ell", counted)
    report = campaign_case12()
    assert report.stage_counts[1] == ("window_residue_pairs", CASE12_FULL_PAIRS)
    assert len(calls) == len(set(calls)) < 600


def test_case12_up_to_the_k_cap():
    # The r in {1, 2} slice past the 2-adic cap of 7e7, up to the linear-forms cap.
    report = campaign_case12(202, K_CAP)
    assert report.stage_counts[1:] == [("window_residue_pairs", 78), ("modulus_survivors", 0)]


def test_case12_degenerate_modulus_all_survive():
    report = campaign_case12(202, 10_000, test_modulus_bits=1)
    assert report.stage_counts[1][1] == CASE12_TOY_PAIRS
    assert report.stage_counts[2][1] == CASE12_TOY_PAIRS


def test_case12_validation():
    with pytest.raises(ValueError):
        campaign_case12(201, 10_000)
    with pytest.raises(ValueError):
        campaign_case12(202, 9_999)
    with pytest.raises(ValueError):
        campaign_case12(200, 10_000)
    with pytest.raises(ValueError):
        campaign_case12(202, 10_000, test_modulus_bits=0)
    with pytest.raises(ValueError, match="test_modulus_bits <= k_lo - 1"):
        campaign_case12(202, 10_000, test_modulus_bits=202)


def test_case12_accepts_modulus_up_to_k_lo_minus_one():
    # The r = 1 congruence holds modulo 2^(k-1), and k >= k_lo.
    report = campaign_case12(202, 10_000, test_modulus_bits=201)
    assert report.ranges["test_modulus_bits"] == 201
    assert report.stage_counts[1:] == [("window_residue_pairs", CASE12_TOY_PAIRS), ("modulus_survivors", 0)]


def test_case12_empty_range():
    report = campaign_case12(202, 202)
    assert report.stage_counts == [
        ("k_scanned", 0),
        ("window_residue_pairs", 0),
        ("modulus_survivors", 0),
    ]


def test_case12_rejects_an_inverted_range():
    with pytest.raises(ValueError, match="k_lo <= k_hi"):
        campaign_case12(1000, 500)


def test_case3_validation():
    with pytest.raises(ValueError):
        campaign_case3(modulus_extra_bits=1)


def test_case3_full_run_at_150(case3_150_report):
    report = case3_150_report
    assert report.stage_counts == [
        ("triples_enumerated", CASE3_TRIPLES),
        ("valuation_matches", CASE3_VALUATION_MATCHES),
        ("congruence_survivors", 0),
    ]
    for c in report.candidates:
        assert c.k % 2 == 1
        assert c.r >= 3
        assert l_quantity_nu2(c.m, c.r) == c.k - c.r + 1
        assert c.n == c.m * (c.k + 1) + c.r


def test_a_range_is_the_bound_profile_at_k_cap():
    assert A_MINUS1_MAX + 1 == bound_profile(K_CAP).a_max


def test_a_range_floor_is_certified_at_k_cap():
    # floor(6 ln K_CAP + 2) = 234 exactly when exp(232/6) <= K_CAP < exp(233/6).
    # K_CAP clears the upper end by about 4 % and the lower by about 13 %; the
    # 1 % slack asked for here dwarfs a 50-digit context's rounding error.
    with localcontext(Context(prec=50)):
        lo = (Decimal(232) / 6).exp()
        hi = (Decimal(233) / 6).exp()
        assert lo * Decimal("1.01") <= K_CAP
        assert K_CAP * Decimal("1.01") < hi
    assert A_MINUS1_MAX + 1 == 234


@pytest.mark.parametrize("extra", [150, 100])
def test_case3_takes_the_full_width_core_only_past_the_low_width(extra, request):
    # Filter 2 is first decided at a + 24 bits, a 22-bit core taken once per
    # class of k mod 2^22; only the matches that pass it take the core again
    # at width extra - 2.
    hooks = request.getfixturevalue("case3_%d_hooks" % extra)
    report, widths = hooks.report, hooks.core_widths
    low_passes = sum(
        disc_match(c.k, c.m, c.r, l_quantity(c.m, c.r), c.k - c.r + 25)[0]
        for c in report.candidates
    )
    classes = len({c.k % 2**22 for c in report.candidates})
    assert len(report.candidates) == CASE3_VALUATION_MATCHES
    assert widths.count(22) == classes == CASE3_LOW_CORE_CLASSES
    assert widths.count(extra - 2) == low_passes == len(widths) - classes
    assert low_passes < CASE3_VALUATION_MATCHES / 100


def case3_hooks(request, fixture):
    """The hooks recorded by the run behind the case3 report ``fixture``."""
    extra = request.getfixturevalue(fixture).ranges["modulus_extra_bits"]
    return request.getfixturevalue("case3_%d_hooks" % extra)


@pytest.mark.parametrize("fixture", ["case3_150_report", "case3_100_report"])
def test_case3_prefilter_core_is_each_match_own_core(fixture, request):
    # The scan computes one 22-bit core per class of k mod 2^22.  Every match
    # must still be decided with its own k's core: a coarser class (k mod
    # 2^21, say) hands some k a neighbour's core, which a verdict rarely shows.
    hooks = case3_hooks(request, fixture)
    calls = hooks.low_match_calls
    assert sorted((k, m, a) for k, m, a, _, _ in calls) == sorted((c.k, c.m, c.k - c.r + 1) for c in hooks.report.candidates)
    for k, m, a, _, core in calls:
        assert core == twoadic._odd_disc_core(k, 22), (k, m, a)


@pytest.mark.parametrize("fixture", ["case3_150_report", "case3_100_report"])
def test_case3_b_at_every_match_is_l_quantity(fixture, request):
    # The B the scan carries along each m's run of r, as the prefilter saw
    # it, against one binomial per match.
    calls = case3_hooks(request, fixture).low_match_calls
    assert len(calls) == CASE3_VALUATION_MATCHES
    for k, m, a, q, _ in calls:
        assert q == l_quantity(m, k - a + 1), (k, m, a)


@pytest.mark.parametrize("fixture", ["case3_150_report", "case3_100_report"])
def test_case3_low_match_is_disc_match_at_a_plus_24(fixture, request):
    report = request.getfixturevalue(fixture)
    passes = 0
    for c in report.candidates:
        q = l_quantity(c.m, c.r)
        a = c.k - c.r + 1
        low = campaigns._case3_low_match(c.k, c.m, a, q, twoadic._odd_disc_core(c.k, 22))
        assert low == disc_match(c.k, c.m, c.r, q, a + 24)[0], c
        passes += low
    assert 0 < passes < len(report.candidates) / 100


@pytest.mark.parametrize("extra", [150, 100])
def test_case3_forms_one_binomial_per_m(extra, request):
    # B at each match is carried along its m's run of r: no per-match
    # l_quantity, and at most one math.comb per m.
    hooks = request.getfixturevalue("case3_%d_hooks" % extra)
    report = hooks.report
    assert len(report.candidates) == CASE3_VALUATION_MATCHES
    assert hooks.l_quantity_calls == []
    m_lo, m_hi = m_range(K_CAP)
    assert len(hooks.comb_seeds) == len({c.m for c in report.candidates}) <= len(range(m_lo, m_hi + 1)) == 50


def test_case3_rejects_an_inexact_binomial_step(monkeypatch):
    # m = 9 has many matches; a perm one too large breaks the first step.
    perm = math.perm
    monkeypatch.setattr(math, "perm", lambda n, j: perm(n, j) + 1)
    m_lo, m_hi = m_range(K_CAP)
    with pytest.raises(AssertionError, match="inexact binomial step"):
        campaign_case3(shard=(9 - m_lo, m_hi - m_lo + 1))


def test_case3_filter_1_equals_l_quantity_nu2_on_every_r(case3_150_report, case3_100_report):
    # Filter 1 writes the closed form out inline; l_quantity_nu2 states it.
    # Every r that some odd k of the m band and some a could give, every m.
    m_lo, m_hi = m_range(K_CAP)
    expect = []
    for m in range(m_lo, m_hi + 1):
        lo, hi = localize_k_by_power2(m)
        for r in range(max(3, lo - A_MINUS1_MAX), hi):
            a = l_quantity_nu2(m, r)
            k = r + a - 1
            if k % 2 and lo < k < hi and 1 <= a <= A_MINUS1_MAX + 1:
                expect.append((m, r, a, k))
    assert len(expect) == CASE3_VALUATION_MATCHES
    for report in (case3_150_report, case3_100_report):
        assert sorted((c.m, c.r, c.k - c.r + 1, c.k) for c in report.candidates) == expect


def test_case3_triples_by_brute_force_for_every_m():
    # Odd k with lo < k < hi and r = k - a + 1 >= 3, for each a; the r >= 3
    # clip bites at m = 8 and 9, and m = 57 has no odd k below K_CAP.
    m_lo, m_hi = m_range(K_CAP)
    for m in range(m_lo, m_hi + 1):
        lo, hi = localize_k_by_power2(m)
        expect = sum(len(range(max(lo + 1, a + 2) | 1, hi, 2)) for a in range(1, A_MINUS1_MAX + 2))
        report = campaign_case3(shard=(m - m_lo, m_hi - m_lo + 1))
        assert report.stage_counts[0] == ("triples_enumerated", expect), m


@pytest.mark.parametrize("fixture", ["case3_150_report", "case3_100_report"])
def test_case3_verdicts_equal_the_full_width_test_alone(fixture, request):
    report = request.getfixturevalue(fixture)
    extra = report.ranges["modulus_extra_bits"]
    for c in report.candidates:
        survived = disc_match(c.k, c.m, c.r, l_quantity(c.m, c.r), c.k - c.r + 1 + extra)[0]
        assert c.verdict == ("survivor" if survived else "eliminated"), c


def case3_triple_loop(m, modulus_extra_bits):
    """The (a, m, k) triple loop with the four-binomial Q, for one m."""
    lo, hi = localize_k_by_power2(m)
    quantities = {}
    triples = 0
    rows = []
    for a_minus1 in range(A_MINUS1_MAX + 1):
        a = a_minus1 + 1
        for k in range(lo + 1 + (lo & 1), hi, 2):
            r = k - a_minus1
            if r < 3:
                continue
            triples += 1
            if r not in quantities:
                quantities[r] = four_binomial_q(m, r)
            q = quantities[r]
            if nu2(q) != a:
                continue
            mod = 1 << min(a + modulus_extra_bits, k)
            lhs = (-1) ** m * (k - 1) ** 2 * q % mod
            rhs = (pow(k, k, mod) - pow((k + 1) // 2, k + 1, mod)) * 2 ** (a + 2) % mod
            rows.append((k, m * (k + 1) + r, r, lhs == rhs))
    return triples, sorted(rows)


# The band's edges (m = 8 has r >= 3 cut into its triples, m = 57 is
# clipped away by K_CAP), two inner m and one with a survivor at 100 bits.
# Each at 2, 24, 25 and 100 extra bits: below, at and past the width
# (24) at which filter 2 is first decided, and a paper parameter.
@pytest.mark.parametrize("m", [8, 9, 30, 55, 57])
def test_case3_matches_triple_loop(m):
    m_lo, m_hi = m_range(K_CAP)
    for extra in (2, 24, 25, 100):
        report = campaign_case3(modulus_extra_bits=extra, shard=(m - m_lo, m_hi - m_lo + 1))
        triples, rows = case3_triple_loop(m, extra)
        assert report.stage_counts[0] == ("triples_enumerated", triples)
        assert [(c.k, c.n, c.r, c.verdict == "survivor") for c in report.candidates] == rows
        assert {c.m for c in report.candidates} <= {m}


def test_case3_survivor_monotonicity(case3_150_report, case3_100_report):
    strict = {(c.k, c.n) for c in case3_150_report.survivors}
    loose = {(c.k, c.n) for c in case3_100_report.survivors}
    assert strict <= loose
    assert len(loose) == CASE3_SURVIVORS_AT_100
    # identical enumeration regardless of the modulus margin
    assert case3_100_report.stage_counts[0] == case3_150_report.stage_counts[0]
    assert case3_100_report.stage_counts[1] == case3_150_report.stage_counts[1]


def test_case3_survivors_sit_next_to_powers_of_two(case3_100_report):
    for c in case3_100_report.survivors:
        assert c.k == 2 ** (c.k.bit_length() - 1) + 1
        assert 9 <= c.m <= 55


@pytest.mark.parametrize("pieces", [2, 5])
def test_case12_shard_merge_is_byte_identical(pieces, case12_toy_report):
    parts = [shard("case12", p, pieces, k_lo=202, k_hi=10_000) for p in range(pieces)]
    merged = merge_reports(parts)
    assert report_to_jsonl(merged, include_timing=False) == report_to_jsonl(
        case12_toy_report, include_timing=False
    )


def test_case12_full_range_shard_merge_is_byte_identical(case12_full_report):
    merged = merge_reports([shard("case12", p, 2) for p in range(2)])
    assert report_to_jsonl(merged, include_timing=False) == report_to_jsonl(
        case12_full_report, include_timing=False
    )


def test_small_shard_merge_is_byte_identical(small_report):
    parts = [shard("small", p, 3) for p in range(3)]
    merged = merge_reports(parts)
    assert report_to_jsonl(merged, include_timing=False) == report_to_jsonl(
        small_report, include_timing=False
    )


@pytest.mark.parametrize("pieces", [2, 3, 4])
def test_case3_shard_merge_is_byte_identical(pieces, case3_150_report):
    parts = [shard("case3", p, pieces, modulus_extra_bits=150) for p in range(pieces)]
    merged = merge_reports(parts)
    assert report_to_jsonl(merged, include_timing=False) == report_to_jsonl(
        case3_150_report, include_timing=False
    )


def test_merge_rejects_mismatches():
    with pytest.raises(ValueError):
        merge_reports([])
    with pytest.raises(ValueError):
        merge_reports([shard("case0", 0, 2), shard("small", 1, 2)])
    with pytest.raises(ValueError):
        merge_reports([shard("case0", 0, 2), shard("case0", 0, 2)])
    with pytest.raises(ValueError):
        merge_reports([shard("case0", 0, 2), shard("case0", 1, 3)])
    with pytest.raises(ValueError):
        merge_reports([shard("case0", 0, 4), shard("case0", 2, 4)])
    merged = merge_reports([shard("case0", p, 2) for p in range(2)])
    with pytest.raises(ValueError):
        merge_reports([merged, shard("case0", 1, 2)])
    with pytest.raises(ValueError):
        merge_reports(
            [shard("small", 0, 2, k_max=50), shard("small", 1, 2, k_max=60)]
        )
    renamed = shard("case0", 1, 2)
    renamed.stage_counts = [("odd_k", count) for _, count in renamed.stage_counts]
    with pytest.raises(ValueError, match="stage mismatch between shards"):
        merge_reports([shard("case0", 0, 2), renamed])
    reworded = shard("case0", 1, 2)
    reworded.notes = reworded.notes[:-1]
    with pytest.raises(ValueError, match="notes mismatch between shards"):
        merge_reports([shard("case0", 0, 2), reworded])
    with pytest.raises(ValueError):
        shard("nonsense", 0, 1)
    with pytest.raises(ValueError):
        shard("small", 3, 2)


def test_search_rejects_an_unknown_campaign_and_no_workers():
    with pytest.raises(ValueError):
        search("bogus")
    with pytest.raises(ValueError):
        search("case0", workers=0)


def test_jsonl_schema(case12_toy_report):
    text = report_to_jsonl(case12_toy_report)
    lines = text.strip().split("\n")
    assert len(lines) == CASE12_TOY_PAIRS + 1
    for line in lines:  # each row, the timed summary too, is exactly what json.dumps writes
        assert line == json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))
    for line in lines[:-1]:
        row = json.loads(line)
        assert set(row) - {"flags"} == {"k", "n", "r", "m", "verdict"}
    summary = json.loads(lines[-1])
    assert summary["stage"] == "summary"
    assert summary["stage_counts"][1] == ["window_residue_pairs", CASE12_TOY_PAIRS]
    assert "elapsed" in summary
    bare = json.loads(report_to_jsonl(case12_toy_report, include_timing=False).strip().split("\n")[-1])
    assert "elapsed" not in bare


@pytest.mark.parametrize("run", sorted(REPORT_SHA256))
def test_every_paper_search_has_one_row_schema(run, request):
    # Every campaign writes the same row keys; only a case12 row may add
    # the sign tests that passed.  The summary holds nothing campaign-specific.
    fixture, _ = REPORT_SHA256[run]
    report = campaign_case0() if fixture is None else request.getfixturevalue(fixture)
    summary_keys = {"campaign", "stage", "ranges", "stage_counts", "survivors", "notes"}
    for timing in (False, True):
        rows = [json.loads(line) for line in report_to_jsonl(report, include_timing=timing).splitlines()]
        assert len(rows) == len(report.candidates) + 1
        for row in rows[:-1]:
            assert set(row) - {"flags"} == {"k", "m", "n", "r", "verdict"}, row
            assert "flags" not in row or report.campaign == "case12", row
        assert set(rows[-1]) == summary_keys | ({"elapsed"} if timing else set())


def test_stage_counts_non_increasing(small_report, case12_toy_report, case3_150_report):
    for report in (small_report, case12_toy_report, case3_150_report, campaign_case0()):
        counts = [count for _, count in report.stage_counts]
        assert counts == sorted(counts, reverse=True)
        assert {(c.k, c.n) for c in report.survivors} <= {
            (c.k, c.n) for c in report.candidates
        }


@pytest.mark.parametrize("run", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(run, request):
    fixture, digest = REPORT_SHA256[run]
    report = campaign_case0() if fixture is None else request.getfixturevalue(fixture)
    data = report_to_jsonl(report, include_timing=False).encode()
    assert hashlib.sha256(data).hexdigest() == digest


def test_report_rows_match_json_dumps():
    # The direct row writer against json.dumps of each row as a dict.
    cands = [
        CandidatePair(k=5, n=9, r=3, m=1, verdict="survivor", flags=frozenset({"plus_disc"})),
        CandidatePair(k=7, n=20, r=4, m=2, verdict="eliminated"),
        CandidatePair(k=2**61 + 1, n=3 * (2**61 + 2) + 9, r=9, m=3, verdict="survivor",
                      flags=frozenset({"plus_disc", "minus_disc", "100%"})),
        CandidatePair(k=9, n=30, r=0, m=3, verdict='odd "verdict" %d \u00e9'),
        CandidatePair(k=11, n=39, r=3, m=3, verdict="eliminated"),
    ]
    for notes in ([], ["a note", "\u00e9"]):
        for timing in (True, False):
            report = CampaignReport(
                campaign="case3",
                ranges={"k_lo": 3, "m_hi": 55},
                stage_counts=[("triples_enumerated", 12), ("valuation_matches", len(cands))],
                candidates=cands,
                elapsed=0.1234567,
                notes=notes,
            )
            rows = []
            for c in cands:
                row = {"k": c.k, "n": c.n, "r": c.r, "m": c.m, "verdict": c.verdict}
                if c.flags:
                    row["flags"] = sorted(c.flags)
                rows.append(row)
            summary = {
                "campaign": "case3",
                "stage": "summary",
                "ranges": report.ranges,
                "stage_counts": [list(item) for item in report.stage_counts],
                "survivors": [[c.k, c.n] for c in cands if c.verdict == "survivor"],
            }
            if notes:
                summary["notes"] = notes
            if timing:
                summary["elapsed"] = 0.123457
            rows.append(summary)
            expect = "\n".join(json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows) + "\n"
            assert report_to_jsonl(report, include_timing=timing) == expect


def test_candidate_pair_is_frozen():
    pair = CandidatePair(k=2, n=1, r=1, m=0, verdict="eliminated")
    with pytest.raises(AttributeError):
        pair.k = 3
