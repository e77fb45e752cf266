"""Campaign behavior: frozen counts, shard determinism, filter monotonicity."""

import hashlib
import json
import math
from decimal import Context, Decimal, localcontext

import mpmath
import pytest

from lucasdisc.bounds import (
    bound_profile,
    discriminant,
    localize_k_by_power2,
    m_range,
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
from lucasdisc.sequences import LUCAS, SeqParams, term, term_iter
from lucasdisc import campaigns, twoadic
from lucasdisc.twoadic import disc_match, l_quantity, l_quantity_nu2, nu2

from test_bounds import w_200
from test_twoadic import four_binomial_q

# Counts frozen after the first verified full runs.
SMALL_TERMS = 157411
CASE12_TOY_PAIRS = 10
CASE12_FULL_PAIRS = 32
CASE3_TRIPLES = 3340584
CASE3_VALUATION_MATCHES = 12219
CASE3_LOW_CORE_CLASSES = 2316  # distinct k mod 2^22 among the matches
CASE3_SURVIVORS_AT_100 = 14

# sha256 of report_to_jsonl(report, include_timing=False) per campaign run,
# keyed by the conftest fixture that holds the run (None: case0, run here).
REPORT_SHA256 = {
    "small": ("small_report", "679a98b5476770028ef146ee54d488633541e7006fd1803ca0f913f027b27cc9"),
    "case0": (None, "d4e05d658008bd327a27c76ce6b5ce90ad6800d52f2a6bad6f2fe69fef9fd0bf"),
    "case12": ("case12_full_report", "0ebf9e52fce47e30bce6444231e1a325620a55f0da89729a91e6dc2cfdabd960"),
    "case3_150": ("case3_150_report", "16c98191ce00b9164262f3c8447e2b8520a60f4e39ae647ca964be772e942cf7"),
    "case3_100": ("case3_100_report", "735df6d711ff26ca58bd7bd92aae21b58d803e87c6c09d83098c77b12923d86c"),
}


def test_small_campaign_frozen_counts(small_report):
    assert small_report.stage_counts == [
        ("terms_examined", SMALL_TERMS),
        ("equality_hits", 0),
    ]
    assert small_report.survivors == []
    assert small_report.ranges["k_hi"] == 200
    assert small_report.ranges["n_hi"] == 2529


def test_small_campaign_cross_checks_brute_force():
    report = campaign_small(k_max=16, n_max=300)
    brute = []
    for k in range(2, 17):
        delta = discriminant(k)
        for n, value in term_iter(SeqParams(k=k, family=LUCAS), 0):
            if n > 300:
                break
            if value == delta:
                brute.append((k, n))
            if n >= 2 and value >= delta:
                break
    assert [(c.k, c.n) for c in report.survivors] == brute == []


def test_small_campaign_rejects_an_n_max_below_a_crossing():
    # Stopping at n_max would leave the rest of k = 21 unchecked.
    with pytest.raises(ValueError, match="k=21 passes n_max=100"):
        campaign_small(k_max=200, n_max=100)


# With |disc(9)| planted at L(9, n): the two terms compared before the walk,
# its first step, the first term past the powers of two, and the crossing.
@pytest.mark.parametrize("n", [0, 1, 2, 10, None], ids=["0", "1", "2", "k+1", "crossing"])
def test_small_walk_reports_a_planted_equality(n, monkeypatch):
    k, k_max = 9, 12
    params = SeqParams(k=k, family=LUCAS)
    if n is None:
        n = next(i for i, value in term_iter(params, 2) if value >= discriminant(k))
    planted = term(params, n)
    monkeypatch.setattr(campaigns, "discriminant", lambda j: planted if j == k else discriminant(j))
    report = campaign_small(k_max=k_max)
    m, r = divmod(n, k + 1)
    assert report.survivors == [
        CandidatePair(k, n, r, m, None, "equality_walk", "survivor", frozenset({"exact_equality"}))
    ]
    for j in range(2, k_max + 1):  # the terms up to the first n >= 2 with L(j, n) >= |disc|
        delta = campaigns.discriminant(j)
        walked = next(i + 1 for i, value in term_iter(SeqParams(j, LUCAS), 0) if i >= 2 and value >= delta)
        one_k = campaign_small(k_max=k_max, shard=(j - 2, k_max - 1))
        assert one_k.stage_counts[0] == ("terms_examined", walked), j


def test_case0_all_odd_k_clash():
    report = campaign_case0()
    assert report.stage_counts == [("odd_k_checked", 99), ("clashes_missing", 0)]
    assert report.survivors == []


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
    assert report.extras["survivors_m_9_55"] == 0
    for c in report.candidates:
        assert c.k % 2 == 1
        assert c.r >= 3
        assert c.a == c.k - c.r + 1
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
        disc_match(c.k, c.m, c.r, l_quantity(c.m, c.r), c.a + 24)[0]
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
    assert sorted((k, m, a) for k, m, a, _, _ in calls) == sorted((c.k, c.m, c.a) for c in hooks.report.candidates)
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
        low = campaigns._case3_low_match(c.k, c.m, c.a, q, twoadic._odd_disc_core(c.k, 22))
        assert low == disc_match(c.k, c.m, c.r, q, c.a + 24)[0], c
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
        assert sorted((c.m, c.r, c.a, c.k) for c in report.candidates) == expect


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
        survived = disc_match(c.k, c.m, c.r, l_quantity(c.m, c.r), c.a + extra)[0]
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
            rows.append((k, m * (k + 1) + r, r, a, lhs == rhs))
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
        assert [(c.k, c.n, c.r, c.a, c.verdict == "survivor") for c in report.candidates] == rows
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
        assert row["campaign"] == "case12"
        assert {"stage", "k", "n", "r", "m", "verdict"} <= set(row)
    summary = json.loads(lines[-1])
    assert summary["stage"] == "summary"
    assert summary["stage_counts"][1] == ["window_residue_pairs", CASE12_TOY_PAIRS]
    assert "elapsed" in summary
    bare = json.loads(report_to_jsonl(case12_toy_report, include_timing=False).strip().split("\n")[-1])
    assert "elapsed" not in bare


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
        CandidatePair(k=5, n=9, r=3, m=1, a=None, stage="equality_walk", verdict="survivor",
                      stage_flags=frozenset({"exact_equality"})),
        CandidatePair(k=7, n=20, r=4, m=2, a=0, stage="valuation", verdict="eliminated"),
        CandidatePair(k=2**61 + 1, n=3 * (2**61 + 2) + 9, r=9, m=3, a=233, stage="valuation",
                      verdict="survivor", stage_flags=frozenset({"valuation_match", "m_band_9_55", "100%"})),
        CandidatePair(k=9, n=30, r=0, m=3, a=None, stage='odd "stage" %d \u00e9', verdict="eliminated"),
        CandidatePair(k=11, n=39, r=3, m=3, a=2, stage="valuation", verdict="eliminated"),
    ]
    for extras, notes in (({}, []), ({"survivors_m_9_55": 2, "valuation_matches_m_9_55": 7}, ["a note", "\u00e9"])):
        for timing in (True, False):
            report = CampaignReport(
                campaign="case3",
                ranges={"k_lo": 3, "m_hi": 55},
                stage_counts=[("triples_enumerated", 12), ("valuation_matches", len(cands))],
                candidates=cands,
                elapsed=0.1234567,
                notes=notes,
                extras=extras,
            )
            rows = []
            for c in cands:
                row = {"campaign": "case3", "stage": c.stage, "k": c.k, "n": c.n, "r": c.r, "m": c.m,
                       "verdict": c.verdict}
                if c.a is not None:
                    row["a"] = c.a
                if c.stage_flags:
                    row["flags"] = sorted(c.stage_flags)
                rows.append(row)
            summary = {
                "campaign": "case3",
                "stage": "summary",
                "ranges": report.ranges,
                "stage_counts": [list(item) for item in report.stage_counts],
                "survivors": [[c.k, c.n] for c in cands if c.verdict == "survivor"],
            }
            if extras:
                summary["extras"] = extras
            if notes:
                summary["notes"] = notes
            if timing:
                summary["elapsed"] = 0.123457
            rows.append(summary)
            expect = "\n".join(json.dumps(row, sort_keys=True, separators=(",", ":")) for row in rows) + "\n"
            assert report_to_jsonl(report, include_timing=timing) == expect


def test_candidate_pair_is_frozen():
    pair = CandidatePair(k=2, n=1, r=1, m=0, a=None, stage="x", verdict="eliminated")
    with pytest.raises(AttributeError):
        pair.k = 3
