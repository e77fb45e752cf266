"""Campaign behavior: frozen counts, shard determinism, filter monotonicity."""

import hashlib
import json
import math

import pytest

from lucasdisc.bounds import _window_member_exact, discriminant, localize_k_by_power2, m_range
from lucasdisc.campaigns import (
    A_MINUS1_MAX,
    K_CAP,
    CandidatePair,
    campaign_case0,
    campaign_case12,
    campaign_case3,
    campaign_small,
    merge_reports,
    report_to_jsonl,
    shard,
)
from lucasdisc.sequences import LUCAS, SeqParams, term_iter
from lucasdisc.twoadic import l_quantity, nu2

# Counts frozen after the first verified full runs.
SMALL_TERMS = 157411
CASE12_TOY_PAIRS = 10
CASE12_FULL_PAIRS = 32
CASE3_TRIPLES = 3340584
CASE3_VALUATION_MATCHES = 12219
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
    """Window pairs with r in {1, 2}, testing every even k exactly.

    Floats only place the integers to test; the slack of two on each
    side dwarfs their error for k < 2^40.
    """
    pairs = []
    for k in range(k_lo, k_hi, 2):
        lo = math.floor(k + (k - 2) * math.log2(k) - 0.1)
        for n in range(lo - 2, lo + 5):
            if n % (k + 1) in (1, 2) and _window_member_exact(k, n):
                pairs.append((k, n))
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


def case3_triple_loop(m, modulus_extra_bits):
    """The (a, m, k) triple loop with exact l_quantity, for one m."""
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
                quantities[r] = l_quantity(m, r)
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
@pytest.mark.parametrize("m", [8, 9, 30, 55, 57])
def test_case3_matches_triple_loop(m):
    m_lo, m_hi = m_range(K_CAP)
    report = campaign_case3(modulus_extra_bits=100, shard=(m - m_lo, m_hi - m_lo + 1))
    triples, rows = case3_triple_loop(m, 100)
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


def test_partial_merge_keeps_shard_bookkeeping():
    parts = [shard("case0", p, 4) for p in (0, 2)]
    merged = merge_reports(parts)
    assert merged.ranges["shard"] == {"pieces": [0, 2], "of": 4}
    full = merge_reports([merged, shard("case0", 1, 4), shard("case0", 3, 4)])
    assert "shard" not in full.ranges
    assert full.stage_counts == campaign_case0().stage_counts


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
        merge_reports(
            [shard("small", 0, 2, k_max=50), shard("small", 1, 2, k_max=60)]
        )
    with pytest.raises(ValueError):
        shard("nonsense", 0, 1)
    with pytest.raises(ValueError):
        shard("small", 3, 2)


def test_jsonl_schema(case12_toy_report):
    text = report_to_jsonl(case12_toy_report)
    lines = text.strip().split("\n")
    assert len(lines) == CASE12_TOY_PAIRS + 1
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


def test_candidate_pair_is_frozen():
    pair = CandidatePair(k=2, n=1, r=1, m=0, a=None, stage="x", verdict="eliminated")
    with pytest.raises(AttributeError):
        pair.k = 3
