"""Acceptance gate: one test (and one pass/fail line under -v) per criterion.

Each test exercises the full stated range at the stated tolerance; the
expensive full-campaign runs are shared session fixtures.
"""

import math
from math import isqrt

from lucasdisc.bounds import (
    bl_crossover_k,
    discriminant,
    solve_bl_k_bound,
    solve_matveev_k_bound,
)
from lucasdisc.campaigns import (
    campaign_case0,
    campaign_case12,
    campaign_case3,
    campaign_small,
    merge_reports,
    report_to_jsonl,
    shard,
)
from lucasdisc.roots import binet_error_check, binet_vs_power2_check
from lucasdisc.sequences import LUCAS, SeqParams, term
from lucasdisc.twoadic import l_quantity, lucas_congruence_parts, nu2


def test_criterion_01_small_campaign_zero_survivors(small_report):
    assert small_report.ranges == {"k_lo": 2, "k_hi": 200, "n_lo": 0}
    assert small_report.survivors == []
    assert small_report.stage_counts[-1] == ("equality_hits", 0)
    assert small_report.elapsed < 60.0
    print("criterion 1: 0 survivors over k<=200, each walk to its first term >= |disc|, in %.2fs" % small_report.elapsed)


def test_criterion_02_case12_exactly_32_pairs_zero_survivors(case12_full_report):
    report = case12_full_report
    pairs = dict(report.stage_counts)["window_residue_pairs"]
    survivors = dict(report.stage_counts)["modulus_survivors"]
    assert pairs == 32, "expected exactly 32 stage-1 pairs, got %d: %s" % (
        pairs,
        [(c.k, c.n) for c in report.candidates],
    )
    assert survivors == 0
    # both sign conventions were tested on every pair, and neither passed
    assert not any(c.flags for c in report.candidates)
    print("criterion 2: 32 window pairs, 0 survivors at 2^100 (both signs)")


# The 14 survivors at 100 extra bits, as (m, a): each has k = 2^m + 1 and
# r = k - a + 1.
CASE3_SURVIVORS_AT_100 = [
    (46, 44), (48, 1), (50, 50), (50, 1), (51, 1), (52, 50), (52, 49),
    (52, 48), (52, 1), (53, 1), (54, 52), (54, 1), (55, 54), (55, 1),
]


def test_criterion_03_case3_zero_at_150_fourteen_at_100(case3_150_report, case3_100_report):
    assert case3_150_report.survivors == []
    expect = []
    for m, a in CASE3_SURVIVORS_AT_100:
        k = 2**m + 1
        r = k - a + 1
        expect.append((k, m * (k + 1) + r))
    survivors = case3_100_report.survivors
    assert sorted((c.k, c.n) for c in survivors) == sorted(expect)
    assert all(9 <= c.m <= 55 for c in survivors)  # the widened m band adds none
    for report in (case3_150_report, case3_100_report):
        ms = [c.m for c in report.candidates]
        assert len(ms) == 12_219
        assert sum(9 <= m <= 55 for m in ms) == 12_130
        assert ms.count(8) == 89
    print("criterion 3: 0 survivors at 150 extra bits; 14 at 100, all on m in [9,55]")


def test_criterion_04_congruence_brute_force_grid():
    checked = 0
    for k in range(5, 17):
        params = SeqParams(k=k, family=LUCAS)
        for m in range(0, 7):
            for r in range(0, k + 1):
                sign, odd, shift, exponent = lucas_congruence_parts(k, m, r)
                assert (term(params, r + m * (k + 1)) - (sign * odd << shift)) % (1 << exponent) == 0
                checked += 1
    print("criterion 4: %d congruence cells verified against exact terms" % checked)


def test_criterion_05_disc_valuation_parity_split():
    for k in range(2, 201):
        assert nu2(discriminant(k)) == (0 if k % 2 == 0 else k - 1)
    print("criterion 5: nu2(|disc|) parity split holds for 2 <= k <= 200")


def test_criterion_06_disc_spot_values():
    assert discriminant(2) == 5
    assert discriminant(3) == 44
    assert discriminant(4) == 563
    print("criterion 6: |disc| = 5, 44, 563 at k = 2, 3, 4")


def test_criterion_07_dominant_term_inequalities():
    checked = 0
    for k in range(2, 21):
        for n in range(2 - k, 101):
            assert binet_error_check(k, n), (k, n)
            checked += 1
    for k in range(12, 31):
        limit = isqrt((1 << k) - 1)
        ns = sorted({1, 2, 3, 5, 8, 16, limit // 16, limit // 4, limit // 2, limit} - {0})
        for n in ns:
            assert binet_vs_power2_check(k, n), (k, n)
            checked += 1
    print("criterion 7: %d certified dominant-term inequality checks" % checked)


def test_criterion_08_exclusion_bound_caps():
    caps = solve_matveev_k_bound()
    assert caps.k_max < 7 * 10**16
    assert caps.n_max < 4 * 10**18
    assert bl_crossover_k() < 59000
    assert solve_bl_k_bound() < 7 * 10**7
    print(
        "criterion 8: k cap %d < 7e16, n cap %d < 4e18, crossover %d < 59000, final %d < 7e7"
        % (caps.k_max, caps.n_max, bl_crossover_k(), solve_bl_k_bound())
    )


def test_criterion_09_valuation_law_witness():
    value = term(SeqParams(k=5, family=LUCAS), 9)
    assert value == 352
    assert l_quantity(1, 3) == 16
    assert nu2(value) == 3 - 2 + nu2(l_quantity(1, 3)) == 5
    print("criterion 9: nu2(352) = 5 = r - 2 + nu2(16)")


def test_criterion_10_shard_merge_byte_determinism(
    small_report, case12_toy_report, case3_150_report
):
    configs = [
        ("small", {}, small_report),
        ("case0", {}, campaign_case0()),
        ("case12", {"k_lo": 202, "k_hi": 10_000}, case12_toy_report),
        ("case3", {"modulus_extra_bits": 150}, case3_150_report),
    ]
    combos = 0
    for name, params, reference in configs:
        want = report_to_jsonl(reference, include_timing=False)
        for pieces in (1, 2, 4, 8):
            parts = [shard(name, p, pieces, **params) for p in range(pieces)]
            got = report_to_jsonl(merge_reports(parts), include_timing=False)
            assert got == want, "campaign %s differs at N=%d" % (name, pieces)
            combos += 1
    print("criterion 10: %d shard layouts reproduce the unsharded bytes" % combos)
