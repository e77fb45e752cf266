"""Exhaustive search campaigns ruling out Lucas/discriminant coincidences.

Each campaign scans a slice of the parameter space for solutions of
L(k, n) == |disc(k)|, where L(k, .) is the k-generalized Lucas sequence
and disc(k) the discriminant of x^k - x^(k-1) - ... - x - 1.  Writing
n = m*(k+1) + r, the residue r decides which congruence for L(k, n)
modulo a power of two applies, and the campaigns split along it:

* ``campaign_small``   -- exhaustive equality walk for 2 <= k <= 200;
* ``campaign_case0``   -- r == 0, settled by a 2-adic valuation clash;
* ``campaign_case12``  -- r in {1, 2}, even k, window pairs found by
  bisecting the concave defect m(k+1) - w(k) for each m, then a
  modular test on the surviving (k, n) pairs;
* ``campaign_case3``   -- r >= 3, odd k localized near powers of two,
  a two-filter scan that reads k off the closed-form nu2(Q(m, r)).

The admissible window (w(k), w(k) + 2.4) of n, its exact membership
test and the m band it implies at each k live in :mod:`lucasdisc.bounds`.

Determinism policy: every count, candidate, and survivor reported here
is decided by exact integer arithmetic or by extended-precision
evaluation with an explicit safety margin; no machine float takes part.
Bisection only narrows where the exact window test must look, and its
margins cannot drop a member, so reports are reproducible across shard
layouts and worker counts.  Reports from disjoint shards merge into the
same bytes as an unsharded run (timing aside).
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

import mpmath

from .sequences import LUCAS, SeqParams, term_iter
from .twoadic import disc_match, disc_nu2, l_quantity_nu2, lucas_congruence_parts
from .bounds import (
    K_CAP,
    _defect,
    _m_envelope,
    _width,
    _window_member_exact,
    discriminant,
    localize_k_by_power2,
    m_range,
)

__all__ = [
    "CandidatePair",
    "CampaignReport",
    "CAMPAIGN_NAMES",
    "campaign_small",
    "campaign_case0",
    "campaign_case12",
    "campaign_case3",
    "shard",
    "merge_reports",
    "report_to_jsonl",
]

#: Largest value of a - 1 = k - r that the r >= 3 campaign must consider
#: (a is capped by the carry count of the binomials involved).
A_MINUS1_MAX = 233

# n = m(k+1) + r with r in {1, 2} lies in k's window (w, w + 2.4) only if
# d = m(k+1) - w(k) lies in (-2, 1.4).  The case12 bisection widens that
# by _MARGIN on both sides; _defect's rounding error (about 2^-70) stays
# far below it, so a k the bisection rules out is outside for certain.
_MARGIN = mpmath.mpf(2) ** -20
_DEFECT_LO = -2 - _MARGIN
_DEFECT_HI = _width() - 1 + _MARGIN


@dataclass(frozen=True)
class CandidatePair:
    """One (k, n) pair that reached a reportable stage of a campaign."""

    k: int
    n: int
    r: int
    m: int
    a: int | None
    stage: str
    verdict: str
    stage_flags: frozenset[str] = frozenset()


@dataclass
class CampaignReport:
    campaign: str
    ranges: dict
    stage_counts: list[tuple[str, int]]
    candidates: list[CandidatePair]
    elapsed: float
    notes: list[str] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def survivors(self) -> list[CandidatePair]:
        """Candidates whose verdict is ``survivor``, in (k, n) order."""
        return [c for c in self.candidates if c.verdict == "survivor"]


def _run(
    name: str,
    shard: tuple[int, int] | None,
    units: range,
    scan: Callable[[range], tuple[list[CandidatePair], list[tuple[str, int]], dict]],
    ranges: dict,
    notes: list[str],
) -> CampaignReport:
    """Scan this shard's units and package the result as a report.

    Shard (piece, of) takes ``units[piece::of]``, so the pieces of one
    layout partition the units.  ``scan`` returns the candidates, the
    stage counts and the extras of its slice; candidates are sorted by
    (k, n) here, which makes merged shards equal an unsharded run.
    """
    piece, of = (0, 1) if shard is None else shard
    if of < 1 or not 0 <= piece < of:
        raise ValueError("bad shard (%r, %r): need 0 <= piece < of" % (piece, of))
    t0 = time.perf_counter()
    candidates, stage_counts, extras = scan(units[piece::of])
    candidates.sort(key=lambda c: (c.k, c.n))
    if of > 1:
        ranges["shard"] = {"pieces": [piece], "of": of}
    return CampaignReport(
        campaign=name,
        ranges=ranges,
        stage_counts=stage_counts,
        candidates=candidates,
        elapsed=time.perf_counter() - t0,
        notes=notes,
        extras=extras,
    )


def _window_pairs(ks: range, m: int) -> list[tuple[int, int, int, int]]:
    """The (k, n, m, r) with k in ``ks``, r in {1, 2}, n = m(k+1) + r in k's window.

    d(k) = m(k+1) - w(k) is strictly concave in k.  Where it rises,
    m - 1 >= log2(k) + (k-2)/(k ln 2), so d(k) >= 2 log2(k) + (k-2)/ln 2
    + m + 1/10 > 1.4 and no window is reached.  Along the k of ``ks`` the
    tests d < 1.4 and d <= -2 therefore switch from false to true once
    each, and bisection finds the run of k with d in (-2, 1.4).  Its ends
    are widened by _MARGIN, and every k in the run is confirmed exactly
    for both r.
    """

    def d(k: int) -> mpmath.mpf:
        return _defect(k, m * (k + 1))

    near = ks[
        bisect_left(ks, True, key=lambda k: d(k) < _DEFECT_HI) :
        bisect_left(ks, True, key=lambda k: d(k) <= _DEFECT_LO)
    ]
    return [
        (k, m * (k + 1) + r, m, r)
        for k in near
        for r in (1, 2)
        if _window_member_exact(k, m * (k + 1) + r)
    ]


def campaign_small(
    k_max: int = 200,
    n_max: int = 2529,
    shard: tuple[int, int] | None = None,
) -> CampaignReport:
    """Exhaustive equality scan L(k, n) == |disc(k)| for 2 <= k <= k_max.

    For each k the Lucas terms are walked from n = 0 upward and compared
    to the exact discriminant magnitude; the walk stops at the first
    term >= |disc| (terms are strictly increasing for n >= 2) or at
    n_max, whichever comes first.
    """
    if k_max < 2:
        raise ValueError("need k_max >= 2, got %d" % (k_max,))
    if n_max < 2:
        raise ValueError("need n_max >= 2, got %d" % (n_max,))

    def scan(ks: range):
        terms_examined = 0
        hits: list[CandidatePair] = []
        for k in ks:
            delta = discriminant(k)
            params = SeqParams(k=k, family=LUCAS)
            for n, value in term_iter(params, 0):
                if n > n_max:
                    break
                terms_examined += 1
                if value == delta:
                    m, r = divmod(n, k + 1)
                    hits.append(
                        CandidatePair(
                            k=k,
                            n=n,
                            r=r,
                            m=m,
                            a=None,
                            stage="equality_walk",
                            verdict="survivor",
                            stage_flags=frozenset({"exact_equality"}),
                        )
                    )
                if n >= 2 and value >= delta:
                    break
        return hits, [("terms_examined", terms_examined), ("equality_hits", len(hits))], {}

    return _run(
        "small",
        shard,
        range(2, k_max + 1),
        scan,
        {"k_lo": 2, "k_hi": k_max, "n_lo": 0, "n_hi": n_max},
        [
            "every Lucas term with 0 <= n <= n_hi is compared to |disc| exactly;"
            " the walk stops at the first term >= |disc| (monotone for n >= 2)",
        ],
    )


def campaign_case0(shard: tuple[int, int] | None = None) -> CampaignReport:
    """Rule out n divisible by k+1 for odd 5 <= k <= 201 by valuations.

    With r == 0 the Lucas term is congruent to +/-2 modulo 2^(k-2), so
    nu2(L(n)) == 1 whenever k >= 5, while |disc| of an odd k has
    nu2 == k - 1 >= 4.  The clash is verified numerically for each k;
    k in {2, 3} falls below the useful modulus and is covered
    exhaustively by the small campaign instead.
    """

    def scan(ks: range):
        gaps: list[CandidatePair] = []
        for k in ks:
            # The congruence pins nu2(L(n)) at shift only if shift < E, and
            # the clash needs that valuation to differ from nu2(|disc|).
            shifts = [lucas_congruence_parts(k, m, 0)[2:] for m in (0, 1)]
            if not all(shift < e and shift != disc_nu2(k) for shift, e in shifts):
                gaps.append(
                    CandidatePair(
                        k=k,
                        n=0,
                        r=0,
                        m=0,
                        a=None,
                        stage="valuation_clash",
                        verdict="survivor",
                        stage_flags=frozenset({"clash_not_established"}),
                    )
                )
        return gaps, [("odd_k_checked", len(ks)), ("clashes_missing", len(gaps))], {}

    return _run(
        "case0",
        shard,
        range(5, 202, 2),
        scan,
        {"k_lo": 5, "k_hi": 201, "k_parity": "odd", "residue": 0},
        [
            "r == 0 forces L(n) == +/-2 modulo 2^(k-2), so nu2(L(n)) == 1 for k >= 5",
            "odd-k |disc| has nu2 == k - 1 >= 4, so equality is impossible",
            "k in {2, 3} sits below the useful modulus and is covered by the"
            " small campaign",
        ],
    )


def campaign_case12(
    k_lo: int = 202,
    k_hi: int = 70_000_000,
    test_modulus_bits: int = 100,
    shard: tuple[int, int] | None = None,
) -> CampaignReport:
    """Scan even k in [k_lo, k_hi) for window pairs with r in {1, 2}.

    Stage 1 goes through m instead of k: the defect m(k+1) - w(k) is
    concave in k, so bisection over this shard's even k finds the few k
    whose admissible window can hold n = m(k+1) + r, and those are
    confirmed in escalating extended precision (:func:`_window_pairs`).
    Since r < k+1, n mod (k+1) == r holds by construction.  Stage 2
    multiplies the Lucas congruence through by (k-1)^2 (:func:`disc_match`):
    an equality L(n) == +/-|disc| would force

        (k+1)^(k+1) == -/+ alpha2,  alpha2 := (-1)^m (k-1)^2 coeff(m, r)
                                             (mod 2^test_modulus_bits)

    because (k-1)^2 |disc| = 2^(k+1) k^k - (k+1)^(k+1) and the leading
    term vanishes modulo 2^test_modulus_bits.  Both signs are accepted.
    The r = 1 congruence holds modulo 2^(k-1), which caps
    test_modulus_bits at k_lo - 1.
    """
    if k_lo % 2 or k_hi % 2:
        raise ValueError("k range not even-aligned: (%d, %d)" % (k_lo, k_hi))
    if k_hi < k_lo:
        raise ValueError("need k_lo <= k_hi, got (%d, %d)" % (k_lo, k_hi))
    if k_lo <= 200:
        raise ValueError("need k_lo > 200, got %d" % (k_lo,))
    if not 1 <= test_modulus_bits <= k_lo - 1:
        raise ValueError("need 1 <= test_modulus_bits <= k_lo - 1, got %d" % (test_modulus_bits,))

    def scan(ks: range):
        window_pairs: list[tuple[int, int, int, int]] = []
        if ks:
            # The m band of each k grows with k, so the first and the last k
            # confine m.  For r in {1, 2} the band has slack (k-2)/(k+1)
            # below and 1/(k+1) above, far more than _m_envelope's rounding.
            for m in range(_m_envelope(ks[0])[0], _m_envelope(ks[-1])[1] + 1):
                window_pairs += _window_pairs(ks, m)

        candidates: list[CandidatePair] = []
        survivors = 0
        for k, n, m, r in window_pairs:
            # L == +|disc| is (k+1)^(k+1) == -alpha2, L == -|disc| is +alpha2.
            parts = lucas_congruence_parts(k, m, r)
            sign_minus, sign_plus = disc_match(k, r, parts, test_modulus_bits)
            flags = {"window_member", "residue_%d" % r}
            if sign_plus:
                flags.add("sign_plus")
            if sign_minus:
                flags.add("sign_minus")
            survived = sign_plus or sign_minus
            if survived:
                flags.add("modulus_match")
            candidates.append(
                CandidatePair(
                    k=k,
                    n=n,
                    r=r,
                    m=m,
                    a=None,
                    stage="window_residue",
                    verdict="survivor" if survived else "eliminated",
                    stage_flags=frozenset(flags),
                )
            )
            survivors += survived
        stage_counts = [
            ("k_scanned", len(ks)),
            ("window_residue_pairs", len(candidates)),
            ("modulus_survivors", survivors),
        ]
        return candidates, stage_counts, {}

    return _run(
        "case12",
        shard,
        range(k_lo, k_hi, 2),
        scan,
        {
            "k_lo": k_lo,
            "k_hi": k_hi,
            "k_parity": "even",
            "residues": [1, 2],
            "test_modulus_bits": test_modulus_bits,
        },
        [
            "bisection over the concave defect m(k+1) - w(k) proposes the k"
            " near each window; membership is confirmed exactly",
            "stage 2 tests (k+1)^(k+1) == +/-(-1)^m (k-1)^2 coeff modulo"
            " 2^test_modulus_bits, accepting either sign",
        ],
    )


def campaign_case3(
    modulus_extra_bits: int = 150,
    shard: tuple[int, int] | None = None,
) -> CampaignReport:
    """Two-filter scan over (a, m, k) triples for r >= 3 and odd k.

    A solution with r >= 3 forces nu2(L(n)) == r - 2 + nu2(Q(m, r)) to
    equal the discriminant valuation k - 1, i.e. a := nu2(Q) == k - r + 1.
    The triples are a - 1 in [0, 233], m in the widened admissible band,
    and odd k strictly inside the power-of-two localization window for
    m.  Filter 1 keeps triples with nu2(Q(m, r)) == a.  Each (m, r)
    fixes a through the closed form :func:`l_quantity_nu2`, hence the
    only k = r + a - 1 it can match, so the scan goes through (m, r) and
    counts the triples arithmetically.  Filter 2 (:func:`disc_match`,
    the + sign) compares odd parts:

        (-1)^m (k-1)^2 Q == 2^(a+2) (k^k - ((k+1)/2)^(k+1))
                                     (mod 2^min(a + extra, k))

    The clamp at 2^k keeps the modulus no stronger than the underlying
    congruence supports; it is inert for filter-1 survivors at the
    default parameters.
    """
    if modulus_extra_bits < 2:
        raise ValueError("need modulus_extra_bits >= 2, got %d" % (modulus_extra_bits,))
    m_lo, m_hi = m_range(K_CAP)

    def scan(ms: range):
        triples = 0
        candidates: list[CandidatePair] = []
        survivors = 0
        band_candidates = 0
        band_survivors = 0
        for m in ms:
            lo, hi = localize_k_by_power2(m)
            k_start = lo + 1 + (lo & 1)  # smallest odd integer > lo
            if k_start >= hi:  # no odd k left (m = 57 clips away at K_CAP)
                continue
            # Odd k in [max(k_start, a + 2), hi) for each a; r = k - a + 1 >= 3.
            # There are x // 2 odd integers below x.
            triples += sum(
                max(0, hi // 2 - max(k_start, a_minus1 + 3) // 2)
                for a_minus1 in range(A_MINUS1_MAX + 1)
            )
            for r in range(max(3, k_start - A_MINUS1_MAX), hi):
                a = l_quantity_nu2(m, r)
                k = r + a - 1
                if not (k & 1 and lo < k < hi and 1 <= a <= A_MINUS1_MAX + 1):
                    continue
                parts = lucas_congruence_parts(k, m, r)
                if parts[2] - (r - 2) != a:
                    raise AssertionError("closed-form nu2(Q) wrong at m=%d r=%d" % (m, r))
                survived = disc_match(k, r, parts, a + modulus_extra_bits)[0]
                in_band = 9 <= m <= 55
                flags = {"valuation_match"}
                if in_band:
                    flags.add("m_band_9_55")
                if survived:
                    flags.add("congruence_match")
                candidates.append(
                    CandidatePair(
                        k=k,
                        n=m * (k + 1) + r,
                        r=r,
                        m=m,
                        a=a,
                        stage="valuation",
                        verdict="survivor" if survived else "eliminated",
                        stage_flags=frozenset(flags),
                    )
                )
                band_candidates += in_band
                survivors += survived
                band_survivors += survived and in_band
        stage_counts = [
            ("triples_enumerated", triples),
            ("valuation_matches", len(candidates)),
            ("congruence_survivors", survivors),
        ]
        extras = {
            "valuation_matches_m_9_55": band_candidates,
            "survivors_m_9_55": band_survivors,
        }
        return candidates, stage_counts, extras

    return _run(
        "case3",
        shard,
        range(m_lo, m_hi + 1),
        scan,
        {
            "k_floor": 200,
            "k_cap": K_CAP,
            "k_parity": "odd",
            "m_lo": m_lo,
            "m_hi": m_hi,
            "a_lo": 1,
            "a_hi": A_MINUS1_MAX + 1,
            "r_lo": 3,
            "modulus_extra_bits": modulus_extra_bits,
        },
        [
            "filter 1 keeps triples whose congruence quantity has nu2 equal to"
            " a = k - r + 1, matching the discriminant valuation k - 1",
            "filter 2 compares odd parts modulo 2^min(a + extra, k)",
            "the m scan is one band wider on each side than the tight envelope;"
            " tallies on the tight band 9..55 are reported in extras",
        ],
    )


#: The campaign registry: name -> campaign function.
_CAMPAIGNS = {
    "small": campaign_small,
    "case0": campaign_case0,
    "case12": campaign_case12,
    "case3": campaign_case3,
}

CAMPAIGN_NAMES = tuple(_CAMPAIGNS)


def shard(campaign: str, piece: int, of: int, **params) -> CampaignReport:
    """Run one shard (piece-th residue class out of ``of``) of a campaign.

    Shards of a campaign partition its work: running every piece in
    [0, of) and merging the reports reproduces the unsharded report
    byte-for-byte (timing excluded).
    """
    if campaign not in _CAMPAIGNS:
        raise ValueError("unknown campaign %r; expected one of %s" % (campaign, CAMPAIGN_NAMES))
    return _CAMPAIGNS[campaign](shard=(piece, of), **params)


def merge_reports(reports: list[CampaignReport]) -> CampaignReport:
    """Merge shard reports of one campaign into a combined report.

    All inputs must come from the same campaign with identical
    parameters and the same shard denominator; their pieces must be
    disjoint.  Once every piece is present the shard bookkeeping is
    dropped, making the merge byte-identical to an unsharded run
    (timing aside; elapsed is summed).
    """
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    first = reports[0]
    base = {key: val for key, val in first.ranges.items() if key != "shard"}
    names = [name for name, _ in first.stage_counts]
    counts = [0] * len(names)
    pieces: list[int] = []
    of = None
    candidates: list[CandidatePair] = []
    extras: dict = {}
    elapsed = 0.0
    for rep in reports:
        if rep.campaign != first.campaign:
            raise ValueError("campaign mismatch: %r vs %r" % (rep.campaign, first.campaign))
        if {k: v for k, v in rep.ranges.items() if k != "shard"} != base:
            raise ValueError("parameter mismatch between shards")
        if [name for name, _ in rep.stage_counts] != names:
            raise ValueError("stage mismatch between shards")
        if rep.notes != first.notes:
            raise ValueError("notes mismatch between shards")
        info = rep.ranges.get("shard")
        if info is None:
            if len(reports) > 1:
                raise ValueError("cannot merge an unsharded report with others")
            rep_pieces, rep_of = [0], 1
        else:
            rep_pieces, rep_of = info["pieces"], info["of"]
        if of is None:
            of = rep_of
        elif of != rep_of:
            raise ValueError("shard denominators differ: %d vs %d" % (of, rep_of))
        overlap = set(pieces) & set(rep_pieces)
        if overlap:
            raise ValueError("overlapping shard pieces: %s" % sorted(overlap))
        pieces.extend(rep_pieces)
        for i, (_, count) in enumerate(rep.stage_counts):
            counts[i] += count
        candidates.extend(rep.candidates)
        for key, val in rep.extras.items():
            extras[key] = extras.get(key, 0) + val
        elapsed += rep.elapsed

    candidates.sort(key=lambda c: (c.k, c.n))
    ranges = dict(base)
    assert of is not None
    if sorted(pieces) != list(range(of)):
        ranges["shard"] = {"pieces": sorted(pieces), "of": of}
    return CampaignReport(
        campaign=first.campaign,
        ranges=ranges,
        stage_counts=list(zip(names, counts)),
        candidates=candidates,
        elapsed=elapsed,
        notes=list(first.notes),
        extras=extras,
    )


def _candidate_row(campaign: str, cand: CandidatePair) -> dict:
    row = {
        "campaign": campaign,
        "stage": cand.stage,
        "k": cand.k,
        "n": cand.n,
        "r": cand.r,
        "m": cand.m,
        "verdict": cand.verdict,
    }
    if cand.a is not None:
        row["a"] = cand.a
    if cand.stage_flags:
        row["flags"] = sorted(cand.stage_flags)
    return row


def report_to_jsonl(report: CampaignReport, include_timing: bool = True) -> str:
    """Serialize a report as JSON lines: one row per candidate, then a summary.

    Keys are sorted and separators fixed, so identical reports serialize
    to identical bytes; pass ``include_timing=False`` to drop the only
    nondeterministic field.
    """
    lines = [
        json.dumps(_candidate_row(report.campaign, cand), sort_keys=True, separators=(",", ":"))
        for cand in report.candidates
    ]
    summary: dict = {
        "campaign": report.campaign,
        "stage": "summary",
        "ranges": report.ranges,
        "stage_counts": [[name, count] for name, count in report.stage_counts],
        "survivors": [[cand.k, cand.n] for cand in report.survivors],
    }
    if report.extras:
        summary["extras"] = report.extras
    if report.notes:
        summary["notes"] = report.notes
    if include_timing:
        summary["elapsed"] = round(report.elapsed, 6)
    lines.append(json.dumps(summary, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"
