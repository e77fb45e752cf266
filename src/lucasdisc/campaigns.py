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
  a two-filter scan that reads k off the closed-form nu2(B(m, r)).

The admissible window (w(k), w(k) + 2.4) of n and the m band it
implies at each k live in :mod:`lucasdisc.bounds`; the window is
decided by the integer l(k) = floor(10(k-2) log2 k).

Determinism policy: every count, candidate, and survivor reported here
is decided by exact integer arithmetic; no float takes part, so reports
are reproducible across shard layouts and worker counts.  The shard
reports of one complete layout merge into the same bytes as an
unsharded run (timing aside), so
:func:`search`, the one call that runs a campaign, may split it freely.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, NamedTuple

from .twoadic import (
    _odd_disc_core,
    disc_match,
    disc_nu2,
    l_quantity,
    lucas_congruence_parts,
)
from .bounds import (
    K_CAP,
    _ell,
    _m_envelope,
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
    "search",
    "shard",
    "merge_reports",
    "report_to_jsonl",
]

#: Largest value of a - 1 = k - r that the r >= 3 campaign must consider:
#: ``bound_profile(K_CAP).a_max - 1`` = floor(6 ln K_CAP + 2) - 1.
A_MINUS1_MAX = 233
#: case3 first decides filter 2 modulo 2^(a + 24) (:func:`_case3_low_match`):
#: the odd-k core is then 22 bits, one CPython digit, and 12,126 of the 12,219
#: matches already fail there.  For w >= 3 and odd k >= w - 1 the core
#: ``_odd_disc_core(k, w)`` depends only on k mod 2^w, so a scan computes one
#: 22-bit core per class of k mod 2^22: 2,316 for the 12,219 matches.
_CASE3_LOW_BITS = 24
_CASE3_LOW_MASK = (1 << _CASE3_LOW_BITS - 2) - 1


def _case3_low_match(k: int, m: int, a: int, q: int, core: int) -> bool:
    """``disc_match(k, m, r, q, a + 24)[0]`` for a case3 match, r = k - a + 1 >= 25.

    ``core`` is ``_odd_disc_core(k, 22)`` and q = B(m, r) with nu2(q) = a.
    At r >= 3 the left side is (-1)^m (k-1)^2 B unshifted; the modulus
    2^min(a + 24, k) is 2^(a + 24) because k >= a + 24; and the right side
    is the core shifted by k + 1 - (r - 2) = a + 2 bits.  Only q's low
    a + 24 bits enter the product.
    """
    mask = (1 << a + _CASE3_LOW_BITS) - 1
    lhs = (k - 1) * (k - 1) * (q & mask)
    if m & 1:
        lhs = -lhs
    return (lhs - (core << a + 2)) & mask == 0


class CandidatePair(NamedTuple):
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
    candidates.sort(key=itemgetter(0, 1))  # (k, n)
    if of > 1:
        ranges["shard"] = {"piece": piece, "of": of}
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

    With X = m(k+1) - k, n - k = X + r, so n is in the window iff
    l(k) <= 10(X + r) <= l(k) + 23 (:func:`lucasdisc.bounds._ell`).  Some r
    in {1, 2} qualifies iff d(k) = m(k+1) - w(k) lies in (-2, 1.4), and in
    integers d < 1.4 reads 10X - 13 <= l(k) and d <= -2 reads
    10X + 21 <= l(k).  d(k) is strictly concave in k.  Where it rises,
    m - 1 >= log2(k) + (k-2)/(k ln 2), so d(k) >= 2 log2(k) + (k-2)/ln 2
    + m + 1/10 > 1.4 and no window is reached.  Along the k of ``ks`` both
    tests therefore switch from false to true once each, and bisection
    finds the run of k with d in (-2, 1.4).
    """

    def x(k: int) -> int:
        return m * (k + 1) - k

    near = ks[
        bisect_left(ks, True, key=lambda k: 10 * x(k) - 13 <= _ell(k)) :
        bisect_left(ks, True, key=lambda k: 10 * x(k) + 21 <= _ell(k))
    ]
    pairs = []
    for k in near:
        ell = _ell(k)
        pairs += [(k, m * (k + 1) + r, m, r) for r in (1, 2) if ell <= 10 * (x(k) + r) <= ell + 23]
    return pairs


def campaign_small(
    k_max: int = 200,
    n_max: int = 2529,
    shard: tuple[int, int] | None = None,
) -> CampaignReport:
    """Exhaustive equality scan L(k, n) == |disc(k)| for 2 <= k <= k_max.

    For each k, L(0) and L(1) are compared to the exact discriminant
    magnitude, then the Lucas terms are walked from n = 2 upward in a
    list holding L(2-k) .. L(n-1) and the sum of its last k entries; the
    walk stops at the first term >= |disc| (terms are strictly
    increasing for n >= 2), which is the only one that can equal it.  A
    walk that passes n_max first raises ``ValueError``: it would leave
    the rest of that k unchecked.
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
            terms = [0] * (k - 2) + [2, 1]  # L(2-k) .. L(1); L(n) at index n + k - 2
            equal = [n for n in (0, 1) if terms[n + k - 2] == delta]
            total = 3  # the sum of the last k terms, L(2)
            for n in range(2, n_max + 1):
                value = total
                total += value - terms[n - 2]
                terms.append(value)
                if value >= delta:
                    break
            else:
                raise ValueError("the walk at k=%d passes n_max=%d below |disc|" % (k, n_max))
            if value == delta:
                equal.append(n)
            terms_examined += n + 1
            for n in equal:
                m, r = divmod(n, k + 1)
                hits.append(
                    CandidatePair(k, n, r, m, None, "equality_walk", "survivor", frozenset({"exact_equality"}))
                )
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
    whose admissible window holds n = m(k+1) + r, each decided by the
    integer l(k) (:func:`_window_pairs`).
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
            # confine m.
            for m in range(_m_envelope(ks[0])[0], _m_envelope(ks[-1])[1] + 1):
                window_pairs += _window_pairs(ks, m)

        candidates: list[CandidatePair] = []
        survivors = 0
        for k, n, m, r in window_pairs:
            # L == +|disc| is (k+1)^(k+1) == -alpha2, L == -|disc| is +alpha2.
            sign_minus, sign_plus = disc_match(k, m, r, l_quantity(m, r), test_modulus_bits)
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


# A case3 match's stage flags, by (m in the band 9..55, congruence survivor).
_CASE3_FLAGS = {
    (False, False): frozenset({"valuation_match"}),
    (True, False): frozenset({"valuation_match", "m_band_9_55"}),
    (False, True): frozenset({"valuation_match", "congruence_match"}),
    (True, True): frozenset({"valuation_match", "m_band_9_55", "congruence_match"}),
}


def campaign_case3(
    modulus_extra_bits: int = 150,
    shard: tuple[int, int] | None = None,
) -> CampaignReport:
    """Two-filter scan over (a, m, k) triples for r >= 3 and odd k.

    A solution with r >= 3 forces nu2(L(n)) == r - 2 + nu2(B(m, r)) to
    equal the discriminant valuation k - 1, i.e. a := nu2(B) == k - r + 1.
    The triples are a - 1 in [0, 233], m in the widened admissible band,
    and odd k strictly inside the power-of-two localization window for
    m.  Filter 1 keeps triples with nu2(B(m, r)) == a.  Each (m, r)
    fixes a through the closed form of
    :func:`lucasdisc.twoadic.l_quantity_nu2`, written out in the loop
    over r, hence the only k = r + a - 1 it can match, so the scan goes
    through (m, r).  The triples are counted in closed form: every
    a - 1 <= k_start - 3 contributes the same number of odd k, and only
    the few larger a - 1 at m = 8 and 9 are summed one by one.  Filter 2
    (:func:`disc_match`, the + sign) compares odd parts:

        (-1)^m (k-1)^2 B == 2^(a+2) (k^k - ((k+1)/2)^(k+1))
                                     (mod 2^min(a + extra, k))

    The clamp at 2^k keeps the modulus no stronger than the underlying
    congruence supports; it is inert for filter-1 survivors at the
    default parameters.  Past the factor 2^(k+1), the odd-k core
    k^k - ((k+1)/2)^(k+1) is needed modulo 2^min(extra - 2, r - 3).  When
    extra > 24 and r >= 25, a mismatch at a + 24 bits (a 22-bit core,
    :func:`_case3_low_match`) is one at a + extra bits, so only the
    matches that pass take the full width.  The core is a function of k
    mod 2^w for w >= 3 and odd k >= w - 1: k^k reduces its base mod 2^w
    and its exponent mod 2^(w-2); k -> k + 2^w moves h = (k+1)/2 by
    2^(w-1), and since the reduced exponent of h is even,
    (h + 2^(w-1))^e == h^e (mod 2^w); and the second power vanishes for
    even h throughout the class, as k + 1 >= w.  So each scan computes
    one 22-bit core per class of k mod 2^22 it meets.  Each match's
    exact B = C(m+r, m) weight / den reuses filter 1's weight and den,
    and the binomial is carried along the same loop: one ``math.comb``
    per m, then C(m+r', m) = C(m+r, m) perm(m+r', j) / perm(r', j) with
    j = r' - r from one match to the next.  Both divisions must be
    exact, and nu2(B) == a is checked on every match.
    """
    if modulus_extra_bits < 2:
        raise ValueError("need modulus_extra_bits >= 2, got %d" % (modulus_extra_bits,))
    m_lo, m_hi = m_range(K_CAP)
    extra = modulus_extra_bits
    prefilter = extra > _CASE3_LOW_BITS

    def scan(ms: range):
        triples = 0
        candidates: list[CandidatePair] = []
        cores: dict[int, int] = {}  # k mod 2^22 -> _odd_disc_core(k, 22)
        survivors = 0
        band_candidates = 0
        band_survivors = 0
        for m in ms:
            lo, hi = localize_k_by_power2(m)
            k_start = lo + 1 + (lo & 1)  # smallest odd integer > lo
            if k_start >= hi:  # no odd k left (m = 57 clips away at K_CAP)
                continue
            # Odd k in [max(k_start, a + 2), hi) for each a; r = k - a + 1 >= 3.
            # There are x // 2 odd integers below x.  Each a - 1 <= k_start - 3
            # starts at k_start; the rest (at m = 8 and 9) start at a + 2.
            unclipped = min(A_MINUS1_MAX + 1, k_start - 2)
            triples += unclipped * (hi // 2 - k_start // 2) + sum(
                max(0, hi // 2 - (a_minus1 + 3) // 2) for a_minus1 in range(unclipped, A_MINUS1_MAX + 1)
            )
            in_band = 9 <= m <= 55
            m_bits = m.bit_count()
            last = 0  # the previous match's r, whose binomial C(m+r, m) is carried
            for r in range(max(3, k_start - A_MINUS1_MAX), hi):
                # Filter 1: a = nu2(B(m, r)) in the closed form of l_quantity_nu2,
                # with its weight 8N(N-1) - 6r(N-1) + r(r-1) regrouped.
                N = m + r
                den = N * (N - 1)
                weight = 8 * den - r * (6 * N - 5 - r)
                a = m_bits + r.bit_count() - N.bit_count()
                a += (weight & -weight).bit_length() - (den & -den).bit_length()
                k = r + a - 1
                if not (k & 1 and lo < k < hi and 1 <= a <= A_MINUS1_MAX + 1):
                    continue
                # B = C(m+r, m) weight / den, the binomial stepped from the last
                # match's: C(m+r, m) = C(m+last, m) perm(m+r, r-last) / perm(r, r-last).
                if last:
                    binom, rem = divmod(binom * math.perm(N, r - last), math.perm(r, r - last))
                    if rem:
                        raise AssertionError("inexact binomial step for m=%d r=%d" % (m, r))
                else:
                    binom = math.comb(N, m)
                last = r
                q, rem = divmod(binom * weight, den)
                if rem:
                    raise AssertionError("inexact bracket for m=%d r=%d" % (m, r))
                if (q & -q).bit_length() - 1 != a:
                    raise AssertionError("closed-form nu2(B) wrong at m=%d r=%d" % (m, r))
                passed = True
                if prefilter and r > _CASE3_LOW_BITS:  # the modulus 2^(a + 24) is below 2^k
                    core = cores.get(k & _CASE3_LOW_MASK)
                    if core is None:
                        core = cores[k & _CASE3_LOW_MASK] = _odd_disc_core(k, _CASE3_LOW_BITS - 2)
                    passed = _case3_low_match(k, m, a, q, core)
                survived = passed and disc_match(k, m, r, q, a + extra)[0]
                candidates.append(
                    CandidatePair(
                        k,
                        m * (k + 1) + r,
                        r,
                        m,
                        a,
                        "valuation",
                        "survivor" if survived else "eliminated",
                        _CASE3_FLAGS[in_band, survived],
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

    The pieces [0, of) of one layout partition the campaign's work:
    merging the reports of that one complete layout reproduces the
    unsharded report byte-for-byte (timing excluded).
    """
    if campaign not in _CAMPAIGNS:
        raise ValueError("unknown campaign %r; expected one of %s" % (campaign, CAMPAIGN_NAMES))
    return _CAMPAIGNS[campaign](shard=(piece, of), **params)


def search(campaign: str, workers: int = 1, **params) -> CampaignReport:
    """Run ``campaign`` as at most ``workers`` shards and merge them.

    Piece 0 runs in this process; each other piece runs in a process of its
    own, at most ``os.cpu_count()`` in all.  Every started process is
    terminated and joined before this returns or raises.
    """
    if campaign not in _CAMPAIGNS:
        raise ValueError("unknown campaign %r; expected one of %s" % (campaign, CAMPAIGN_NAMES))
    if workers < 1:
        raise ValueError("need workers >= 1, got %d" % (workers,))
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        return _CAMPAIGNS[campaign](**params)
    started = []
    try:
        for piece in range(1, workers):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_piece, args=(sender, campaign, piece, workers, params))
            proc.start()
            sender.close()  # so a worker that dies leaves recv() an EOFError
            started.append((piece, proc, receiver))
        reports = [shard(campaign, 0, workers, **params)]
        for piece, _, receiver in started:
            try:
                result = receiver.recv()
            except EOFError:
                raise RuntimeError("piece %d of %d exited without a report" % (piece, workers)) from None
            if isinstance(result, Exception):
                raise result
            result.candidates = list(map(CandidatePair._make, result.candidates))
            reports.append(result)
    finally:
        for _, proc, receiver in started:
            proc.terminate()
            proc.join()
            receiver.close()
    return merge_reports(reports)


def _piece(sender, campaign: str, piece: int, of: int, params: dict) -> None:
    """A worker process of :func:`search`: send one shard's report, or the exception it raised.

    The rows go as plain tuples, which pickle several times faster than
    namedtuples; :func:`search` rebuilds them.
    """
    try:
        report = shard(campaign, piece, of, **params)
        report.candidates = list(map(tuple, report.candidates))
    except Exception as exc:
        report = exc
    sender.send(report)


def merge_reports(reports: list[CampaignReport]) -> CampaignReport:
    """Merge the shard reports of one complete layout into a combined report.

    The inputs must be pieces 0 .. N-1 of one N-way layout, each exactly
    once, with N = ``len(reports)``; an unsharded report counts as piece 0
    of 1.  They must come from the same campaign with identical
    parameters.  The merge is byte-identical to an unsharded run (timing
    aside; elapsed is summed).
    """
    reports = list(reports)
    if not reports:
        raise ValueError("nothing to merge")
    first = reports[0]
    base = {key: val for key, val in first.ranges.items() if key != "shard"}
    names = [name for name, _ in first.stage_counts]
    counts = [0] * len(names)
    candidates: list[CandidatePair] = []
    extras: dict = {}
    for rep in reports:
        if rep.campaign != first.campaign:
            raise ValueError("campaign mismatch: %r vs %r" % (rep.campaign, first.campaign))
        if {k: v for k, v in rep.ranges.items() if k != "shard"} != base:
            raise ValueError("parameter mismatch between shards")
        if [name for name, _ in rep.stage_counts] != names:
            raise ValueError("stage mismatch between shards")
        if rep.notes != first.notes:
            raise ValueError("notes mismatch between shards")
        for i, (_, count) in enumerate(rep.stage_counts):
            counts[i] += count
        candidates.extend(rep.candidates)
        for key, val in rep.extras.items():
            extras[key] = extras.get(key, 0) + val

    shards = [rep.ranges.get("shard", {"piece": 0, "of": 1}) for rep in reports]
    layout = sorted((info["piece"], info["of"]) for info in shards)
    if layout != [(piece, len(reports)) for piece in range(len(reports))]:
        raise ValueError("(piece, of) %s is not one complete layout of %d shards" % (layout, len(reports)))
    candidates.sort(key=itemgetter(0, 1))
    return CampaignReport(
        campaign=first.campaign,
        ranges=base,
        stage_counts=list(zip(names, counts)),
        candidates=candidates,
        elapsed=sum(rep.elapsed for rep in reports),
        notes=list(first.notes),
        extras=extras,
    )


# The encoder json.dumps(obj, sort_keys=True, separators=(",", ":")) would
# build per row, built once: the bytes are the same.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _row_format(campaign: str, has_a: bool, flags: frozenset[str], stage: str, verdict: str) -> str:
    """The %-format of a candidate row: its keys in sorted order, the ints a, k, m, n, r as %d.

    Every other value is encoded once here, by ``_JSON``; ``a`` and
    ``flags`` are left out when None and empty, as ``json.dumps`` of the
    row without them would.
    """

    def quoted(value) -> str:
        return _JSON.encode(value).replace("%", "%%")

    fields = ['"a":%d'] if has_a else []
    fields.append('"campaign":' + quoted(campaign))
    if flags:
        fields.append('"flags":' + quoted(sorted(flags)))
    fields += ['"k":%d', '"m":%d', '"n":%d', '"r":%d']
    fields += ['"stage":' + quoted(stage), '"verdict":' + quoted(verdict)]
    return "{" + ",".join(fields) + "}"


def report_to_jsonl(report: CampaignReport, include_timing: bool = True) -> str:
    """Serialize a report as JSON lines: one row per candidate, then a summary.

    Keys are sorted and separators fixed, so identical reports serialize
    to identical bytes; pass ``include_timing=False`` to drop the only
    nondeterministic field.
    """
    formats: dict = {}  # (has a, flags, stage, verdict) -> _row_format
    lines = []
    for c in report.candidates:
        key = (c.a is not None, c.stage_flags, c.stage, c.verdict)
        fmt = formats.get(key)
        if fmt is None:
            fmt = formats[key] = _row_format(report.campaign, *key)
        lines.append(fmt % ((c.a, c.k, c.m, c.n, c.r) if key[0] else (c.k, c.m, c.n, c.r)))
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
    lines.append(_JSON.encode(summary))
    return "\n".join(lines) + "\n"
