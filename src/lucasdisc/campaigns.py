"""Exhaustive search campaigns ruling out Lucas/discriminant coincidences.

Each campaign scans a slice of the parameter space for solutions of
L(k, n) == |disc(k)|, where L(k, .) is the k-generalized Lucas sequence
and disc(k) the discriminant of x^k - x^(k-1) - ... - x - 1.  Writing
n = m*(k+1) + r, the residue r decides which congruence for L(k, n)
modulo a power of two applies, and the campaigns split along it:

* ``campaign_small``   -- every n for 2 <= k <= 200: L(0), L(1) and the
  first term >= |disc|, reached by jumping past every n >= 2 with
  3 * 2^(n-2) < |disc|;
* ``campaign_case0``   -- r == 0 for every k >= 4, one 2-adic valuation
  clash checked once;
* ``campaign_case12``  -- r in {1, 2}, even k, window pairs found for
  each m by one bisection on the concave defect m(k+1) - w(k) and a
  step or two forward, then a modular test on the (k, n) pairs;
* ``campaign_case3``   -- r >= 3, odd k localized near powers of two,
  a two-filter scan that reads k off the closed-form nu2(B(m, r)).

The admissible window (w(k), w(k) + 2.4) of n and the m band it
implies at each k live in :mod:`lucasdisc.bounds`; the window is
decided by the integer l(k) = floor(10(k-2) log2 k).

Determinism policy: every count, candidate, and survivor reported here
is decided by exact integer arithmetic; no float takes part.  The shard
reports of one complete layout merge into the same bytes as an unsharded
run (timing aside), so :func:`search`, the one call that runs a
campaign, may split it into any number of shards.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache
from operator import itemgetter
from typing import Callable, NamedTuple

from .sequences import LUCAS, SeqParams, _bracket_ratio, term
from .twoadic import _odd_disc_core, disc_match, disc_nu2, l_quantity
from .bounds import (
    K_CAP,
    _ell,
    _m_envelope,
    _window,
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
    """One (k, n) pair that a campaign reports, with n = m(k+1) + r.

    ``verdict`` is ``survivor`` or ``eliminated``.  ``flags`` holds only
    what the verdict, m and r do not state: on case12 rows, ``plus_disc``
    and ``minus_disc`` name the sign tests L(n) == +|disc| and
    L(n) == -|disc| that passed.  On case3 rows nu2(B(m, r)) is
    k - r + 1, so no field holds it.
    """

    k: int
    n: int
    r: int
    m: int
    verdict: str
    flags: frozenset[str] = frozenset()


@dataclass
class CampaignReport:
    campaign: str
    ranges: dict
    stage_counts: list[tuple[str, int]]
    candidates: list[CandidatePair]
    elapsed: float
    notes: list[str] = field(default_factory=list)

    @property
    def survivors(self) -> list[CandidatePair]:
        """Candidates whose verdict is ``survivor``, in (k, n) order."""
        return [c for c in self.candidates if c.verdict == "survivor"]


def _run(
    name: str,
    shard: tuple[int, int] | None,
    units: range,
    scan: Callable[[range], tuple[list[CandidatePair], list[tuple[str, int]]]],
    ranges: dict,
    notes: list[str],
) -> CampaignReport:
    """Scan this shard's units and package the result as a report.

    Shard (piece, of) takes the block ``units[ceil(piece n / of) : ceil((piece + 1) n / of)]``,
    n = ``len(units)``, so the pieces of one layout partition the units into
    consecutive runs, and piece 0 takes the first unit.  ``scan`` returns the
    candidates and the stage counts of its slice; candidates are sorted by
    (k, n) here, which makes merged shards equal an unsharded run.
    """
    piece, of = (0, 1) if shard is None else shard
    if of < 1 or not 0 <= piece < of:
        raise ValueError("bad shard (%r, %r): need 0 <= piece < of" % (piece, of))
    t0 = time.perf_counter()
    start, stop = (-(-i * len(units) // of) for i in (piece, piece + 1))
    candidates, stage_counts = scan(units[start:stop])
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
    )


def _window_pairs(ks: range) -> list[tuple[int, int, int, int]]:
    """The (k, n, m, r) with k in ``ks``, r in {1, 2}, n = m(k+1) + r in k's window, by m.

    With X = m(k+1) - k, n - k = X + r, and :func:`lucasdisc.bounds.window_integers`
    holds n iff l(k) <= 10(X + r) <= l(k) + 23 (l = ``bounds._ell``).  Some r
    in {1, 2} qualifies iff d(k) = m(k+1) - w(k) lies in (-2, 1.4), and in
    integers d < 1.4 reads 10X - 13 <= l(k) and d <= -2 reads
    10X + 21 <= l(k).  d(k) is strictly concave in k.  Where it rises,
    m - 1 >= log2(k) + (k-2)/(k ln 2), so d(k) >= 2 log2(k) + (k-2)/ln 2
    + m + 1/10 > 1.4 and no window is reached.  Along the k of ``ks`` both
    tests therefore switch from false to true once each, the second no
    earlier than the first.  For each m, bisection finds the first k with
    d < 1.4, and stepping forward to the first k with d <= -2 ends the
    run.  Near the window d falls by about 1/ln 2 per unit of k, so the
    run holds at most two even k and the step is short.  The m band of
    each k grows with k, so the first and the last k confine m.  Every
    m's bisection probes the same k first, and the step re-reads the k
    where it stopped, so l(k) is kept for the call: one l per distinct k.
    """
    ell = cache(_ell)
    pairs = []
    for m in range(_m_envelope(ks[0], ell(ks[0]))[0], _m_envelope(ks[-1], ell(ks[-1]))[1] + 1):

        def x(k: int) -> int:
            return m * (k + 1) - k

        near = []
        for k in ks[bisect_left(ks, True, key=lambda k: 10 * x(k) - 13 <= ell(k)) :]:
            if 10 * x(k) + 21 <= ell(k):
                break
            near.append(k)
        pairs += [(k, n, m, n - m * (k + 1)) for k in near for n in _window(k, ell(k)) if n - m * (k + 1) in (1, 2)]
    return pairs


def campaign_small(k_max: int = 200, shard: tuple[int, int] | None = None) -> CampaignReport:
    """Equality scan L(k, n) == |disc(k)| for every n and 2 <= k <= k_max.

    For each k, L(0) and L(1) are compared to the exact discriminant
    magnitude.  Terms are strictly increasing from n = 2 on, so the
    first term >= |disc| is the only other one that can equal it.  For
    n >= 3, L(n) = 2 L(n-1) - L(n-k-1) <= 2 L(n-1), no term being
    negative, and L(2) = 3, so L(n) <= 3 * 2^(n-2): every n from 2 below
    n0 = 2 + bit_length(ceil(|disc|/3) - 1) has L(n) < |disc|.  The scan
    therefore takes ``term`` at n0, n0 + 1, ... up to the first term
    >= |disc|, one term for every 4 <= k <= 300 and two at k = 2 and 3.
    """
    if k_max < 2:
        raise ValueError("need k_max >= 2, got %d" % (k_max,))

    def scan(ks: range):
        terms_examined = 0
        hits: list[CandidatePair] = []
        for k in ks:
            delta = discriminant(k)
            params = SeqParams(k, LUCAS)
            equal = [n for n in (0, 1) if term(params, n) == delta]
            n0 = 2 + (-(-delta // 3) - 1).bit_length()  # L(n) < |disc| for 2 <= n < n0
            n = n0
            while (value := term(params, n)) < delta:
                n += 1
            if value == delta:
                equal.append(n)
            terms_examined += 3 + n - n0  # L(0), L(1) and L(n0) .. L(n)
            for n in equal:
                m, r = divmod(n, k + 1)
                hits.append(CandidatePair(k, n, r, m, "survivor"))
        return hits, [("terms_examined", terms_examined), ("equality_hits", len(hits))]

    return _run(
        "small",
        shard,
        range(2, k_max + 1),
        scan,
        {"k_lo": 2, "k_hi": k_max, "n_lo": 0},
        [
            "L(0), L(1) and the terms from n0 = 2 + bit_length(ceil(|disc|/3) - 1)"
            " up to the first term >= |disc| are compared to |disc| exactly;"
            " L(n) <= 3 * 2^(n-2) < |disc| for 2 <= n < n0, and terms increase"
            " for n >= 2, so no other n can equal it",
        ],
    )


def campaign_case0(shard: tuple[int, int] | None = None) -> CampaignReport:
    """Rule out n divisible by k+1 for every k >= 4 by one valuation clash.

    At r == 0, L(n) == (-1)^m B(m, 0) / 4 (mod 2^(k-2)) (:mod:`lucasdisc.twoadic`),
    and B(m, 0) = C(m, m) weight / den = 8 for every m: with (weight, den)
    = ``_bracket_ratio(LUCAS, N, N)``, N = m, weight == 8 den below N = 2,
    and from N = 2 on weight - 8 den has degree <= 2 in N, so its zeros
    at N = 2, 3, 4 make it zero.  So shift = 1 < E = k - 2 pins
    nu2(L(n)) == 1 from k = 4 on, as E grows with k.  nu2(|disc|)
    (``disc_nu2``) is 0 for even k, checked at k = 4, and k - 1 for odd
    k, checked at k = 5, where it is 4 and grows with k: never 1.  The
    statement is one unit of work, the first block of any layout (piece 0,
    :func:`_run`); a failed part gives one survivor at k = 4, n = 0.  k in
    {2, 3} falls below the useful modulus and is covered by the small campaign.
    """
    k_lo = 4

    def scan(pieces: range):
        gaps: list[CandidatePair] = []
        if pieces:
            eight = all(weight == 8 * den for weight, den in (_bracket_ratio(LUCAS, N, N) for N in range(5)))
            if not (eight and 1 < k_lo - 2 and disc_nu2(k_lo) == 0 and disc_nu2(k_lo + 1) == k_lo):
                gaps.append(CandidatePair(k_lo, 0, 0, 0, "survivor"))
        return gaps, [("statements_checked", len(pieces)), ("clashes_missing", len(gaps))]

    return _run(
        "case0",
        shard,
        range(1),
        scan,
        {"k_lo": k_lo, "residue": 0},
        [
            "r == 0 gives B(m, 0) == 8, so L(n) == +/-2 modulo 2^(k-2) and nu2(L(n)) == 1 for k >= 4",
            "|disc| has nu2 == 0 for even k and k - 1 >= 4 for odd k, never 1, so equality is impossible",
            "k in {2, 3} sits below the useful modulus and is covered by the small campaign",
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
    concave in k, so one bisection over this shard's even k and a step
    or two forward find the few k whose admissible window holds
    n = m(k+1) + r, each decided by the integer l(k) (:func:`_window_pairs`).
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
        window_pairs = _window_pairs(ks) if ks else []
        candidates: list[CandidatePair] = []
        survivors = 0
        for k, n, m, r in window_pairs:
            # L == +|disc| is (k+1)^(k+1) == -alpha2, L == -|disc| is +alpha2.
            plus, minus = disc_match(k, m, r, l_quantity(m, r), test_modulus_bits)
            survived = plus or minus
            verdict = "survivor" if survived else "eliminated"
            flags = frozenset(name for name, passed in (("plus_disc", plus), ("minus_disc", minus)) if passed)
            candidates.append(CandidatePair(k, n, r, m, verdict, flags))
            survivors += survived
        stage_counts = [
            ("k_scanned", len(ks)),
            ("window_residue_pairs", len(candidates)),
            ("modulus_survivors", survivors),
        ]
        return candidates, stage_counts

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

    A solution with r >= 3 forces nu2(L(n)) == r - 2 + nu2(B(m, r)) to
    equal the discriminant valuation k - 1, i.e. a := nu2(B) == k - r + 1.
    The triples are a - 1 in [0, 233], m in the widened admissible band,
    and odd k strictly inside the power-of-two localization window for
    m.  Filter 1 keeps triples with nu2(B(m, r)) == a.  Each (m, r)
    fixes a, hence the only k = r + a - 1 it can match, so the scan goes
    through (m, r).  With N = m + r, the bracket of
    :func:`lucasdisc.twoadic.l_quantity` is C(N, m) w / (N(N-1)), and
    C(N, m) / (N(N-1)) = C(r+m-2, m-2) / (m(m-1)), so

        B(m, r) = C(r+m-2, m-2) w / (m(m-1)),
        w = 3r^2 + (10m-3)r + 8m(m-1),

    w being ``sequences._bracket_ratio``'s weight written in r; the band
    starts at m = 8, so m(m-1) > 0.  Kummer's theorem on C(r+m-2, m-2)
    gives a = s(m-2) + s(r) - s(r+m-2) + nu2(w) - nu2(m(m-1)), s the
    binary digit sum: the closed form of
    :func:`lucasdisc.twoadic.l_quantity_nu2` regrouped, with s(m-2) and
    nu2(m(m-1)) taken once per m.  The triples are counted in closed
    form: every a - 1 <= k_start - 3 contributes the same number of odd
    k, and only the few larger a - 1 at m = 8 and 9 are summed one by
    one.  Filter 2
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
    exact B divides C(r+m-2, m-2) w by m(m-1), and the binomial is
    carried along the same loop: one ``math.comb`` per m, then
    C(r'+m-2, m-2) = C(r+m-2, m-2) perm(r'+m-2, j) / perm(r', j) with
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
        for m in ms:
            lo, hi = localize_k_by_power2(m)
            k_start = lo + 1 + (lo & 1)  # smallest odd integer > lo
            if k_start >= hi:  # no odd k left (m = 56 and 57 clip away at K_CAP)
                continue
            # Odd k in [max(k_start, a + 2), hi) for each a; r = k - a + 1 >= 3.
            # There are x // 2 odd integers below x.  Each a - 1 <= k_start - 3
            # starts at k_start; the rest (at m = 8 and 9) start at a + 2.
            unclipped = min(A_MINUS1_MAX + 1, k_start - 2)
            triples += unclipped * (hi // 2 - k_start // 2) + sum(
                max(0, hi // 2 - (a_minus1 + 3) // 2) for a_minus1 in range(unclipped, A_MINUS1_MAX + 1)
            )
            m2, mm1 = m - 2, m * (m - 1)
            w_lin, w_const = 10 * m - 3, 8 * mm1
            # s(m-2) - nu2(m(m-1)), less the 1 that nu2(w) = (w & -w).bit_length() - 1 drops.
            a_m = m2.bit_count() - (mm1 & -mm1).bit_length()
            last = 0  # the previous match's r, whose binomial C(r+m-2, m-2) is carried
            for r in range(max(3, k_start - A_MINUS1_MAX), hi):
                # Filter 1: a = nu2(B(m, r)), Kummer on C(r+m-2, m-2) plus nu2(w) - nu2(m(m-1)).
                top = r + m2
                w = (3 * r + w_lin) * r + w_const
                a = a_m + r.bit_count() - top.bit_count() + (w & -w).bit_length()
                k = r + a - 1
                if not (k & 1 and lo < k < hi and 1 <= a <= A_MINUS1_MAX + 1):
                    continue
                # Exact B, the binomial stepped from the last match's:
                # C(r+m-2, m-2) = C(last+m-2, m-2) perm(r+m-2, r-last) / perm(r, r-last).
                if last:
                    binom, rem = divmod(binom * math.perm(top, r - last), math.perm(r, r - last))
                    if rem:
                        raise AssertionError("inexact binomial step for m=%d r=%d" % (m, r))
                else:
                    binom = math.comb(top, m2)
                last = r
                q, rem = divmod(binom * w, mm1)
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
                verdict = "survivor" if survived else "eliminated"
                candidates.append(CandidatePair(k, m * (k + 1) + r, r, m, verdict))
                survivors += survived
        stage_counts = [
            ("triples_enumerated", triples),
            ("valuation_matches", len(candidates)),
            ("congruence_survivors", survivors),
        ]
        return candidates, stage_counts

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
    """Run one shard (the piece-th of ``of`` consecutive blocks of its units) of a campaign.

    The pieces [0, of) of one layout partition the campaign's work:
    merging the reports of that one complete layout reproduces the
    unsharded report byte-for-byte (timing excluded).
    """
    if campaign not in _CAMPAIGNS:
        raise ValueError("unknown campaign %r; expected one of %s" % (campaign, CAMPAIGN_NAMES))
    return _CAMPAIGNS[campaign](shard=(piece, of), **params)


def search(campaign: str, workers: int = 1, **params) -> CampaignReport:
    """Run ``campaign`` as ``workers`` shards in this process and merge them into the unsharded bytes."""
    if campaign not in _CAMPAIGNS:
        raise ValueError("unknown campaign %r; expected one of %s" % (campaign, CAMPAIGN_NAMES))
    if workers < 1:
        raise ValueError("need workers >= 1, got %d" % (workers,))
    if workers == 1:
        return _CAMPAIGNS[campaign](**params)
    return merge_reports([shard(campaign, piece, workers, **params) for piece in range(workers)])


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
    )


# The encoder json.dumps(obj, sort_keys=True, separators=(",", ":")) would
# build per row, built once: the bytes are the same.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _row_format(flags: frozenset[str], verdict: str) -> str:
    """The %-format of a candidate row: its keys in sorted order, the ints k, m, n, r as %d.

    ``flags`` and ``verdict`` are encoded once here, by ``_JSON``; empty
    ``flags`` are left out, as ``json.dumps`` of the row without them would.
    """

    def quoted(value) -> str:
        return _JSON.encode(value).replace("%", "%%")

    fields = ['"flags":' + quoted(sorted(flags))] if flags else []
    fields += ['"k":%d', '"m":%d', '"n":%d', '"r":%d', '"verdict":' + quoted(verdict)]
    return "{" + ",".join(fields) + "}"


def report_to_jsonl(report: CampaignReport, include_timing: bool = True) -> str:
    """Serialize a report as JSON lines: one row per candidate, then a summary.

    Keys are sorted and separators fixed, so identical reports serialize
    to identical bytes; pass ``include_timing=False`` to drop the only
    nondeterministic field.
    """
    formats: dict = {}  # (flags, verdict) -> _row_format
    lines = []
    for c in report.candidates:
        key = (c.flags, c.verdict)
        fmt = formats.get(key)
        if fmt is None:
            fmt = formats[key] = _row_format(*key)
        lines.append(fmt % (c.k, c.m, c.n, c.r))
    summary: dict = {
        "campaign": report.campaign,
        "stage": "summary",
        "ranges": report.ranges,
        "stage_counts": [[name, count] for name, count in report.stage_counts],
        "survivors": [[cand.k, cand.n] for cand in report.survivors],
    }
    if report.notes:
        summary["notes"] = report.notes
    if include_timing:
        summary["elapsed"] = round(report.elapsed, 6)
    lines.append(_JSON.encode(summary))
    return "\n".join(lines) + "\n"
