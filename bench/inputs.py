"""Seeded inputs for the certify and query workloads, and the query oracles.

Nothing here imports lucasdisc: the plans are plain lists of
``[kind, *args]`` that the child process executes, and every query
answer is checked against an independent computation below.
"""

from __future__ import annotations

import functools
import math
import random
from math import isqrt

import mpmath

# The ten lemma suites of lucasdisc.lemmas, run at this scale.
LEMMA_SUITES = (
    "recurrence",
    "doubling_shift",
    "closed_form",
    "parity_period",
    "congruence_table",
    "valuation_law",
    "quantity_factorization",
    "root_enclosure",
    "window_brackets",
    "small_k_cross_validation",
)
LEMMA_SCALE = 1

GROWTH_NS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)


def certify_plan(seed: int) -> list[list]:
    """Criterion-7 grids, a growth-bounds grid and every lemma suite.

    The seed only permutes k inside each grid, so the work is the same
    for every seed and n values of one k still share a warm root cache.
    """
    rng = random.Random(seed)
    ops: list[list] = []

    def shuffled(ks):
        ks = list(ks)
        rng.shuffle(ks)
        return ks

    for k in shuffled(range(2, 21)):
        ops.extend(["binet_error_check", k, n] for n in range(2 - k, 101))
    for k in shuffled(range(12, 31)):
        limit = isqrt((1 << k) - 1)
        ladder = {1, 2, 3, 5, 8, 16, limit // 16, limit // 4, limit // 2, limit} - {0}
        ops.extend(["binet_vs_power2_check", k, n] for n in sorted(ladder))
    for k in shuffled(range(2, 21)):
        ops.extend(["growth_bounds_check", k, n] for n in GROWTH_NS)
    ops.extend(["suite", name, LEMMA_SCALE] for name in shuffled(LEMMA_SUITES))
    return ops


def _log_strata(rng: random.Random, lo: float, hi: float, count: int) -> list[int]:
    """One log-uniform integer from each of ``count`` equal slices of [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    return [
        int(math.exp(rng.uniform(a + (b - a) * i / count, a + (b - a) * (i + 1) / count)))
        for i in range(count)
    ]


def _distinct(values: list[int], used: set[int]) -> list[int]:
    out = []
    for v in values:
        while v in used:
            v += 1
        used.add(v)
        out.append(v)
    return out


# (bits, k range, count) strata for dominant_root; every k is distinct.  The
# bisection takes bits - k steps, so narrow k ranges keep each stratum's cost
# nearly the same for every seed.
ROOT_STRATA = ((128, (2, 120), 12), (256, (200, 240), 8), (512, (440, 460), 4), (1024, (1000, 1003), 2))


def query_plan(seed: int) -> list[list]:
    """A seeded, stratified list of distinct single-answer queries.

    Every kind has a fixed count and its sizes come one per stratum, so
    the total work barely depends on the seed while the inputs do.
    """
    rng = random.Random(seed)
    ops: list[list] = []
    for i, n in enumerate(_log_strata(rng, 10, 50_000, 100)):
        ops.append(["term", 2 + 7 * i % 59, n])  # k cycles over 2..60; the seed moves n
    for k in _distinct(_log_strata(rng, 2, 20_000, 40), set()):
        ops.append(["discriminant", k])
    used: set[int] = set()
    for bits, (k_lo, k_hi), count in ROOT_STRATA:
        ks = sorted(rng.sample(range(k_lo, k_hi + 1), count))
        ops.extend(["dominant_root", k, bits] for k in _distinct(ks, used))
    for k in _distinct(_log_strata(rng, 201, 7 * 10**7, 20), set()):
        ops.append(["bound_profile", k])
    for k in _distinct(_log_strata(rng, 201, 7 * 10**7, 20), set()):
        ops.append(["n_window", k])
    for e in _log_strata(rng, 1, 50_000, 40):
        odd = rng.getrandbits(rng.randint(1, 4096)) | 1
        ops.append(["nu2", "%x" % odd, e - 1])
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- oracles

_PRIMES = ((1 << 61) - 1, (1 << 31) - 1)


def _lucas_mod(k: int, n: int, p: int) -> int:
    """L(n) mod p by the doubling identity L(n) = 2 L(n-1) - L(n-k-1)."""
    vals = [0] * (k - 2) + [2, 1, 3]  # indices 2-k .. 2
    for _ in range(3, n + 1):
        vals.append((2 * vals[-1] - vals[-(k + 1)]) % p)
    return vals[n - (2 - k)] % p


def _binet_log2(k: int, n: int) -> float:
    """log2 of the dominant term f(alpha) (2 alpha - 1) alpha^(n-1), in floats."""
    x = 2.0
    for _ in range(100):  # Newton on x^k (x - 2) + 1, from the right of the root
        step = (x**k * (x - 2) + 1) / (x ** (k - 1) * ((k + 1) * x - 2 * k))
        x -= step
        if abs(step) < 1e-16:
            break
    c = (x - 1) / (2 + (k + 1) * (x - 2)) * (2 * x - 1)
    return math.log2(c) + (n - 1) * math.log2(x)


def _horner_sign(k: int, num: int, den: int) -> int:
    """Sign of x^k - x^(k-1) - ... - 1 at x = num/den in (0, 2], den a power of two, by Horner.

    Evaluated in floating point with enough bits that the accumulated
    rounding error, at most k 2^(k+3-prec), leaves the sign decided;
    otherwise exactly in integers.
    """
    shift = den.bit_length() - 1
    if den != 1 << shift:
        raise ValueError("denominator is not a power of two")
    prec = k + 2 * num.bit_length() + 64
    with mpmath.workprec(prec):
        x = mpmath.ldexp(num, -shift)
        acc = mpmath.mpf(1)
        for _ in range(k):
            acc = acc * x - 1
        if abs(acc) > mpmath.ldexp(k, k + 4 - prec):
            return 1 if acc > 0 else -1
    acc = 1
    for m in range(1, k + 1):
        acc = acc * num - (1 << (shift * m))
    return (acc > 0) - (acc < 0)


@functools.lru_cache(maxsize=1)
def _bound_caps() -> dict[str, int]:
    """The bound chain's k caps, re-solved by bisection in 200-bit arithmetic."""
    caps = {}
    with mpmath.workprec(200):

        def matveev_gap(k):
            lk = mpmath.log(k)
            return k * mpmath.log(2) / 2 - mpmath.mpf("3.5e11") * lk**2 * mpmath.log(3 * k * lk)

        def bl_gap(k):
            b_prime = (k + mpmath.mpf("6.4")) / (mpmath.mpf("5.4") * mpmath.log(k))
            big_b = max(
                mpmath.log(b_prime) + mpmath.log(mpmath.log(2)) + mpmath.mpf("0.4"),
                10 * mpmath.log(2),
            )
            return (k - 1) - 1123 * big_b**2 * mpmath.log(k) * mpmath.log(k + 1)

        for name, gap, lo, hi in (("matveev", matveev_gap, 10**3, 10**20), ("bl", bl_gap, 202, 10**9)):
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if gap(mid) < 0 else (lo, mid)
            caps[name] = lo
    return caps


def _window_lo(k: int) -> mpmath.mpf:
    with mpmath.workprec(200):
        return k + (k - 2) * mpmath.log(k) / mpmath.log(2) - mpmath.mpf(1) / 10


def _check_window(k: int, lo: float, hi: float) -> list[str]:
    exact = _window_lo(k)
    problems = []
    if abs(lo - exact) > 1e-5:
        problems.append("window start %r vs %s" % (lo, mpmath.nstr(exact, 20)))
    if abs((hi - lo) - 2.4) > 1e-6:
        problems.append("window width %r" % (hi - lo,))
    return problems


def check_query(op: list, answer) -> list[str]:
    """Problems with one query's answer; empty when the oracle agrees."""
    kind = op[0]
    if kind == "term":
        _, k, n = op
        value = int(answer, 16)
        problems = [
            "L(%d) mod %d" % (n, p) for p in _PRIMES if value % p != _lucas_mod(k, n, p)
        ]
        if abs((value.bit_length() - 1) - _binet_log2(k, n)) > 2:
            problems.append("magnitude of L(%d)" % n)
        return problems
    if kind == "discriminant":
        (_, k) = op
        value = int(answer, 16)
        problems = []
        for p in _PRIMES:
            lhs = value * (k - 1) ** 2 % p
            rhs = (pow(2, k + 1, p) * pow(k, k, p) - pow(k + 1, k + 1, p)) % p
            if lhs != rhs:
                problems.append("|disc| mod %d" % p)
        if value <= 0 or (value & -value).bit_length() - 1 != (0 if k % 2 == 0 else k - 1):
            problems.append("nu2 of |disc| breaks the parity split")
        if {2: 5, 3: 44, 4: 563}.get(k, value) != value:
            problems.append("spot value")
        return problems
    if kind == "dominant_root":
        _, k, bits = op
        lo_num, lo_den, hi_num, hi_den, got_bits = (int(x, 16) for x in answer)
        problems = []
        if got_bits != bits:
            problems.append("precision %d, asked %d" % (got_bits, bits))
        # width <= 2^-bits and 2 (1 - 2^-k) <= lo < hi <= 2, cross-multiplied
        if (hi_num * lo_den - lo_num * hi_den) << bits > lo_den * hi_den:
            problems.append("enclosure wider than 2^-%d" % bits)
        if (lo_num << k) < 2 * ((1 << k) - 1) * lo_den or hi_num > 2 * hi_den:
            problems.append("enclosure outside [2(1 - 2^-k), 2]")
        if not (_horner_sign(k, lo_num, lo_den) < 0 < _horner_sign(k, hi_num, hi_den)):
            problems.append("no sign change across the enclosure")
        return problems
    if kind == "n_window":
        (_, k) = op
        return _check_window(k, *answer)
    if kind == "bound_profile":
        (_, k) = op
        problems = _check_window(k, answer["n_lo"], answer["n_hi"])
        exact = _window_lo(k)
        with mpmath.workprec(200):
            m_lo = int(mpmath.ceil((exact - k) / (k + 1)))
            m_hi = int(mpmath.floor((exact + mpmath.mpf(24) / 10) / (k + 1)))
            a_max = int(mpmath.floor(6 * mpmath.log(k) + 2))
        caps = _bound_caps()
        want = {"m_lo": m_lo, "m_hi": m_hi, "a_max": a_max,
                "k_matveev_max": caps["matveev"], "k_bl_max": caps["bl"]}
        problems.extend(
            "%s = %r, expected %r" % (key, answer[key], value)
            for key, value in want.items()
            if answer[key] != value
        )
        return problems
    if kind == "nu2":
        return [] if answer == op[2] else ["nu2 = %r, expected %d" % (answer, op[2])]
    return ["unknown query kind %r" % (kind,)]
