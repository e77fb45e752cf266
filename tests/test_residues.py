"""Residues modulo the prime p = 2^61 - 1: a verdict with no 2-adic step.

L(n) != |disc| as soon as their residues modulo one prime differ.  Both
residues are cheap at any k, so they check the rows that the 2-adic
filters close past the reach of exact values.
"""

import itertools
import math
import random

from lucasdisc.bounds import discriminant, localize_k_by_power2, window_integers
from lucasdisc.sequences import LUCAS, SeqParams, term

P = 2**61 - 1
J_MAX = 1_000  # largest step j the tests reach: n < 3,000 and k >= 2
# INV_FACT[j] = 1 / j! mod P, invertible as j < P.
INV_FACT = list(itertools.accumulate(range(1, J_MAX + 1), lambda inv, j: inv * pow(j, -1, P) % P, initial=1))


def binom_mod(top, j):
    """C(top, j) mod P: the falling factorial times 1/j!, and 0 when top < j."""
    if top < j:
        return 0
    return math.prod(range(top - j + 1, top + 1)) % P * INV_FACT[j] % P


def lucas_mod(k, n):
    """L(k, n) mod P for n >= 2, from the generating-function sum

    4 L(n) = sum_j (-1)^j 2^(n - j(k+1)) [8 C(N, j) - 6 C(N-1, j) + C(N-2, j)],
    N = n - jk, over 0 <= j <= n/(k+1) (the ``sequences`` module docstring).
    """
    if n // (k + 1) > J_MAX:
        raise ValueError("step j past the inverse table at k=%d n=%d" % (k, n))
    total = 0
    for j in range(n // (k + 1) + 1):
        N = n - j * k
        bracket = 8 * binom_mod(N, j) - 6 * binom_mod(N - 1, j) + binom_mod(N - 2, j)
        step = pow(2, n - j * (k + 1), P) * bracket
        total += -step if j & 1 else step
    return total * pow(4, -1, P) % P


def disc_mod(k):
    """|disc(k)| mod P from (k-1)^2 |disc| = 2^(k+1) k^k - (k+1)^(k+1)."""
    if (k - 1) % P == 0:
        raise ValueError("(k-1)^2 is not invertible modulo P at k=%d" % (k,))
    numerator = pow(2, k + 1, P) * pow(k, k, P) - pow(k + 1, k + 1, P)
    return numerator * pow((k - 1) ** 2, -1, P) % P


def test_residues_agree_with_exact_values():
    rng = random.Random(20261020)
    for _ in range(200):
        k, n = rng.randrange(2, 300), rng.randrange(2, 3_000)
        assert lucas_mod(k, n) == term(SeqParams(k, LUCAS), n) % P, (k, n)
    for k in range(2, 300):
        assert disc_mod(k) == discriminant(k) % P, k


def test_residues_agree_with_exact_values_in_the_windows_up_to_k_8192():
    # Every window integer of 40 seeded k in [300, 8192) and of both ends:
    # the (k, n) the campaigns decide, where n reaches about 14 k.
    rng = random.Random(8192)
    ks = [300, *rng.sample(range(301, 8191), 40), 8191]
    checked = 0
    for k in ks:
        assert disc_mod(k) == discriminant(k) % P, k
        params = SeqParams(k, LUCAS)
        for n in window_integers(k):
            assert lucas_mod(k, n) == term(params, n) % P, (k, n)
            checked += 1
    assert checked >= 2 * len(ks)


def test_residues_close_case12_pairs_and_case3_survivors(case12_full_report, case3_100_report):
    # case12's 32 window pairs and the 14 rows that survive case3 at 100 bits.
    rows = case12_full_report.candidates + case3_100_report.survivors
    assert len(rows) == 32 + 14
    for c in rows:
        residue, delta = lucas_mod(c.k, c.n), disc_mod(c.k)
        assert residue not in (delta, -delta % P), c


def test_residues_close_the_case3_rows_inside_the_window(case3_150_report, case3_windows):
    # The 36 rows at 150 bits whose n lies in k's exact window: the window
    # closes every other row, and only filter 2 closes these.
    inside = [c for c in case3_150_report.candidates if c.n in case3_windows[c.k]]
    assert len(inside) == 36
    for c in inside:
        residue, delta = lucas_mod(c.k, c.n), disc_mod(c.k)
        assert residue not in (delta, -delta % P), c


def test_residues_close_every_window_integer_of_the_odd_k_near_small_powers_of_two():
    # The r >= 3 cell's band, odd k with |k - 2^m| < 300, with no 2-adic
    # step: all of it for m 8..12 (the bands of m 8..10 overlap, so 1,162
    # distinct k from 201), and 50 seeded k of the m = 55 band.
    def odd_band(m):
        lo, hi = localize_k_by_power2(m)
        return range((lo + 1) | 1, hi, 2)

    ks = {k for m in range(8, 13) for k in odd_band(m)}
    assert len(ks) == 1_162
    ks.update(random.Random(55).sample(odd_band(55), 50))
    checked = 0
    for k in sorted(ks):
        delta = disc_mod(k)
        for n in window_integers(k):
            assert lucas_mod(k, n) not in (delta, -delta % P), (k, n)
            checked += 1
    assert (len(ks), checked) == (1_212, 2_900)
