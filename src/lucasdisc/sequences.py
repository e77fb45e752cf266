"""Order-k linear recurrences summing the previous k terms.

Two initializations of the same recurrence

    a(n) = a(n-1) + a(n-2) + ... + a(n-k),    k >= 2,

are provided, each fixed by its two heads (a(0), a(1)): (0, 1) for the
Fibonacci-type family F and (2, 1) for the Lucas-type family L, with
a(2-k) = ... = a(-1) = 0 before them.  Indices below 2-k are outside the
domain.  Everything here is exact integer arithmetic.

Useful closed pieces, all checked by the test suite and by
``lucasdisc.lemmas``:

* L(n) = 3 * 2^(n-2) for 2 <= n <= k, and L(k+1) = 3 * 2^(k-1) - 2;
* L(n) = 2 F(n+1) - F(n) for every n >= 2 - k;
* L(n) = 2 L(n-1) - L(n-k-1) once all three indices are in range;
* L(n) is odd iff n mod (k+1) is 1 or 2, so parities repeat with period k + 1;
* both families have the generating function

      sum_{n >= 0} a(n) x^n = (c0 + c1 x + c2 x^2) / (1 - 2x + x^(k+1)),

  with (c0, c1, c2) = (a(0), a(1) - 2 a(0), a(0) - a(1)) read off the
  heads: (2, -3, 1) for Lucas and (0, 1, -1) for Fibonacci (the form
  a(0) + (a(1) - a(0)) x over 1 - x - ... - x^k, both sides times 1 - x).
  So expanding 1/(1 - x(2 - x^k)) gives, with N = n - jk and binomials
  that vanish when the top is below the bottom,

      4 a(n) = sum_{0 <= j <= n/(k+1)} (-1)^j 2^(n - j(k+1))
               [4 c0 C(N, j) + 2 c1 C(N-1, j) + c2 C(N-2, j)]    (n >= 2).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "FIBONACCI",
    "LUCAS",
    "SeqParams",
    "term",
    "term_iter",
    "binom_ext",
]

FIBONACCI = "fibonacci"
LUCAS = "lucas"

_HEADS = {FIBONACCI: (0, 1), LUCAS: (2, 1)}  # a(0), a(1); every earlier value is 0

# (c0, c1, c2) of the generating-function numerator (module docstring).
_NUMERATOR = {family: (a0, a1 - 2 * a0, a0 - a1) for family, (a0, a1) in _HEADS.items()}


@dataclass(frozen=True)
class SeqParams:
    """Recurrence order ``k`` plus the initialization family."""

    k: int
    family: str

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("order k must be at least 2, got %r" % (self.k,))
        if self.family not in _HEADS:
            raise ValueError("family must be one of %s, got %r" % (tuple(_HEADS), self.family))

    @property
    def min_index(self) -> int:
        return 2 - self.k


# First k at which term() takes the closed form instead of the walk, where
# the power form below does not apply.  Per call, best of repeats at
# n = 2,000, 10,000 and 40,000 (Python 3.11, 2-core VM), the closed form
# costs 2.6-3.1x the walk at k = 3, 1.0-1.2x at k = 7, 0.9-1.1x at k = 8 and
# 0.6-1.0x at k = 9; at k = 60, n = 50,000 it is 0.1x.
_CLOSED_FORM_MIN_K = 8

# term() takes the power form for k <= _POWER_MAX_K and n >= max(_POWER_MIN_N,
# k^3) (:func:`_power_min_n`).  Per call, best of 9 (Python 3.11, 2-core
# VM), the power form costs this much of the path it replaces (the walk
# below k = 8, the closed form from there):
#
#     k      n = 700   1,000   1,500   2,000   3,000   5,000   10,000   50,000
#     2       0.26     0.19    0.13    0.09    0.06    0.04     0.02     0.01
#     4       0.48     0.32    0.24    0.18    0.12    0.08     0.05     0.02
#     7       0.84     0.63    0.44    0.34    0.25    0.16     0.10     0.06
#     8       0.86     0.59    0.41    0.31    0.23    0.17     0.12     0.07
#     10      1.36     0.95    0.68    0.52    0.39    0.28     0.23     0.13
#     11      1.65     1.17    0.85    0.64    0.48    0.36     0.28     0.18
#     12      2.11     1.40    1.03    0.79    0.59    0.46     0.34     0.21
#     13      2.50     1.70    1.21    0.93    0.67    0.53     0.45     0.29
#     14      2.95     1.91    1.40    1.07    0.86    0.65     0.55     0.35
#     15      3.41     2.32    1.65    1.28    0.98    0.77     0.64     0.44
#     16      3.88     2.69    1.94    1.42    1.17    0.92     0.76     0.53
#     17      4.76     3.00    2.20    1.75    1.34    1.08     0.89     0.58
#     18      5.41     3.58    2.54    1.97    1.55    1.24     1.11     0.73
#
# From k = 10 the measured crossing grows about as k^3, the threshold taken
# (1,331 at k = 11, 4,096 at k = 16); near it either path costs 0.1-0.8 ms a
# call.  At k = 17 the power form still loses at n = 5,000, and at k = 18 it
# wins only past n = 10,000.
_POWER_MAX_K = 16
_POWER_MIN_N = 1_000


def _power_min_n(k: int) -> int:
    """First n at which term() takes the power form, for k <= ``_POWER_MAX_K``."""
    return max(_POWER_MIN_N, k**3)


def term(params: SeqParams, n: int) -> int:
    """Exact term at index ``n`` (``n >= 2 - k``).

    Indices n < 2 are read off the heads: a(0), a(1), and 0 below them.
    For k <= 16 and n >= max(1,000, k^3) (:func:`_power_min_n`) it is read off
    x^h mod the characteristic polynomial, h = (n+k-2) // 2
    (:func:`_power_form`): about log2(n) - 1 squarings of k coefficients,
    then k products of n/2-bit integers.  Otherwise, for k >= 8 it is the
    generating-function sum of the module docstring: about n/(k+1)
    steps, each one exact multiply and divide of an n-bit integer by an
    integer of about k log2(n) bits.  For k < 8, where that costs as much
    as the walk or more, it is the first value of ``term_iter``: n steps
    of one big-integer addition and subtraction.
    """
    if n < params.min_index:
        raise ValueError("index %d below domain minimum %d" % (n, params.min_index))
    if n < 2:
        return _HEADS[params.family][n] if n >= 0 else 0
    if params.k <= _POWER_MAX_K and n >= _power_min_n(params.k):
        return _power_form(params, n)
    if params.k < _CLOSED_FORM_MIN_K:
        return next(term_iter(params, n))[1]
    return _closed_form(params, n)


def _power_form(params: SeqParams, n: int) -> int:
    """Term n >= 2 from x^h mod P(x), h = floor(e/2), e = n + k - 2 (Fiduccia's method).

    With P(x) = x^k - x^(k-1) - ... - 1 and x^m = sum c_i x^i mod P, the
    term a(2-k+m) is sum c_i a(2-k+i) over a(2-k) .. a(1), all 0 but the
    heads, so a(2-k+m) = c[k-2] a(0) + c[k-1] a(1).  x^h comes
    from x by one squaring per remaining bit of h, plus one multiply by x
    (:func:`_times_x`) on each 1-bit.  A squaring is schoolbook with each
    cross product taken once and doubled; the product, of degree 2k-2, is
    reduced top-down by x^k = x^(k-1) + ... + 1, where position j gains
    the sum of the reduced coefficients at j+1 .. j+k from k on: a sliding
    window, so O(k) additions.  Every coefficient of x^h mod P is
    non-negative (the multiply by x only moves and adds them), so a
    negative one is an error.

    The last squaring, k(k+1)/2 products of n/2-bit coefficients, is not
    taken.  Instead c times x^i, i = 0..k-1, one more multiply by x each,
    gives the consecutive terms T_i = a(h+2-k+i), two products each, and
    a(n) = sum c_i T_i: k products.  For odd e, c is first multiplied by
    x once more.
    """
    k = params.k
    e = n + k - 2
    c = [0] * k
    c[1] = 1
    for bit in bin(e >> 1)[3:]:
        p = [0] * (2 * k)  # p[2k-1] stays 0: the window's first drop
        for i, ci in enumerate(c):
            p[2 * i] += ci * ci
            for j in range(i + 1, k):
                p[i + j] += (ci * c[j]) << 1
        s = 0
        for j in range(2 * k - 3, k - 2, -1):
            s += p[j + 1]
            p[j] += s
        for j in range(k - 2, -1, -1):
            s -= p[j + k + 1]
            p[j] += s
        c = p[:k]
        if bit == "1":
            c = _times_x(c)
    if min(c) < 0:
        raise AssertionError("negative coefficient of x^h mod P for k=%d n=%d" % (k, n))
    a0, a1 = _HEADS[params.family]
    window, d = [], c
    for _ in range(k):
        window.append(a0 * d[-2] + a1 * d[-1])
        d = _times_x(d)
    if e & 1:
        c = _times_x(c)
    return sum(ci * t for ci, t in zip(c, window))


def _times_x(c: list[int]) -> list[int]:
    """x * sum c_i x^i mod P, with x^k = x^(k-1) + ... + 1."""
    top = c[-1]
    return [top] + [ci + top for ci in c[:-1]]


def _bracket_ratio(family: str, N: int, j: int) -> tuple[int, int]:
    """``(weight, den)`` with C(N, j) * weight / den the bracket of step j, 0 <= j <= N.

    The bracket is 4 c0 C(N, j) + 2 c1 C(N-1, j) + c2 C(N-2, j), with
    binomials that vanish for a negative top.  For N >= 2 it is C(N, j)
    times (N-j)/N for C(N-1, j) and (N-1-j)/(N-1) for C(N-2, j), over
    the common denominator N(N-1).  For N < 2, C(N-2, j) = 0 and
    C(N-1, j) = N - j, so the denominator is 1.
    """
    c0, c1, c2 = _NUMERATOR[family]
    if N < 2:
        return 4 * c0 + 2 * c1 * (N - j), 1
    return 4 * c0 * N * (N - 1) + 2 * c1 * (N - j) * (N - 1) + c2 * (N - j) * (N - 1 - j), N * (N - 1)


def _closed_form(params: SeqParams, n: int) -> int:
    """Term n >= 2 from the generating-function sum, in exact integers.

    Step j holds C(N, j) with N = n - jk, and its bracket is
    :func:`_bracket_ratio` of that binomial.  The next binomial
    C(N-k, j+1) is ``math.comb`` itself while j + 1 <= k, and after that
    C(N, j) perm(N-j, k+1) / ((j+1) perm(N, k)): a product of k + 1
    factors costs less than a binomial with more than k factors.  The
    signed brackets are accumulated Horner-style, shifted k + 1 bits per
    step, and the last power 2^(n - j(k+1)) is one final shift.  Every
    division must be exact, and the accumulator non-negative and
    divisible by 4.
    """
    k = params.k
    acc, binom, j, N = 0, 1, 0, n
    while True:
        weight, den = _bracket_ratio(params.family, N, j)
        bracket, rem = divmod(binom * weight, den)
        if rem:
            raise AssertionError("inexact bracket for k=%d n=%d j=%d" % (k, n, j))
        acc = (acc << (k + 1)) + (-bracket if j & 1 else bracket)
        if N - k < j + 1:
            break
        if j + 1 <= k:
            binom = math.comb(N - k, j + 1)
        else:
            binom, rem = divmod(binom * math.perm(N - j, k + 1), (j + 1) * math.perm(N, k))
            if rem:
                raise AssertionError("inexact binomial step for k=%d n=%d j=%d" % (k, n, j))
        j, N = j + 1, N - k
    acc <<= n - j * (k + 1)
    if acc < 0 or acc & 3:
        raise AssertionError("generating-function accumulator invalid for k=%d n=%d" % (k, n))
    return acc >> 2


def term_iter(params: SeqParams, n_start: int = 0) -> Iterator[tuple[int, int]]:
    """Yield ``(n, term)`` pairs for n = n_start, n_start + 1, ...

    The walk keeps the k most recent terms and their running sum, so each
    step costs one big-integer addition and one subtraction: total cost to
    reach index n is O(n + k) big-integer additions.
    """
    if n_start < params.min_index:
        raise ValueError("start index %d below domain minimum %d" % (n_start, params.min_index))
    for n in range(n_start, 2):
        yield n, term(params, n)
    heads = _HEADS[params.family]
    # a(2-k) .. a(1); appending drops the oldest term
    window = deque([0] * (params.k - 2) + list(heads), maxlen=params.k)
    window_sum = sum(heads)
    n = 1
    while True:
        n += 1
        new = window_sum
        window_sum += new - window[0]
        window.append(new)
        if n >= n_start:
            yield n, new


def binom_ext(a: int, b: int) -> int:
    """Binomial with the extended convention: 0 when a < b or either side is negative."""
    if b < 0 or a < 0 or a < b:
        return 0
    return math.comb(a, b)

