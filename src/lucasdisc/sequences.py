"""Order-k linear recurrences summing the previous k terms.

Two initializations of the same recurrence

    a(n) = a(n-1) + a(n-2) + ... + a(n-k),    k >= 2,

are provided.  The Fibonacci-type family starts with
F(2-k) = ... = F(0) = 0, F(1) = 1; the Lucas-type family starts with
L(2-k) = ... = L(-1) = 0, L(0) = 2, L(1) = 1.  Indices below 2-k are
outside the domain.  Everything here is exact integer arithmetic.

Useful closed pieces, all checked by the test suite and by
``lucasdisc.lemmas``:

* L(n) = 3 * 2^(n-2) for 2 <= n <= k, and L(k+1) = 3 * 2^(k-1) - 2;
* L(n) = 2 F(n+1) - F(n) for every n >= 2 - k;
* L(n) = 2 L(n-1) - L(n-k-1) once all three indices are in range;
* parities repeat with period k + 1;
* both families have the generating function

      sum_{n >= 0} a(n) x^n = (c0 + c1 x + c2 x^2) / (1 - 2x + x^(k+1)),

  with (c0, c1, c2) = (2, -3, 1) for Lucas and (0, 1, -1) for Fibonacci
  (the form over 1 - x - ... - x^k, both sides times 1 - x), so expanding
  1/(1 - x(2 - x^k)) gives, with N = n - jk and binomials that vanish
  when the top is below the bottom,

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
    "lucas_from_fib",
    "binom_ext",
    "cooper_howard_fib",
    "shift_identity_check",
]

FIBONACCI = "fibonacci"
LUCAS = "lucas"

_FAMILIES = (FIBONACCI, LUCAS)


@dataclass(frozen=True)
class SeqParams:
    """Recurrence order ``k`` plus the initialization family."""

    k: int
    family: str

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("order k must be at least 2, got %r" % (self.k,))
        if self.family not in _FAMILIES:
            raise ValueError("family must be one of %s, got %r" % (_FAMILIES, self.family))

    @property
    def min_index(self) -> int:
        return 2 - self.k


def _initial_term(params: SeqParams, n: int) -> int:
    """Stored initial value for 2-k <= n <= 1 (no backward recursion)."""
    if n < params.min_index or n > 1:
        raise ValueError("index %d is not an initial index for k=%d" % (n, params.k))
    if params.family == FIBONACCI:
        return 1 if n == 1 else 0
    return {0: 2, 1: 1}.get(n, 0)


# First k at which term() takes the closed form instead of the walk.  Per
# call, best of repeats at n = 2,000, 10,000 and 40,000 (Python 3.11, 2-core
# VM), the closed form costs 2.6-3.1x the walk at k = 3, 1.0-1.2x at k = 7,
# 0.9-1.1x at k = 8 and 0.6-1.0x at k = 9; at k = 60, n = 50,000 it is 0.1x.
_CLOSED_FORM_MIN_K = 8

# (c0, c1, c2) of the generating-function numerator (module docstring).
_NUMERATOR = {LUCAS: (2, -3, 1), FIBONACCI: (0, 1, -1)}


def term(params: SeqParams, n: int) -> int:
    """Exact term at index ``n`` (``n >= 2 - k``).

    Indices n < 2 are the stored initial values.  For k >= 8 the term is
    the generating-function sum of the module docstring: about n/(k+1)
    steps, each one exact multiply and divide of an n-bit integer by an
    integer of about k log2(n) bits.  For k < 8, where that costs as much
    as the walk or more, it is the first value of ``term_iter``: n steps
    of one big-integer addition and subtraction.
    """
    if n < params.min_index:
        raise ValueError("index %d below domain minimum %d" % (n, params.min_index))
    if n < 2:
        return _initial_term(params, n)
    if params.k < _CLOSED_FORM_MIN_K:
        return next(term_iter(params, n))[1]
    return _closed_form(params, n)


def _closed_form(params: SeqParams, n: int) -> int:
    """Term n >= 2 from the generating-function sum, in exact integers.

    Step j holds C(N, j) with N = n - jk.  Its bracket is C(N, j) times
    (N-j)/N for C(N-1, j) and (N-1-j)/(N-1) for C(N-2, j), put over the
    common denominator N(N-1); only the last j can have N < 2, and then
    N = j = 1 and the bracket is 4 c0.  The next binomial is
    C(N-k, j+1) = C(N, j) perm(N-j, k+1) / ((j+1) perm(N, k)).  The
    signed brackets are accumulated Horner-style, shifted k + 1 bits per
    step, and the last power 2^(n - j(k+1)) is one final shift.  Every
    division must be exact, and the accumulator non-negative and
    divisible by 4.
    """
    k = params.k
    c0, c1, c2 = _NUMERATOR[params.family]
    acc, binom, j, N = 0, 1, 0, n
    while True:
        if N >= 2:
            weight = 4 * c0 * N * (N - 1) + 2 * c1 * (N - j) * (N - 1) + c2 * (N - j) * (N - 1 - j)
            bracket, rem = divmod(binom * weight, N * (N - 1))
            if rem:
                raise AssertionError("inexact bracket for k=%d n=%d j=%d" % (k, n, j))
        else:
            bracket = 4 * c0 * binom
        acc = (acc << (k + 1)) + (-bracket if j & 1 else bracket)
        if N - k < j + 1:
            break
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
    init = [_initial_term(params, n) for n in range(params.min_index, 2)]
    for n in range(n_start, 2):
        yield n, init[n - params.min_index]
    window = deque(init, maxlen=params.k)  # appending drops the oldest term
    window_sum = sum(init)
    n = 1
    while True:
        n += 1
        new = window_sum
        window_sum += new - window[0]
        window.append(new)
        if n >= n_start:
            yield n, new


def lucas_from_fib(k: int, n: int) -> int:
    """Lucas-type term via the cross-family identity 2 F(n+1) - F(n)."""
    fib = SeqParams(k, FIBONACCI)
    return 2 * term(fib, n + 1) - term(fib, n)


def binom_ext(a: int, b: int) -> int:
    """Binomial with the extended convention: 0 when a < b or either side is negative."""
    if b < 0 or a < 0 or a < b:
        return 0
    return math.comb(a, b)


def cooper_howard_fib(k: int, n: int) -> int:
    """Fibonacci-type term from the binomial expansion around 2^(n-2).

    For n >= 2,

        F(n) = 2^(n-2) + sum_{j=1}^{floor((n+k)/(k+1)) - 1} C_j * 2^(n-j(k+1)-2)

    with C_j = (-1)^j * (binom(n-jk, j) - binom(n-jk-2, j-2)) under the
    extended binomial convention.  The smallest exponent reached is -2,
    so the sum is accumulated as an integer scaled by 4 and divided out
    at the end (the scaled accumulator is signed along the way).
    Indices n < 2 return the stored initial values.
    """
    if n < 2:
        return term(SeqParams(k, FIBONACCI), n)
    j_max = (n + k) // (k + 1) - 1
    scaled = 1 << n  # 4 * 2^(n-2)
    for j in range(1, j_max + 1):
        coeff = binom_ext(n - j * k, j) - binom_ext(n - j * k - 2, j - 2)
        if j % 2:
            coeff = -coeff
        exponent = n - j * (k + 1)  # >= 1 because j <= (n-1)/(k+1)
        scaled += coeff << exponent
    if scaled < 0 or scaled % 4:
        raise AssertionError("binomial expansion accumulator invalid for k=%d n=%d" % (k, n))
    return scaled >> 2


def shift_identity_check(k: int, n: int) -> bool:
    """Check L(n) = 2 L(n-1) - L(n-k-1) exactly; requires n >= 3."""
    params = SeqParams(k, LUCAS)
    if n - (k + 1) < params.min_index:
        raise ValueError("n=%d too small: n-(k+1) must be at least %d" % (n, params.min_index))
    return term(params, n) == 2 * term(params, n - 1) - term(params, n - (k + 1))
