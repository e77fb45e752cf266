"""Certified enclosures of the dominant root of x^k - x^(k-1) - ... - 1.

The polynomial has a unique real root alpha(k) in (2(1 - 2^-k), 2).
An enclosure is a dyadic bracket whose endpoint signs are evaluated in
integer arithmetic, so the bracket is a certificate; a Newton seed only
says where to put it, and a wrong seed costs time, never the answer.  The
inequality checks run in outward-rounded mpmath interval arithmetic over
those exact dyadic root brackets.  A ``True``/``False`` answer is
therefore proved, not sampled.  When an interval is too wide to decide a
strict inequality the computation retries with doubled precision, from
128 bits up to a hard cap, and then raises :class:`PrecisionError`.

The checks certify three growth facts about the Lucas-type terms:

* ``growth_bounds_check``:   alpha^(n-1) <= L(n) <= 2 alpha^n  (n >= 0)
* ``binet_error_check``:     |L(n) - c alpha^(n-1)| < 3/2      (n >= 2-k)
* ``binet_vs_power2_check``: |c alpha^(n-1) - 3 * 2^(n-2)|
                             < 3 * 2^(n-2) * 36 / 2^(k/2)      (n < 2^(k/2))

where c = f(alpha) (2 alpha - 1) and f(x) = (x-1) / (2 + (k+1)(x-2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import Any, Callable, Optional

import mpmath
from mpmath.ctx_iv import MPIntervalContext

from .sequences import LUCAS, SeqParams, term

__all__ = [
    "MAX_PRECISION_BITS",
    "PrecisionError",
    "RootEnclosure",
    "gk_sign",
    "dominant_root",
    "growth_bounds_check",
    "binet_error_check",
    "binet_vs_power2_check",
]

MAX_PRECISION_BITS = 4096


class PrecisionError(RuntimeError):
    """A strict comparison stayed undecidable at the precision cap."""


def gk_sign(k: int, x: Fraction) -> int:
    """Exact sign of x^k - x^(k-1) - ... - x - 1 at a rational x > 1.

    Uses the telescoped numerator x^k (x - 2) + 1 of
    (x^(k+1) - 2 x^k + 1) / (x - 1); the divisor is positive for x > 1
    so only the numerator's sign matters, and that is one big-integer
    expression in the fraction's parts.
    """
    x = Fraction(x)
    if x <= 1:
        raise ValueError("sign evaluation defined for x > 1 only")
    p, q = x.numerator, x.denominator
    value = p**k * (p - 2 * q) + q ** (k + 1)
    return (value > 0) - (value < 0)


@dataclass(frozen=True)
class RootEnclosure:
    """Certified bracket lo <= alpha(k) <= hi with rational endpoints."""

    k: int
    lo: Fraction
    hi: Fraction
    precision_bits: int

    def width(self) -> Fraction:
        return self.hi - self.lo


def _last_negative(f: Callable[[int], Any], lo: int, hi: int) -> int:
    """Last integer x in [lo, hi) with f(x) < 0, for f increasing on [lo, hi].

    The bracket must straddle the sign change, f(lo) < 0 < f(hi); that is
    checked, so the answer x is certified by f(x) < 0 <= f(x + 1).
    """
    if not (f(lo) < 0 < f(hi)):
        raise AssertionError("bracket [%d, %d] does not straddle a sign change" % (lo, hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo


def _seed_numerator(k: int, s: int) -> int:
    """A guess at floor(alpha(k) 2^s): Newton on x^k (x - 2) + 1 from x = 2, at s + 64 bits.

    The function is increasing and convex on [alpha, 2], so the iterates fall
    monotonically to alpha.  alpha = 2 - 2^-k - k 2^(-2k-1) - ... is 2 minus
    a series in 2^-k with dyadic coefficients, so alpha 2^s often lies just
    below an integer, and then the guess comes out one too high.  Nothing
    rests on it: :func:`dominant_root` certifies it with exact signs.
    """
    with mpmath.workprec(s + 64):
        x = mpmath.mpf(2)
        tol = mpmath.ldexp(1, -(s + 32))
        for _ in range(2 * s.bit_length() + 16):
            xk1 = x ** (k - 1)
            step = (xk1 * x * (x - 2) + 1) / (xk1 * ((k + 1) * x - 2 * k))
            x -= step
            if step < tol:
                break
        return int(mpmath.floor(mpmath.ldexp(x, s)))


@lru_cache(maxsize=None)
def dominant_root(k: int, precision_bits: int = 128) -> RootEnclosure:
    """Certified dyadic enclosure of alpha(k) of width 2^-precision_bits.

    The endpoints are p/q and (p+1)/q at the scale q = 2^s with
    s = max(precision_bits, k - 1), where the a-priori bracket
    [2(1 - 2^-k), 2] has integer ends.  A Newton seed guesses p; the bracket
    [p - 1, p + 1] doubles its radius, clipped to the a-priori bracket, until
    exact signs show it straddles the sign change, and :func:`_last_negative`
    narrows it to one unit.  alpha is irrational, so exactly one p has
    gk_sign(p/q) < 0 < gk_sign((p+1)/q): a poor seed costs time, never the
    answer, and the enclosure is a sign-change certificate.
    """
    if k < 2:
        raise ValueError("need k >= 2, got k=%d" % (k,))
    if precision_bits < 16:
        raise ValueError("precision_bits must be at least 16")
    s = max(precision_bits, k - 1)
    q = 1 << s
    sign = cache(lambda x: gk_sign(k, Fraction(x, q)))
    bottom, top = 2 * q - (1 << (s + 1 - k)), 2 * q
    p = min(max(_seed_numerator(k, s), bottom), top)
    radius = 1
    lo, hi = max(p - radius, bottom), min(p + radius, top)
    while not (sign(lo) < 0 < sign(hi)) and (lo, hi) != (bottom, top):
        radius *= 2
        lo, hi = max(p - radius, bottom), min(p + radius, top)
    p = _last_negative(sign, lo, hi)
    return RootEnclosure(k, Fraction(p, q), Fraction(p + 1, q), precision_bits)


def _escalate(decide: Callable[[int], Optional[bool]], bits: int = 128, what: str = "undecidable") -> bool:
    """Run ``decide`` from ``bits`` at doubling precision until it returns a verdict; ``what`` names a failure."""
    while bits <= MAX_PRECISION_BITS:
        verdict = decide(bits)
        if verdict is not None:
            return verdict
        bits *= 2
    raise PrecisionError("%s at %d bits" % (what, MAX_PRECISION_BITS))


# Private interval context; the global ``mpmath.iv`` precision is never touched.  Each decision
# sets it to max(bits, k) + 8 plus the bit length of its integer operand, so that operand and the
# endpoints of dominant_root(k, bits) (at most max(bits, k) + 1 significant bits) convert exactly.
_IV = MPIntervalContext()


def _alpha_iv(k: int, bits: int):
    """``dominant_root(k, bits)`` as an ``_IV`` interval (``mpmath.mpf(p) / q`` would round to 53 bits)."""
    enc = dominant_root(k, bits)
    lo = _IV.mpf(enc.lo.numerator) / enc.lo.denominator
    hi = _IV.mpf(enc.hi.numerator) / enc.hi.denominator
    return _IV.mpf([lo.a, hi.b])


def _dominant_iv(k: int, n: int, bits: int):
    """Interval enclosing f(alpha) (2 alpha - 1) alpha^(n-1) at the current ``_IV`` precision."""
    alpha = _alpha_iv(k, bits)
    den = 2 + (k + 1) * (alpha - 2)
    if not den.a > 0:
        raise AssertionError("denominator interval not positive for k=%d" % (k,))
    return (alpha - 1) / den * (2 * alpha - 1) * alpha ** (n - 1)


def growth_bounds_check(k: int, n: int) -> bool:
    """Certify alpha^(n-1) <= L(n) <= 2 alpha^n for n >= 0."""
    if n < 0:
        raise ValueError("growth bounds stated for n >= 0, got n=%d" % (n,))
    value = term(SeqParams(k, LUCAS), n)

    def decide(bits: int) -> Optional[bool]:
        _IV.prec = max(bits, k) + value.bit_length() + 8
        alpha = _alpha_iv(k, bits)
        low = alpha ** (n - 1)
        high = 2 * alpha**n
        if low.b <= value <= high.a:
            return True
        if low.a > value or high.b < value:
            return False
        return None

    return _escalate(decide)


def binet_error_check(k: int, n: int) -> bool:
    """Certify |L(n) - f(alpha)(2 alpha - 1) alpha^(n-1)| < 3/2 for n >= 2-k."""
    if n < 2 - k:
        raise ValueError("index %d below domain minimum %d" % (n, 2 - k))
    value = term(SeqParams(k, LUCAS), n)

    def decide(bits: int) -> Optional[bool]:
        _IV.prec = max(bits, k) + value.bit_length() + 8
        err = abs(value - _dominant_iv(k, n, bits))
        if 2 * err.b < 3:
            return True
        if 2 * err.a >= 3:
            return False
        return None

    return _escalate(decide)


def binet_vs_power2_check(k: int, n: int) -> bool:
    """Certify |dominant term - 3*2^(n-2)| < 3*2^(n-2) * 36/2^(k/2).

    Valid only under the stated proviso n < 2^(k/2); other n are a
    domain error.
    """
    if n > 0 and n * n >= (1 << k):
        raise ValueError("requires n < 2^(k/2), got n=%d k=%d" % (n, k))

    def decide(bits: int) -> Optional[bool]:
        _IV.prec = max(bits, k) + 8
        target = _IV.ldexp(3, n - 2)
        lhs = abs(_dominant_iv(k, n, bits) - target)
        rhs = 36 * target / _IV.sqrt(2) ** k
        if lhs.b < rhs.a:
            return True
        if lhs.a >= rhs.b:
            return False
        return None

    return _escalate(decide)
