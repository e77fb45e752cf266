"""Certified enclosures of the dominant root of x^k - x^(k-1) - ... - 1.

The polynomial has a unique real root alpha(k) in (2(1 - 2^-k), 2).
Everything here is exact: enclosures come from bisection over dyadic
rationals (sign evaluations are integer arithmetic, so the bracket is a
certificate), and the inequality checks run in exact rational interval
arithmetic.  A ``True``/``False`` answer is therefore proved, not
sampled.  When an interval is too wide to decide a strict inequality
the computation retries with doubled precision up to a hard cap and
then raises :class:`PrecisionError`.

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
from functools import lru_cache
from math import isqrt
from typing import Any, Callable, Optional

from .sequences import LUCAS, SeqParams, term

__all__ = [
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


class _Iv:
    """Closed interval with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        self.lo = Fraction(lo)
        self.hi = self.lo if hi is None else Fraction(hi)
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    def __add__(self, other: "_Iv") -> "_Iv":
        return _Iv(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "_Iv") -> "_Iv":
        return _Iv(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "_Iv") -> "_Iv":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return _Iv(min(products), max(products))

    def __truediv__(self, other: "_Iv") -> "_Iv":
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("divisor interval contains zero")
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return _Iv(min(quotients), max(quotients))

    def pow_int(self, e: int) -> "_Iv":
        if e == 0:
            return _Iv(1)
        if e < 0:
            if self.lo <= 0:
                raise ZeroDivisionError("negative power of interval touching zero")
            return _Iv(self.hi**e, self.lo**e)
        if self.lo >= 0:
            return _Iv(self.lo**e, self.hi**e)
        if e % 2:
            return _Iv(self.lo**e, self.hi**e)
        top = max(-self.lo, self.hi) ** e
        bot = Fraction(0) if self.hi >= 0 else self.hi**e
        return _Iv(min(bot, top), top)

    def abs(self) -> "_Iv":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return _Iv(-self.hi, -self.lo)
        return _Iv(0, max(-self.lo, self.hi))


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

    def interval(self) -> _Iv:
        return _Iv(self.lo, self.hi)


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


@lru_cache(maxsize=None)
def dominant_root(k: int, precision_bits: int = 128) -> RootEnclosure:
    """Bisect down to width 2^-precision_bits from the bracket
    [2(1 - 2^-k), 2].

    The bisection runs over numerators p at the scale q = 2^s with
    s = max(precision_bits, k - 1), where both ends of the bracket are
    integers.  Both endpoint signs are verified exactly, so the returned
    enclosure is a sign-change certificate with dyadic endpoints.
    """
    if k < 2:
        raise ValueError("need k >= 2, got k=%d" % (k,))
    if precision_bits < 16:
        raise ValueError("precision_bits must be at least 16")
    s = max(precision_bits, k - 1)
    q = 1 << s
    p = _last_negative(lambda x: gk_sign(k, Fraction(x, q)), 2 * q - (1 << (s + 1 - k)), 2 * q)
    return RootEnclosure(k, Fraction(p, q), Fraction(p + 1, q), precision_bits)


def _escalate(decide: Callable[[int], Optional[bool]], precision_bits: int, what: str = "undecidable") -> bool:
    """Run ``decide`` at doubling precision until it returns a verdict; ``what`` names a failure."""
    bits = max(precision_bits, 16)
    while bits <= MAX_PRECISION_BITS:
        verdict = decide(bits)
        if verdict is not None:
            return verdict
        bits *= 2
    raise PrecisionError("%s at %d bits" % (what, MAX_PRECISION_BITS))


def _dominant_iv(k: int, n: int, bits: int) -> _Iv:
    """Interval enclosing f(alpha) (2 alpha - 1) alpha^(n-1)."""
    alpha = dominant_root(k, bits).interval()
    one = _Iv(1)
    two = _Iv(2)
    den = two + _Iv(k + 1) * (alpha - two)
    if den.lo <= 0:
        raise AssertionError("denominator interval not positive for k=%d" % (k,))
    f = (alpha - one) / den
    return f * (two * alpha - one) * alpha.pow_int(n - 1)


def _lucas_term(k: int, n: int) -> int:
    return term(SeqParams(k, LUCAS), n)


def growth_bounds_check(k: int, n: int, precision_bits: int = 128) -> bool:
    """Certify alpha^(n-1) <= L(n) <= 2 alpha^n for n >= 0."""
    if n < 0:
        raise ValueError("growth bounds stated for n >= 0, got n=%d" % (n,))
    value = _Iv(_lucas_term(k, n))

    def decide(bits: int) -> Optional[bool]:
        alpha = dominant_root(k, bits).interval()
        low = alpha.pow_int(n - 1)
        high = _Iv(2) * alpha.pow_int(n)
        if low.hi <= value.lo and value.hi <= high.lo:
            return True
        if low.lo > value.hi or high.hi < value.lo:
            return False
        return None

    return _escalate(decide, precision_bits)


def binet_error_check(k: int, n: int, precision_bits: int = 128) -> bool:
    """Certify |L(n) - f(alpha)(2 alpha - 1) alpha^(n-1)| < 3/2 for n >= 2-k."""
    if n < 2 - k:
        raise ValueError("index %d below domain minimum %d" % (n, 2 - k))
    value = _Iv(_lucas_term(k, n))
    bound = Fraction(3, 2)

    def decide(bits: int) -> Optional[bool]:
        err = (value - _dominant_iv(k, n, bits)).abs()
        if err.hi < bound:
            return True
        if err.lo >= bound:
            return False
        return None

    return _escalate(decide, precision_bits)


def _sqrt2_iv(bits: int) -> _Iv:
    scale = 1 << bits
    a = isqrt(2 * scale * scale)
    return _Iv(Fraction(a, scale), Fraction(a + 1, scale))


def binet_vs_power2_check(k: int, n: int, precision_bits: int = 128) -> bool:
    """Certify |dominant term - 3*2^(n-2)| < 3*2^(n-2) * 36/2^(k/2).

    Valid only under the stated proviso n < 2^(k/2); other n are a
    domain error.  For odd k the right side involves sqrt(2), enclosed
    by integer-square-root rationals at working precision.
    """
    if n > 0 and n * n >= (1 << k):
        raise ValueError("requires n < 2^(k/2), got n=%d k=%d" % (n, k))
    target = _Iv(3 * Fraction(2) ** (n - 2))

    def decide(bits: int) -> Optional[bool]:
        lhs = (_dominant_iv(k, n, bits) - target).abs()
        scale = _Iv(Fraction(36, 1 << (k // 2)))
        if k % 2:
            scale = scale / _sqrt2_iv(bits)
        rhs = target * scale
        if lhs.hi < rhs.lo:
            return True
        if lhs.lo >= rhs.hi:
            return False
        return None

    return _escalate(decide, precision_bits)
