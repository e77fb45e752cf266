"""Certified enclosures of the dominant root of x^k - x^(k-1) - ... - 1.

The polynomial has a unique real root alpha(k) in (2(1 - 2^-k), 2).
An enclosure is a dyadic bracket whose endpoint signs are decided in
integer arithmetic, so the bracket is a certificate; a Newton seed only
says where to put it, and a wrong seed costs time, never the answer.
Each sign, at x = p/2^s, compares the exact power 2^(s(k+1)) with
p^k (2^(s+1) - p) by bit length, from one rounded-down and rounded-up
truncation of p^k widened until the comparison is decided, so it stays
exact without forming the (k*s)-bit power.  The
inequality checks bound each side over those exact dyadic root brackets
by the same truncated powers, one power pass per root bracket for both
of its ends, and compare integers, so a ``True``/``False`` answer is
proved, not sampled.  When an interval is too wide to decide a
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
from functools import cache, lru_cache, partial
from typing import Any, Callable, Optional

from .sequences import LUCAS, SeqParams, term

__all__ = [
    "MAX_PRECISION_BITS",
    "PrecisionError",
    "RootEnclosure",
    "dominant_root",
    "growth_bounds_check",
    "binet_error_check",
    "binet_vs_power2_check",
]

MAX_PRECISION_BITS = 4096


class PrecisionError(RuntimeError):
    """A strict comparison stayed undecidable at the precision cap."""


def _pow_bounds(x: int, n: int, w: int, y: Optional[int] = None) -> tuple[int, int, int]:
    """(lo, hi, e) with lo 2^e <= x^n and y^n <= hi 2^e, for 1 <= x <= y and n >= 0; y defaults to x.

    Square-and-multiply on two mantissas under one shared exponent e, lo
    a power of x and hi of y: after each step both are cut by the shift
    that brings hi to w bits, lo rounded down and hi up.  While nothing
    has been cut, (lo, hi, e) == (x^n, y^n, 0).
    """
    if y is None:
        y = x
    lo = hi = 1
    e = 0
    for bit in bin(n)[2:]:
        lo, hi, e = lo * lo, hi * hi, 2 * e
        if bit == "1":
            lo, hi = lo * x, hi * y
        cut = hi.bit_length() - w
        if cut > 0:
            lo, hi, e = lo >> cut, -(-hi >> cut), e + cut
    return lo, hi, e


def _gap_sign(k: int, p: int, s: int, w: int) -> int:
    """Sign of 2^(s(k+1)) - p^k d, d = 2^(s+1) - p, for 0 < p <= 2^(s+1), p != 2^s, from w-bit bounds of p^k.

    That is 2^(s(k+1)) (x - 1) (x^k - x^(k-1) - ... - 1) at x = p/2^s, never 0 for p != 2^s: the
    only rational root of x^(k+1) - 2 x^k + 1 is 1.  With lo 2^e <= p^k <= hi 2^e from one
    :func:`_pow_bounds` pass, p^k d is below 2^(s(k+1)) once hi d 2^e has at most s(k+1) bits, and
    above it once lo d 2^e has more (d < 0 would break both tests).  w doubles until one holds,
    which is certain once w covers p^k.
    """
    d, top = (2 << s) - p, s * (k + 1)
    while True:
        lo, hi, e = _pow_bounds(p, k, w)
        if (hi * d).bit_length() + e <= top:
            return 1
        if d and (lo * d).bit_length() + e > top:
            return -1
        w *= 2


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
    """A guess at floor(alpha(k) 2^s): Newton on x^k (x - 2) + 1 from x = 2, in (s + 64)-bit fixed point.

    The function is increasing and convex on [alpha, 2], so the iterates fall
    monotonically to alpha.  x^(k-1) is the rounded-down mantissa lo 2^e of
    :func:`_pow_bounds`, with the step's numerator and denominator divided by
    2^e.  alpha = 2 - 2^-k - k 2^(-2k-1) - ... is 2 minus a series in 2^-k
    with dyadic coefficients, so alpha 2^s often lies just below an integer,
    and then the guess comes out one too high.  Nothing rests on it:
    :func:`dominant_root` certifies it with exact signs.
    """
    t = s + 64
    two = 2 << t
    x = two
    for _ in range(2 * s.bit_length() + 16):
        lo, _, e = _pow_bounds(x, k - 1, t + 32)
        step = (lo * x * (x - two) + (1 << ((k + 1) * t - e))) // (lo * ((k + 1) * x - k * two))
        x -= step
        if step < 1 << 32:
            break
    return x >> 64


@lru_cache(maxsize=None)
def dominant_root(k: int, precision_bits: int, /) -> RootEnclosure:
    """Certified dyadic enclosure of alpha(k) of width 2^-precision_bits.

    The endpoints are p/q and (p+1)/q at the scale q = 2^s with
    s = max(precision_bits, k - 1), where the a-priori bracket
    [2(1 - 2^-k), 2] has integer ends.  A Newton seed guesses p; the bracket
    [p - 1, p + 1] doubles its radius, clipped to the a-priori bracket, until
    exact signs show it straddles the sign change, and :func:`_last_negative`
    narrows it to one unit.  alpha is irrational, so exactly one p has
    a negative :func:`_gap_sign` at p and a positive one at p + 1: a poor
    seed costs time, never the answer, and the enclosure is a sign-change
    certificate.
    """
    if k < 2:
        raise ValueError("need k >= 2, got k=%d" % (k,))
    if precision_bits < 16:
        raise ValueError("precision_bits must be at least 16")
    s = max(precision_bits, k - 1)
    q = 1 << s
    # Within 2^-s of alpha the gap is at most about 2^(k-s) of p^k d; a power pass loses about 2 log k bits.
    w = s - k + 2 * k.bit_length() + 64
    sign = cache(lambda x: _gap_sign(k, x, s, w))
    bottom, top = 2 * q - (1 << (s + 1 - k)), 2 * q
    p = min(max(_seed_numerator(k, s), bottom), top)
    radius = 1
    lo, hi = max(p - radius, bottom), min(p + radius, top)
    while not (sign(lo) < 0 < sign(hi)) and (lo, hi) != (bottom, top):
        radius *= 2
        lo, hi = max(p - radius, bottom), min(p + radius, top)
    p = _last_negative(sign, lo, hi)
    return RootEnclosure(k, Fraction(p, q), Fraction(p + 1, q), precision_bits)


def _escalate(decide: Callable[[int], Any], what: str = "undecidable") -> Any:
    """Run ``decide`` from 128 bits at doubling precision until it returns non-None; ``what`` names a failure."""
    bits = 128
    while bits <= MAX_PRECISION_BITS:
        verdict = decide(bits)
        if verdict is not None:
            return verdict
        bits *= 2
    raise PrecisionError("%s at %d bits" % (what, MAX_PRECISION_BITS))


def _enclosure(k: int, n: int, bits: int, w: int, lead: bool = True) -> list[tuple[int, int]]:
    """[(lo, lo_den), (hi, hi_den)] bounding D(x) = f(x) (2x - 1) x^(n-1), or x^(n-1) alone without ``lead``.

    x runs over the bracket [p, p + 1] / 2^s of ``dominant_root(k, bits)``, and each factor takes its
    bound at one end by monotonicity: f falls (f' = (1 - k) / den^2), 2x - 1 rises, and x^(n-1) rises
    for n >= 1 and falls below.  One power pass bounds p^|n-1| below and (p + 1)^|n-1| above
    (:func:`_pow_bounds`); for n < 1 both bounds are inverted and swap places.
    """
    enc, s, m = dominant_root(k, bits), max(bits, k - 1), n - 1
    q = 1 << s
    p = enc.lo.numerator << (s + 1 - enc.lo.denominator.bit_length())
    lo, hi, e = _pow_bounds(p, abs(m), w, p + 1)
    t = e - s * abs(m)
    ends = [(lo, 1, t), (hi, 1, t)] if m >= 0 else [(1, hi, -t), (1, lo, -t)]
    out = []
    for up, (num, den, t) in enumerate(ends):
        if lead:
            a, b = (p, p + 1) if up else (p + 1, p)  # the ends for f and for 2x - 1
            f_den = 2 * q + (k + 1) * (a - 2 * q)
            if not f_den > 0:
                raise AssertionError("denominator not positive for k=%d" % (k,))
            num, den, t = num * (a - q) * (2 * b - q), den * f_den, t - s
        out.append((num << t, den) if t >= 0 else (num, den << -t))
    return out


def _growth_decision(k: int, n: int, value: int, bits: int) -> Optional[bool]:
    """alpha^(n-1) <= value <= 2 alpha^n over ``dominant_root(k, bits)``: True, False or None (undecided)."""
    w = max(bits, k) + value.bit_length() + 8
    (a, a_den), (b, b_den) = _enclosure(k, n, bits, w, lead=False)
    (c, c_den), (d, d_den) = _enclosure(k, n + 1, bits, w, lead=False)
    if b <= value * b_den and value * c_den <= 2 * c:
        return True
    if a > value * a_den or 2 * d < value * d_den:
        return False
    return None


def _binet_error_decision(k: int, n: int, value: int, bits: int) -> Optional[bool]:
    """|value - D| < 3/2 over ``dominant_root(k, bits)``: True, False or None (undecided)."""
    (a, a_den), (b, b_den) = _enclosure(k, n, bits, max(bits, k) + value.bit_length() + 8)
    v = 2 * value
    if 2 * b < (v + 3) * b_den and 2 * a > (v - 3) * a_den:
        return True
    if 2 * a >= (v + 3) * a_den or 2 * b <= (v - 3) * b_den:
        return False
    return None


def _power2_decision(k: int, n: int, target: Fraction, bits: int) -> Optional[bool]:
    """|D - target| < 36 target / 2^(k/2), squared, at the ends of D's enclosure: True, False or None."""
    t, t_den = target.numerator, target.denominator
    ends = [(num * t_den - t * den, 36 * t * den) for num, den in _enclosure(k, n, bits, max(bits, k) + 8)]
    far = [(gap * gap << k) >= bound * bound for gap, bound in ends]
    if not any(far):
        return True
    if all(far) and (ends[0][0] > 0 or ends[1][0] < 0):
        return False
    return None


def growth_bounds_check(k: int, n: int) -> bool:
    """Certify alpha^(n-1) <= L(n) <= 2 alpha^n for n >= 0."""
    if n < 0:
        raise ValueError("growth bounds stated for n >= 0, got n=%d" % (n,))
    return _escalate(partial(_growth_decision, k, n, term(SeqParams(k, LUCAS), n)))


def binet_error_check(k: int, n: int) -> bool:
    """Certify |L(n) - f(alpha)(2 alpha - 1) alpha^(n-1)| < 3/2 for n >= 2-k."""
    if n < 2 - k:
        raise ValueError("index %d below domain minimum %d" % (n, 2 - k))
    return _escalate(partial(_binet_error_decision, k, n, term(SeqParams(k, LUCAS), n)))


def binet_vs_power2_check(k: int, n: int) -> bool:
    """Certify |dominant term - 3*2^(n-2)| < 3*2^(n-2) * 36/2^(k/2); n >= 2^(k/2) is a domain error."""
    if n > 0 and n * n >= (1 << k):
        raise ValueError("requires n < 2^(k/2), got n=%d k=%d" % (n, k))
    return _escalate(partial(_power2_decision, k, n, Fraction(3 << max(n - 2, 0), 1 << max(2 - n, 0))))
