"""Discriminant arithmetic and the bound chain that pins the search space.

For g(x) = x^k - x^(k-1) - ... - 1 the absolute discriminant is

    delta(k) = (2^(k+1) k^k - (k+1)^(k+1)) / (k-1)^2,

an exact integer (the division is asserted).  Solving L(n) = delta(k)
forces n into a window of width 2.4 around k + (k-2) log2(k); a lower
bound for linear forms in logarithms caps k below 7e16 (hence n below
4e18); a 2-adic linear-forms bound tightens k below 7e7 for the
residue classes r in {1,2}; and for r >= 3 the surviving k cluster
within 300 of a power of two, m in a narrow band.  Each link of that
chain is computed here.  The window is decided by one exact integer
per k, l(k) = floor(10(k-2) log2 k) (:func:`_ell`): the integers in it,
the m band at each k and the n cap all derive from l(k).  w(k) itself
is computed in the standard library's decimal only to be shown, as a
float or as digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from functools import cache, lru_cache
from typing import NamedTuple

from .roots import _escalate, _last_negative, _pow_bounds

__all__ = [
    "discriminant",
    "n_window",
    "window_integers",
    "MatveevBound",
    "solve_matveev_k_bound",
    "bl_crossover_k",
    "solve_bl_k_bound",
    "m_range",
    "localize_k_by_power2",
    "BoundProfile",
    "bound_profile",
]

#: Significant digits of the linear-forms gap, about 160 bits.
_GAP_DIGITS = 48

#: Cap on k from the linear-forms bound (solve_matveev_k_bound's k_max
#: rounded up); the campaigns search below it.
K_CAP = 70_000_000_000_000_000


def discriminant(k: int) -> int:
    """Absolute discriminant of x^k - x^(k-1) - ... - 1, exact.

    delta(k) = (2^(k+1) k^k - (k+1)^(k+1)) / (k-1)^2.  The divisibility
    and positivity are asserted, not assumed.
    """
    if k < 2:
        raise ValueError("need k >= 2, got k=%d" % (k,))
    numerator = (k**k << (k + 1)) - (k + 1) ** (k + 1)
    delta, rem = divmod(numerator, (k - 1) ** 2)
    if rem:
        raise AssertionError("discriminant numerator not divisible by (k-1)^2 at k=%d" % (k,))
    if delta <= 0:
        raise AssertionError("discriminant not positive at k=%d" % (k,))
    return delta


def _ell(k: int) -> int:
    """l(k) = floor(10(k-2) log2 k) = floor(log2 k^(10(k-2))), exact, for k >= 2.

    Clearing the tenths of w(k) = k + (k-2) log2(k) - 1/10 makes the
    window (w(k), w(k) + 2.4) one statement about l: n lies in it iff
    l <= 10(n-k) <= l + 23.  Equality at an edge cannot occur: the edges
    are the odd integers 10(n-k) + 1 and 10(n-k) - 23, while
    10(k-2) log2 k is an integer only for k a power of two, and then it
    is even.  l is read off truncated bounds lo 2^e <= k^(10(k-2)) <= hi 2^e
    (:func:`roots._pow_bounds`) once lo and hi have the same bit length;
    their width doubles from 128 bits.
    """

    def decide(bits: int) -> int | None:
        lo, hi, e = _pow_bounds(k, 10 * (k - 2), bits)
        return e + lo.bit_length() - 1 if lo.bit_length() == hi.bit_length() else None

    return _escalate(decide, "window integer l(k) for k=%d undecided" % (k,))


@cache
def _ln2(digits: int) -> Decimal:
    """ln 2 to `digits` significant digits."""
    return Decimal(2).ln(Context(prec=digits))


def _w(k: int) -> Decimal:
    """w(k) = k + (k-2) log2(k) - 1/10 to 80 bits past k's bit length, for display only."""
    digits = math.ceil((k.bit_length() + 80) * math.log10(2)) + 2
    with localcontext(Context(prec=digits)):
        return (k - Decimal("0.1")) + (k - 2) * Decimal(k).ln() / _ln2(digits)


def n_window(k: int) -> tuple[float, float]:
    """Open interval that must contain n if L(n) = delta(k), for k > 200.

    Returns (lo, lo + 2.4) with lo the double nearest to
    w(k) = k + (k-2) log2(k) - 0.1.
    """
    if k <= 200:
        raise ValueError("window derivation needs k > 200, got k=%d" % (k,))
    lo = float(_w(k))
    return lo, lo + 2.4


def window_integers(k: int) -> list[int]:
    """The integers n in k's open window (w(k), w(k) + 2.4), for k > 200.

    They are the n with ceil(l/10) <= n - k <= floor((l + 23)/10), l = :func:`_ell`.
    """
    if k <= 200:
        raise ValueError("window derivation needs k > 200, got k=%d" % (k,))
    return list(_window(k, _ell(k)))


def _window(k: int, ell: int) -> range:
    """k's window integers given ell = l(k): the n with ceil(l/10) <= n - k <= floor((l + 23)/10)."""
    return range(k - (-ell // 10), k + (ell + 23) // 10 + 1)


def _m_envelope(k: int, ell: int | None = None) -> tuple[int, int]:
    """Least and largest m = n // (k+1) over the n in k's window; ``ell`` is l(k) if the caller holds it.

    They are the m of the first and the last window integer.  Both ends
    increase with k.
    """
    window = window_integers(k) if ell is None else _window(k, ell)
    return window[0] // (k + 1), window[-1] // (k + 1)


class MatveevBound(NamedTuple):
    k_max: int
    n_max: int


def _matveev_gap(k: int) -> Decimal:
    """(k/2) log 2 - 3.5e11 (log k)^2 log(3 k log k); negative while k survives.

    3.5e11 is the paper's aggregated linear-forms constant, taken as given;
    it is not derived here.
    """
    with localcontext(Context(prec=_GAP_DIGITS)):
        logk = Decimal(k).ln()
        return k * _ln2(_GAP_DIGITS) / 2 - Decimal("3.5e11") * logk**2 * (3 * k * logk).ln()


@lru_cache(maxsize=1)
def solve_matveev_k_bound() -> MatveevBound:
    """Largest k compatible with the aggregated linear-forms inequality,
    plus the n cap that window implies at that k.

    The sign change of (k/2) log 2 - 3.5e11 (log k)^2 log(3 k log k), in
    48-digit decimal arithmetic, is first placed by secant steps on that
    gap from 1e16 and 1e17; bisecting 64 either side of the place then
    gives the answer, certified by :func:`_last_negative`'s check that the
    bracket straddles the sign change.  Both outputs are hard caps used by
    the search campaigns (k below 7e16, n below 4e18).
    """
    k0, k1 = 10**16, 10**17
    g0, g1 = _matveev_gap(k0), _matveev_gap(k1)
    with localcontext(Context(prec=_GAP_DIGITS)):
        for _ in range(64):
            if abs(k1 - k0) <= 1:
                break
            k0, g0, k1 = k1, g1, k1 - int(g1 * (k1 - k0) / (g1 - g0))
            g1 = _matveev_gap(k1)
    k_max = _last_negative(_matveev_gap, k1 - 64, k1 + 64)
    return MatveevBound(k_max=k_max, n_max=window_integers(k_max)[-1])


def _bl_log_b(k: int) -> float:
    """log b' + log log 2 + 0.4 with b' = (k + 6.4) / (5.4 log k)."""
    b_prime = (k + 6.4) / (5.4 * math.log(k))
    return math.log(b_prime) + math.log(math.log(2)) + 0.4


def _bl_cap(k: int) -> float:
    """1123 * B^2 * log(k) * log(k+1) with B = max{log b' + log log 2 + 0.4, 10 log 2}."""
    B = max(_bl_log_b(k), 10 * math.log(2))
    return 1123.0 * B * B * math.log(k) * math.log(k + 1)


def bl_crossover_k() -> int:
    """Largest k where the flat 10 log 2 branch still dominates B.

    log b' + log log 2 + 0.4 grows through 10 log 2 just short of
    59000; below the returned k the valuation cap is the small-branch
    value, which already confines k.
    """
    return _last_negative(lambda k: _bl_log_b(k) - 10 * math.log(2), 201, 10**6)


def solve_bl_k_bound() -> int:
    """Largest k with k - 1 <= 1123 B(k)^2 log(k) log(k+1).

    Beyond this k the 2-adic valuation cap falls below k - 1 and the
    r in {1,2} case is impossible; the returned value sits below 7e7.
    """
    return _last_negative(lambda k: (k - 1) - _bl_cap(k), 202, 10**9)


def m_range(k_max: int = K_CAP) -> tuple[int, int]:
    """Envelope of m = n // (k+1) over all k in (200, k_max] with n in
    the window.

    Both ends of the per-k band (:func:`_m_envelope`) increase with k,
    so the extremes sit at the endpoints; the upper end is widened
    outward by one as a conservative envelope (the extra m localizes to
    an empty k range anyway).
    """
    if k_max <= 201:
        raise ValueError("need k_max > 201, got %d" % (k_max,))
    return _m_envelope(201)[0], _m_envelope(k_max)[1] + 1


def localize_k_by_power2(m: int) -> tuple[int, int]:
    """Open interval of k with |k - 2^m| < 300, clipped to (200, K_CAP).

    Returns exclusive bounds (lo, hi); empty when lo >= hi.  The m = 56
    and m = 57 bands clip away entirely at the 7e16 cap, since
    2^56 - 300 > K_CAP; m = 55 is the last band that is not empty.
    """
    if m < 8:
        raise ValueError("need m >= 8, got m=%d" % (m,))
    lo = max((1 << m) - 300, 200)
    hi = min((1 << m) + 300, K_CAP)
    return lo, hi


@dataclass(frozen=True)
class BoundProfile:
    """Search-space summary at one k: window in n, band in m, cap on a,
    plus the global k caps."""

    k: int
    n_lo: float
    n_hi: float
    m_lo: int
    m_hi: int
    a_max: int
    k_matveev_max: int
    k_bl_max: int


def bound_profile(k: int) -> BoundProfile:
    """Assemble the per-k bound profile (k > 200)."""
    n_lo, n_hi = n_window(k)
    m_lo, m_hi = _m_envelope(k)
    a_max = math.floor(6 * math.log(k) + 2)
    matveev = solve_matveev_k_bound()
    return BoundProfile(
        k=k,
        n_lo=n_lo,
        n_hi=n_hi,
        m_lo=m_lo,
        m_hi=m_hi,
        a_max=a_max,
        k_matveev_max=matveev.k_max,
        k_bl_max=solve_bl_k_bound(),
    )
