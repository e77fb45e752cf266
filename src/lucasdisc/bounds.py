"""Discriminant arithmetic and the bound chain that pins the search space.

For g(x) = x^k - x^(k-1) - ... - 1 the absolute discriminant is

    delta(k) = (2^(k+1) k^k - (k+1)^(k+1)) / (k-1)^2,

an exact integer (the division is asserted).  Solving L(n) = delta(k)
forces n into a window of width 2.4 around k + (k-2) log2(k); a lower
bound for linear forms in logarithms caps k below 7e16 (hence n below
4e18); a 2-adic linear-forms bound tightens k below 7e7 for the
residue classes r in {1,2}; and for r >= 3 the surviving k cluster
within 300 of a power of two, m in a narrow band.  Each link of that
chain is computed here.  The window is written once, as the defect
n - w(k) in extended precision (:func:`_defect`); its float endpoints,
the m band at each k, the exact membership test and the integers in the
window all derive from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import mpmath

from .roots import _escalate, _last_negative

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

_MP_PREC = 160

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
    numerator = (1 << (k + 1)) * k**k - (k + 1) ** (k + 1)
    delta, rem = divmod(numerator, (k - 1) ** 2)
    if rem:
        raise AssertionError("discriminant numerator not divisible by (k-1)^2 at k=%d" % (k,))
    if delta <= 0:
        raise AssertionError("discriminant not positive at k=%d" % (k,))
    return delta


def _defect(k: int, n: int, bits: int = 80) -> mpmath.mpf:
    """d = n - w(k) with w(k) = k + (k-2) log2(k) - 1/10, to about 2^(8-bits).

    The terms of d reach about k log2(k), so the working precision is
    ``bits`` above k's bit length and the absolute error does not grow
    with k.
    """
    with mpmath.workprec(k.bit_length() + bits):
        return (n - k) + mpmath.mpf(1) / 10 - (k - 2) * mpmath.log(k) / mpmath.log(2)


def _width() -> mpmath.mpf:
    """Width 2.4 of the window (w(k), w(k) + 2.4), at the working precision."""
    return mpmath.mpf(24) / 10


def _window_member_exact(k: int, n: int) -> bool:
    """Decide n's membership in the open window (w(k), w(k) + 2.4) exactly.

    The defect d = n - w is evaluated in precision escalating from 120
    bits until it clears the safety margin 2^-(bits/2) on one side;
    d == 0 or d == 2.4 cannot occur for integer n (log2(k) is irrational
    unless k is a power of two, and then d - {0, 2.4} is a nonzero
    rational), so this terminates.  :func:`_defect` scales its precision with k, which keeps
    the rounding error far below the margin for every k.
    """

    def decide(bits: int) -> bool | None:
        defect = _defect(k, n, bits)
        with mpmath.workprec(bits + k.bit_length()):
            width = _width()
            eps = mpmath.ldexp(1, -(bits // 2))
            if eps < defect < width - eps:
                return True
            if defect < -eps or defect > width + eps:
                return False
        return None

    return _escalate(decide, 120, "window membership for k=%d n=%d undecided" % (k, n))


def n_window(k: int) -> tuple[float, float]:
    """Open interval that must contain n if L(n) = delta(k), for k > 200.

    Returns (lo, lo + 2.4) with lo the double nearest to
    w(k) = k + (k-2) log2(k) - 0.1.
    """
    if k <= 200:
        raise ValueError("window derivation needs k > 200, got k=%d" % (k,))
    lo = -float(_defect(k, 0))
    return lo, lo + float(_width())


def window_integers(k: int) -> list[int]:
    """The integers n in k's open window (w(k), w(k) + 2.4), for k > 200.

    Each is decided by :func:`_window_member_exact`.  floor(w) as computed is
    within one of the exact floor and the window holds at most three integers,
    so every member lies in floor(w) .. floor(w) + 4.
    """
    if k <= 200:
        raise ValueError("window derivation needs k > 200, got k=%d" % (k,))
    with mpmath.workprec(k.bit_length() + 80):
        start = int(mpmath.floor(-_defect(k, 0)))
    return [n for n in range(start, start + 5) if _window_member_exact(k, n)]


def _m_envelope(k: int) -> tuple[int, int]:
    """Least and largest m = n // (k+1) over the n in k's window.

    n > w and n <= m(k+1) + k give m > (w - k)/(k+1); n < w + 2.4 gives
    m <= (w + 2.4)/(k+1).  Both ends increase with k.
    """
    with mpmath.workprec(k.bit_length() + 80):
        w = -_defect(k, 0)
        m_lo = mpmath.ceil((w - k) / (k + 1))
        m_hi = mpmath.floor((w + _width()) / (k + 1))
    return int(m_lo), int(m_hi)


class MatveevBound(NamedTuple):
    k_max: int
    n_max: int


def _matveev_gap(k: int) -> mpmath.mpf:
    """(k/2) log 2 - 3.5e11 (log k)^2 log(3 k log k); negative while k survives.

    3.5e11 is the paper's aggregated linear-forms constant, taken as given;
    it is not derived here.
    """
    logk = mpmath.log(k)
    return k * mpmath.log(2) / 2 - 3.5e11 * logk**2 * mpmath.log(3 * k * logk)


@lru_cache(maxsize=1)
def solve_matveev_k_bound() -> MatveevBound:
    """Largest k compatible with the aggregated linear-forms inequality,
    plus the n cap that window implies at that k.

    Bisects the sign change of (k/2) log 2 - 3.5e11 (log k)^2 log(3 k log k)
    in high precision.  Both outputs are hard caps used by the search
    campaigns (k below 7e16, n below 4e18).
    """
    with mpmath.workprec(_MP_PREC):
        k_max = _last_negative(_matveev_gap, 10**3, 10**20)
        n_max = int(mpmath.floor(_width() - _defect(k_max, 0)))
    return MatveevBound(k_max=k_max, n_max=n_max)


def _bl_log_b(k: int) -> float:
    """log b' + log log 2 + 0.4 with b' = (k + 6.4) / (5.4 log k)."""
    b_prime = (k + 6.4) / (5.4 * math.log(k))
    return math.log(b_prime) + math.log(math.log(2)) + 0.4


def _bl_cap(k: int) -> float:
    """1123 * B^2 * log(k) * log(k+1) with B = max{log b' + log log 2 + 0.4, 10 log 2}."""
    B = max(_bl_log_b(k), 10 * math.log(2))
    return 1123.0 * B * B * math.log(k) * math.log(k + 1)


@lru_cache(maxsize=1)
def bl_crossover_k() -> int:
    """Largest k where the flat 10 log 2 branch still dominates B.

    log b' + log log 2 + 0.4 grows through 10 log 2 just short of
    59000; below the returned k the valuation cap is the small-branch
    value, which already confines k.
    """
    return _last_negative(lambda k: _bl_log_b(k) - 10 * math.log(2), 201, 10**6)


@lru_cache(maxsize=1)
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

    Returns exclusive bounds (lo, hi); empty when lo >= hi (the m = 57
    band clips away entirely at the 7e16 cap).
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
