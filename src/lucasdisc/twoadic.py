"""2-adic valuations and power-of-two congruences for the Lucas-type family.

Writing n = r + m(k+1) with 0 <= r <= k, the Lucas-type term L(n) obeys
one congruence per residue class of r:

    r = 0:   L(n) ==  2 (-1)^m                      (mod 2^(k-2))
    r = 1:   L(n) == (4m+1) (-1)^m                  (mod 2^(k-1))
    r = 2:   L(n) == (4m^2+6m+3) (-1)^m             (mod 2^k)
    r >= 3:  L(n) == (-1)^m 2^(r-2) Q(m, r)         (mod 2^(k+r-2))

where Q(m, r) is the integer combination of binomials computed by
:func:`l_quantity`.  The table is written once, in
:func:`lucas_congruence_parts`, as sign * odd * 2^shift; when
shift < E that pins nu2(L(n)) = shift.  :func:`disc_match` compares it
with |disc| = (2^(k+1) k^k - (k+1)^(k+1)) / (k-1)^2.  The campaigns
and the lemma suites read both.

Valuations use the convention nu2(0) = infinity (``math.inf``).
"""

from __future__ import annotations

import math

from .sequences import binom_ext

__all__ = [
    "nu2",
    "kummer_nu2_binomial",
    "l_quantity",
    "l_quantity_factored",
    "l_quantity_nu2",
    "lucas_congruence_parts",
    "lucas_congruence",
    "disc_match",
    "residue_decomposition",
    "disc_nu2",
]


def nu2(x: int) -> int | float:
    """Exponent of 2 in x; ``math.inf`` for x = 0."""
    if x == 0:
        return math.inf
    return (x & -x).bit_length() - 1


def kummer_nu2_binomial(n: int, m: int) -> int:
    """nu2(binom(n, m)) as the number of carries adding m and n-m in base 2.

    In base 2 the carry count collapses to popcounts:
    s(m) + s(n-m) - s(n) where s is the binary digit sum.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n, got n=%d m=%d" % (n, m))
    return m.bit_count() + (n - m).bit_count() - n.bit_count()


def l_quantity(m: int, r: int) -> int:
    """The binomial combination driving the r >= 3 congruence.

    Q(m, r) = 4*(binom(m+r+1, m) - binom(m+r-1, m-2))
                - (binom(m+r, m) - binom(m+r-2, m-2))

    with the extended convention that binomials with negative or
    undersized arguments vanish.  Exact integer arithmetic; this is the
    definition the factored forms below are checked against.
    """
    if m < 0 or r < 0:
        raise ValueError("need m >= 0 and r >= 0, got m=%d r=%d" % (m, r))
    return 4 * (binom_ext(m + r + 1, m) - binom_ext(m + r - 1, m - 2)) - (
        binom_ext(m + r, m) - binom_ext(m + r - 2, m - 2)
    )


def _factored_parts(m: int, r: int) -> tuple[int, int]:
    """(poly, den) with Q(m, r) = binom(m+r-2, m-2) * poly / den, m >= 2."""
    if m < 2:
        raise ValueError("factored form requires m >= 2, got m=%d" % (m,))
    if r < 0:
        raise ValueError("need r >= 0, got r=%d" % (r,))
    poly = (
        3 * r**3 + 10 * m * r**2 + 8 * m**2 * r + 2 * m * r - 3 * r + 8 * m**2 - 8 * m
    )
    return poly, m * (m - 1) * (r + 1)


def l_quantity_factored(m: int, r: int) -> int:
    """Single-binomial form of :func:`l_quantity`, valid for m >= 2.

    Q(m, r) = binom(m+r-2, m-2) / (m (m-1) (r+1)) *
              (3 r^3 + 10 m r^2 + 8 m^2 r + 2 m r - 3 r + 8 m^2 - 8 m)

    The division is exact; an inexact division raises.  One binomial
    instead of four, so the r >= 3 campaign takes Q from here.
    """
    poly, den = _factored_parts(m, r)
    q, rem = divmod(binom_ext(m + r - 2, m - 2) * poly, den)
    if rem:
        raise AssertionError("factored form not integral at m=%d r=%d" % (m, r))
    return q


def l_quantity_nu2(m: int, r: int) -> int:
    """nu2(Q(m, r)) for m >= 2, without forming Q.

    From the factored form, nu2(Q) = nu2(binom(m+r-2, m-2)) + nu2(poly)
    - nu2(m (m-1) (r+1)), with the binomial's valuation counted by
    Kummer's theorem.  Q > 0 for m >= 2 (poly and the binomial are
    positive), so the valuation is always finite.
    """
    poly, den = _factored_parts(m, r)
    return kummer_nu2_binomial(m + r - 2, m - 2) + nu2(poly) - nu2(den)


def _canonical(raw: int, exponent: int) -> int:
    """Representative of raw mod 2^exponent in [-2^(E-1), 2^(E-1))."""
    if exponent <= 0:
        return 0
    half = 1 << (exponent - 1)
    return ((raw + half) & ((half << 1) - 1)) - half


def lucas_congruence_parts(k: int, m: int, r: int) -> tuple[int, int, int, int]:
    """``(sign, odd, shift, E)`` with L(r + m(k+1)) == sign * odd * 2^shift (mod 2^E).

    sign = (-1)^m and ``odd`` is odd.  For r >= 3, Q(m, r) comes from the
    single-binomial form when m >= 2; Q is never 0 for m >= 0, r >= 3.
    """
    if k < 2:
        raise ValueError("need k >= 2, got k=%d" % (k,))
    if m < 0:
        raise ValueError("need m >= 0, got m=%d" % (m,))
    if not 0 <= r <= k:
        raise ValueError("need 0 <= r <= k, got r=%d k=%d" % (r, k))
    sign = -1 if m % 2 else 1
    if r == 0:
        return sign, 1, 1, k - 2
    if r == 1:
        return sign, 4 * m + 1, 0, k - 1
    if r == 2:
        return sign, 4 * m * m + 6 * m + 3, 0, k
    q = l_quantity_factored(m, r) if m >= 2 else l_quantity(m, r)
    a = nu2(q)
    return sign, q >> a, r - 2 + a, k + r - 2


def lucas_congruence(k: int, m: int, r: int) -> tuple[int, int]:
    """Predicted residue of L(r + m(k+1)) and its modulus exponent E.

    Returns ``(residue, E)`` meaning L(n) == residue (mod 2^E) for
    n = r + m(k+1), read from :func:`lucas_congruence_parts`.  The
    residue is the signed representative in [-2^(E-1), 2^(E-1)); at
    k = 2, r = 0 the modulus is 2^0 and the congruence is vacuous,
    returned as (0, 0).
    """
    sign, odd, shift, exponent = lucas_congruence_parts(k, m, r)
    return _canonical(sign * odd << shift, exponent), exponent


def _scaled_disc_residue(k: int, s: int, e: int) -> int:
    """((k-1)^2 |disc(k)|) >> s modulo 2^e, for 0 <= s <= k+1 and e >= 0.

    (k-1)^2 |disc| = 2^(k+1) k^k - (k+1)^(k+1).  For odd k, 2^(k+1)
    comes out of both terms first, so the modulus stays 2^(e - (k+1-s))
    however large s is.  For even k the numerator is reduced mod 2^(e+s).
    """
    if k % 2:
        t = k + 1 - s
        if e <= t:
            return 0
        mod = 1 << (e - t)
        return (pow(k, k, mod) - pow((k + 1) >> 1, k + 1, mod)) % mod << t
    mod = 1 << (e + s)
    return ((pow(k, k, mod) << (k + 1)) - pow(k + 1, k + 1, mod)) % mod >> s


def disc_match(k: int, r: int, parts: tuple[int, int, int, int], bits: int) -> tuple[bool, bool]:
    """Whether L(n) == +|disc(k)| and L(n) == -|disc(k)| pass the congruence.

    ``parts`` is :func:`lucas_congruence_parts` for n = r + m(k+1).  Both
    sides are multiplied by (k-1)^2 and divided by 2^s, s = max(r-2, 0),
    which divides the Lucas side: (k-1)^2 sign odd 2^(shift-s) is compared
    with ((k-1)^2 |disc|) >> s modulo 2^min(bits, E - s).
    """
    sign, odd, shift, exponent = parts
    s = max(r - 2, 0)
    e = min(bits, exponent - s)
    if e <= 0:
        return True, True
    mask = (1 << e) - 1
    lhs = (k - 1) * (k - 1) * sign * odd << (shift - s)
    rhs = _scaled_disc_residue(k, s, e)
    return (lhs - rhs) & mask == 0, (lhs + rhs) & mask == 0


def residue_decomposition(n: int, k: int) -> tuple[int, int]:
    """Split n >= 0 as n = r + m(k+1) with 0 <= r <= k; returns (m, r)."""
    if n < 0:
        raise ValueError("need n >= 0, got n=%d" % (n,))
    if k < 2:
        raise ValueError("need k >= 2, got k=%d" % (k,))
    m, r = divmod(n, k + 1)
    return m, r


def disc_nu2(k: int) -> int:
    """nu2 of the absolute discriminant of x^k - x^(k-1) - ... - 1.

    Zero for even k; k - 1 for odd k.  Cross-checked against the exact
    big-integer discriminant in the test suite.
    """
    if k < 2:
        raise ValueError("need k >= 2, got k=%d" % (k,))
    return 0 if k % 2 == 0 else k - 1
