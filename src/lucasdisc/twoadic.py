"""2-adic valuations and power-of-two congruences for the Lucas-type family.

Writing n = m(k+1) + r with 0 <= r <= k, every Lucas-type term obeys

    L(n) == (-1)^m 2^(r-2) B(m, r)          (mod 2^(k+r-2)),
    B(m, r) = 8 C(m+r, m) - 6 C(m+r-1, m) + C(m+r-2, m),

with binomials that vanish for a negative top (:func:`l_quantity`).
Proof: the Lucas generating function (2 - 3x + x^2) / (1 - 2x + x^(k+1))
gives 4 L(n) = sum_j (-1)^j 2^(n - j(k+1)) [8 C(N, j) - 6 C(N-1, j)
+ C(N-2, j)] with N = n - jk, the sum ``sequences._closed_form`` takes.
No term has j > m, each term with j < m carries 2^(k+1+r), and the
j = m term is (-1)^m 2^r B(m, r).  So 4 L(n) == (-1)^m 2^r B(m, r)
modulo 2^(k+1+r); the stated modulus 2^(k+r-2) is one bit weaker than
that proves.  B(m, 0) = 8, B(m, 1) = 8m + 2 and B(m, 2) = 4m^2 + 6m + 3
make the factor 2^(r-2) integral for every r.

:func:`lucas_congruence_parts` writes the congruence as
sign * odd * 2^shift; when shift < E that pins nu2(L(n)) = shift.
:func:`disc_match` takes B itself and compares (-1)^m 2^(r-2) B with
|disc| = (2^(k+1) k^k - (k+1)^(k+1)) / (k-1)^2.  The lemma suites
read both, the campaigns :func:`disc_match`.  The r >= 3 campaign
carries B along one m's increasing r itself
(``campaigns.campaign_case3``), with :func:`l_quantity`'s bracket and
:func:`l_quantity_nu2`'s exponent regrouped over C(r+m-2, m-2) and
m(m-1).

Valuations use the convention nu2(0) = infinity (``math.inf``).
"""

from __future__ import annotations

import math

from .sequences import LUCAS, _bracket_ratio

__all__ = [
    "nu2",
    "l_quantity",
    "l_quantity_nu2",
    "lucas_congruence_parts",
    "disc_match",
    "disc_nu2",
]


def nu2(x: int) -> int | float:
    """Exponent of 2 in x; ``math.inf`` for x = 0."""
    if x == 0:
        return math.inf
    return (x & -x).bit_length() - 1


def l_quantity(m: int, r: int) -> int:
    """B(m, r) = 8 C(m+r, m) - 6 C(m+r-1, m) + C(m+r-2, m), for m, r >= 0.

    The j = m bracket of the generating-function sum at N = m + r: one
    binomial times (8m^2 + 10mr + 3r^2 - 8m - 3r) / ((m+r)(m+r-1)) when
    m + r >= 2, an exact division.  B > 0 everywhere.
    """
    if m < 0 or r < 0:
        raise ValueError("need m >= 0 and r >= 0, got m=%d r=%d" % (m, r))
    weight, den = _bracket_ratio(LUCAS, m + r, m)
    q, rem = divmod(math.comb(m + r, m) * weight, den)
    if rem:
        raise AssertionError("inexact bracket for m=%d r=%d" % (m, r))
    return q


def l_quantity_nu2(m: int, r: int) -> int:
    """nu2(B(m, r)) for m, r >= 0, without forming B.

    nu2(C(m+r, m)) by Kummer's theorem, s(m) + s(r) - s(m+r) with s the
    binary digit sum, plus nu2 of the bracket's positive weight minus nu2
    of its denominator, both from ``sequences._bracket_ratio``.
    """
    if m < 0 or r < 0:
        raise ValueError("need m >= 0 and r >= 0, got m=%d r=%d" % (m, r))
    weight, den = _bracket_ratio(LUCAS, m + r, m)
    # nu2(x) = (x & -x).bit_length() - 1; the two -1 cancel.
    return (
        m.bit_count() + r.bit_count() - (m + r).bit_count()
        + (weight & -weight).bit_length() - (den & -den).bit_length()
    )


def lucas_congruence_parts(k: int, m: int, r: int) -> tuple[int, int, int, int]:
    """``(sign, odd, shift, E)`` with L(r + m(k+1)) == sign * odd * 2^shift (mod 2^E).

    sign = (-1)^m, odd * 2^(shift - r + 2) = B(m, r) with ``odd`` odd,
    and E = k + r - 2: the module's one congruence, for every r.
    """
    if k < 2:
        raise ValueError("need k >= 2, got k=%d" % (k,))
    if not 0 <= r <= k:
        raise ValueError("need 0 <= r <= k, got r=%d k=%d" % (r, k))
    q = l_quantity(m, r)
    a = nu2(q)
    return -1 if m % 2 else 1, q >> a, r - 2 + a, k + r - 2


def _odd_disc_core(k: int, w: int) -> int:
    """(k^k - ((k+1)/2)^(k+1)) mod 2^w for odd k: (k-1)^2 |disc| / 2^(k+1).

    For w >= 3 the units mod 2^w have exponent 2^(w-2), so an odd base's
    exponent is taken modulo 2^(w-2).  When (k+1)/2 is even (k == 3 mod 4)
    and k + 1 >= w, the second power holds 2^(k+1) and vanishes mod 2^w,
    so only k^k is computed.
    """
    mod = 1 << w
    cut = (1 << w - 2) - 1 if w >= 3 else -1  # x & -1 == x: plain exponents
    half = (k + 1) >> 1
    if half & 1:
        second = pow(half, (k + 1) & cut, mod)
    else:
        second = 0 if k + 1 >= w else pow(half, k + 1, mod)
    return (pow(k, k & cut, mod) - second) % mod


def _scaled_disc_residue(k: int, s: int, e: int) -> int:
    """((k-1)^2 |disc(k)|) >> s modulo 2^e, for 0 <= s <= k+1 and e >= 0.

    (k-1)^2 |disc| = 2^(k+1) k^k - (k+1)^(k+1).  For odd k, 2^(k+1)
    comes out of both terms first, so the modulus stays 2^(e - (k+1-s))
    however large s is (:func:`_odd_disc_core`).  For even k the
    numerator is reduced mod 2^(e+s).
    """
    if k % 2:
        t = k + 1 - s
        if e <= t:
            return 0
        return _odd_disc_core(k, e - t) << t
    mod = 1 << (e + s)
    return ((pow(k, k, mod) << (k + 1)) - pow(k + 1, k + 1, mod)) % mod >> s


def disc_match(k: int, m: int, r: int, q: int, bits: int) -> tuple[bool, bool]:
    """Whether L(n) == +|disc(k)| and L(n) == -|disc(k)| pass the congruence.

    n = r + m(k+1) and q = B(m, r) (:func:`l_quantity`).  Both sides of
    L(n) == (-1)^m 2^(r-2) B (mod 2^(k+r-2)) are multiplied by (k-1)^2 and
    divided by 2^s, s = max(r-2, 0): (-1)^m (k-1)^2 (B >> (s+2-r)) is
    compared with ((k-1)^2 |disc|) >> s modulo 2^min(bits, k+r-2-s).  The
    shift is exact: it is 2 at r = 0 and 1 at r = 1, where nu2(B) is 3 and 1.
    At 0 bits both pass; negative ``bits`` raise ``ValueError``.
    """
    if bits < 0:
        raise ValueError("need bits >= 0, got %d" % (bits,))
    s = max(r - 2, 0)
    e = min(bits, k + r - 2 - s)
    mask = (1 << e) - 1
    lhs = (k - 1) * (k - 1) * (q >> s + 2 - r)
    if m % 2:
        lhs = -lhs
    rhs = _scaled_disc_residue(k, s, e)
    return (lhs - rhs) & mask == 0, (lhs + rhs) & mask == 0


def disc_nu2(k: int) -> int:
    """nu2 of the absolute discriminant of x^k - x^(k-1) - ... - 1.

    Zero for even k; k - 1 for odd k.  Cross-checked against the exact
    big-integer discriminant in the test suite.
    """
    if k < 2:
        raise ValueError("need k >= 2, got k=%d" % (k,))
    return 0 if k % 2 == 0 else k - 1
