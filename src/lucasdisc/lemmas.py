"""Named invariant suites tying the library's pieces to each other.

Each suite re-derives one structural fact about the k-generalized
sequences, their dominant roots, the 2-adic congruences, or the
discriminant, and checks the implementation against it on a small
configurable grid.  A clean run returns no ``Failure`` records; the
``verify-lemmas`` CLI subcommand prints one pass/fail line per suite.

The grids scale with a single ``scale`` knob (1 = quick smoke; larger
values widen every range except ``small_k_cross_validation``'s fixed one).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import takewhile

from .sequences import (
    FIBONACCI,
    LUCAS,
    SeqParams,
    _closed_form,
    _power_min_n,
    binom_ext,
    term,
    term_iter,
)
from .twoadic import (
    l_quantity,
    l_quantity_nu2,
    lucas_congruence_parts,
    nu2,
    disc_nu2,
)
from .roots import (
    _binet_error_decision,
    _escalate,
    binet_error_check,
    binet_vs_power2_check,
    dominant_root,
    growth_bounds_check,
)
from .bounds import discriminant, window_integers

__all__ = ["Failure", "SUITES", "run_suite"]


@dataclass(frozen=True)
class Failure:
    suite: str
    params: dict = field(default_factory=dict)
    detail: str = ""


def _fail(suite: str, detail: str, **params) -> Failure:
    return Failure(suite=suite, params=params, detail=detail)


def _walk(params: SeqParams, n_hi: int) -> dict[int, int]:
    """{n: a(n)} for 2 - k <= n <= n_hi, from one ``term_iter`` walk."""
    return dict(takewhile(lambda item: item[0] <= n_hi, term_iter(params, params.min_index)))


def check_recurrence(scale: int = 1) -> list[Failure]:
    """Every term equals the sum of its k predecessors (both families).

    Each walked term, n <= 30 scale, is also compared with ``term()``:
    for k >= 8 that is the generating-function sum, so the comparison
    checks two independent computations; below 8 it is the same walk.
    At k = 2 and the largest k, ``term()`` at the first n of the power
    form (``sequences._power_min_n``) is compared with the walk too: for
    k <= 16, that is up to scale 3, it takes the power form there.
    """
    out = []
    k_hi = 4 + 4 * scale
    n_hi = 30 * scale
    for family in (FIBONACCI, LUCAS):
        for k in range(2, k_hi + 1):
            params = SeqParams(k=k, family=family)
            seq = _walk(params, n_hi)
            for n, value in seq.items():
                if n >= 2 and value != sum(seq[n - j] for j in range(1, k + 1)):
                    out.append(
                        _fail("recurrence", "term != sum of k predecessors", k=k, n=n, family=family)
                    )
                if value != term(params, n):
                    out.append(_fail("recurrence", "term() disagrees with term_iter()", k=k, n=n, family=family))
            n = _power_min_n(k)
            if k in (2, k_hi) and term(params, n) != next(term_iter(params, n))[1]:
                out.append(_fail("recurrence", "term() disagrees with term_iter()", k=k, n=n, family=family))
    return out


def check_doubling_and_bridges(scale: int = 1) -> list[Failure]:
    """Doubling shift, Lucas-from-Fibonacci bridge and power-of-two head, on one walk per family and k."""
    out = []
    k_hi = 4 + 4 * scale
    n_hi = 25 * scale
    for k in range(2, k_hi + 1):
        lucas, fib = (_walk(SeqParams(k, family), n_hi + 1) for family in (LUCAS, FIBONACCI))
        for n in range(3, n_hi + 1):
            if lucas[n] != 2 * lucas[n - 1] - lucas[n - k - 1]:
                out.append(_fail("doubling_shift", "L(n) != 2L(n-1) - L(n-k-1)", k=k, n=n))
        for n in range(0, n_hi + 1):
            if 2 * fib[n + 1] - fib[n] != lucas[n]:
                out.append(_fail("doubling_shift", "2F(n+1) - F(n) != L(n)", k=k, n=n))
        for n in range(2, k + 1):
            if lucas[n] != 3 * (1 << (n - 2)):
                out.append(_fail("doubling_shift", "head term != 3*2^(n-2)", k=k, n=n))
        if lucas[k + 1] != 3 * (1 << (k - 1)) - 2:
            out.append(_fail("doubling_shift", "L(k+1) != 3*2^(k-1) - 2", k=k, n=k + 1))
    return out


def check_closed_form(scale: int = 1) -> list[Failure]:
    """The generating-function sum reproduces the walk (both families, from k = 2).

    ``term()`` takes the sum only from k = 8 on, and for k <= 16 only
    below n = max(1,000, k^3), so it is called directly.
    """
    out = []
    k_hi = 4 + 4 * scale
    n_hi = 40 * scale
    for family in (FIBONACCI, LUCAS):
        for k in range(2, k_hi + 1):
            params = SeqParams(k=k, family=family)
            for n, value in term_iter(params, 2):
                if n > n_hi:
                    break
                if _closed_form(params, n) != value:
                    out.append(
                        _fail("closed_form", "generating-function sum mismatch", k=k, n=n, family=family)
                    )
    return out


def check_parity_period(scale: int = 1) -> list[Failure]:
    """Lucas parity is periodic with period k + 1."""
    out = []
    k_hi = 4 + 6 * scale
    periods = 4 * scale
    for k in range(2, k_hi + 1):
        limit = (periods + 1) * (k + 1)
        values = _walk(SeqParams(k=k, family=LUCAS), limit)
        for n in range(0, limit - (k + 1) + 1):
            if (values[n] - values[n + k + 1]) % 2:
                out.append(_fail("parity_period", "parity not (k+1)-periodic", k=k, n=n))
    return out


def check_congruence_table(scale: int = 1) -> list[Failure]:
    """Exact Lucas terms satisfy the residue-class congruences mod 2^E."""
    out = []
    k_hi = 8 + 4 * scale
    m_hi = 2 + 2 * scale
    for k in range(2, k_hi + 1):
        for n, value in term_iter(SeqParams(k=k, family=LUCAS), 0):
            m, r = divmod(n, k + 1)
            if m > m_hi:
                break
            sign, odd, shift, exponent = lucas_congruence_parts(k, m, r)
            if (value - (sign * odd << shift)) % (1 << exponent):
                out.append(_fail("congruence_table", "L(n) != residue mod 2^E", k=k, m=m, r=r, n=n))
    return out


def check_valuation_law(scale: int = 1) -> list[Failure]:
    """nu2(L(n)) == shift wherever lucas_congruence_parts pins it (shift < E)."""
    out = []
    k_hi = 8 + 4 * scale
    m_hi = 2 + 2 * scale
    for k in range(4, k_hi + 1):
        for n, value in term_iter(SeqParams(k=k, family=LUCAS), 0):
            m, r = divmod(n, k + 1)
            if m > m_hi:
                break
            _, _, shift, exponent = lucas_congruence_parts(k, m, r)
            if shift < exponent and nu2(value) != shift:
                out.append(_fail("valuation_law", "nu2(L(n)) != pinned shift", k=k, m=m, r=r))
    return out


def check_quantity_factorization(scale: int = 1) -> list[Failure]:
    """The congruence quantity and its valuation match the three-binomial B(m, r)."""
    out = []
    hi = 8 + 8 * scale
    for m in range(hi + 1):
        for r in range(hi + 1):
            b = 8 * binom_ext(m + r, m) - 6 * binom_ext(m + r - 1, m) + binom_ext(m + r - 2, m)
            if l_quantity(m, r) != b:
                out.append(_fail("quantity_factorization", "one-binomial form mismatch", m=m, r=r))
            if l_quantity_nu2(m, r) != nu2(b):
                out.append(_fail("quantity_factorization", "closed-form valuation mismatch", m=m, r=r))
    return out


def check_root_enclosures(scale: int = 1) -> list[Failure]:
    """Dominant-root enclosures bracket a sign change inside (2 - 2^(1-k), 2).

    At k = 2 and the largest k the Binet check must also refute L(200) +- 2, where a
    128-bit root spreads the dominant term over more than 1: it escalates to 256 bits,
    and a power bound lying inside the true one would accept.
    """
    out = []
    k_hi = 4 + 8 * scale
    for k in range(2, k_hi + 1):
        enc = dominant_root(k, 128)
        # x^k (x - 2) + 1 at x = p/q has the sign of p^k (p - 2q) + q^(k+1); no code shared with gk_sign.
        lo, hi = (x.numerator**k * (x.numerator - 2 * x.denominator) + x.denominator ** (k + 1)
                  for x in (enc.lo, enc.hi))
        if not (lo < 0 < hi):
            out.append(_fail("root_enclosure", "no sign change across enclosure", k=k))
        if not (2 - (2 ** (1 - k)) < enc.lo < enc.hi < 2):
            out.append(_fail("root_enclosure", "enclosure outside (2 - 2^(1-k), 2)", k=k))
        if enc.width() * (1 << enc.precision_bits) > 1:
            out.append(_fail("root_enclosure", "width above 2^-precision", k=k))
        for n in (2, 5, 9 + 2 * scale):
            if not growth_bounds_check(k, n):
                out.append(_fail("root_enclosure", "growth bounds fail", k=k, n=n))
            if not binet_error_check(k, n):
                out.append(_fail("root_enclosure", "dominant-term error above 3/2", k=k, n=n))
        if not binet_vs_power2_check(k, 0):
            out.append(_fail("root_enclosure", "power-of-two comparison fails", k=k, n=0))
        if k in (2, k_hi):
            value = term(SeqParams(k, LUCAS), 200)
            for d in (-2, 2):
                if _escalate(partial(_binet_error_decision, k, 200, value + d)) is not False:
                    out.append(_fail("root_enclosure", "dominant-term error accepts L(n) +- 2", k=k, n=200, d=d))
    return out


def check_window_brackets_crossing(scale: int = 1) -> list[Failure]:
    """L(n) crosses |disc| strictly inside the admissible n-window (201 <= k <= 200 + 3 scale).

    Exact terms (``term``) at the window's ends: the one just below is
    smaller than |disc|, the one just above exceeds it, and none inside
    equals it.  Terms increase from n = 2 on, so this decides every n at k.
    """
    out = []
    for k in range(201, 201 + 3 * scale):
        delta = discriminant(k)
        window = window_integers(k)
        params = SeqParams(k=k, family=LUCAS)
        if term(params, window[0] - 1) >= delta:
            out.append(_fail("window_brackets", "term below window floor >= |disc|", k=k, n=window[0] - 1))
        if term(params, window[-1] + 1) <= delta:
            out.append(_fail("window_brackets", "term above window ceiling <= |disc|", k=k, n=window[-1] + 1))
        for n in window:
            if term(params, n) == delta:
                out.append(_fail("window_brackets", "term in window equals |disc|", k=k, n=n))
    return out


def check_small_k_cross_validation(scale: int = 1) -> list[Failure]:
    """Exhaustive equality walk agrees with the congruence filters (5 <= k <= 16).

    Walks every Lucas term up to the |disc| crossing, asserts the
    congruence residue for its (m, r) class, and confirms the 2-adic
    valuation split: any actual equality would have to pass the filters,
    and no equality exists in this range.
    """
    del scale  # fixed range by design
    out = []
    for k in range(5, 17):
        delta = discriminant(k)
        params = SeqParams(k=k, family=LUCAS)
        for n, value in term_iter(params, 0):
            if n >= 2 and value > delta:
                break
            m, r = divmod(n, k + 1)
            sign, odd, shift, exponent = lucas_congruence_parts(k, m, r)
            if (value - (sign * odd << shift)) % (1 << exponent):
                out.append(_fail("small_k_cross_validation", "congruence violated", k=k, n=n))
            if value == delta:
                out.append(_fail("small_k_cross_validation", "unexpected equality with |disc|", k=k, n=n))
        if disc_nu2(k) != nu2(delta):
            out.append(_fail("small_k_cross_validation", "discriminant valuation mismatch", k=k))
    return out


SUITES = {
    "recurrence": check_recurrence,
    "doubling_shift": check_doubling_and_bridges,
    "closed_form": check_closed_form,
    "parity_period": check_parity_period,
    "congruence_table": check_congruence_table,
    "valuation_law": check_valuation_law,
    "quantity_factorization": check_quantity_factorization,
    "root_enclosure": check_root_enclosures,
    "window_brackets": check_window_brackets_crossing,
    "small_k_cross_validation": check_small_k_cross_validation,
}


def run_suite(name: str, scale: int = 1) -> list[Failure]:
    if name not in SUITES:
        raise ValueError("unknown suite %r; expected one of %s" % (name, sorted(SUITES)))
    if scale < 1:
        raise ValueError("need scale >= 1, got %d" % (scale,))
    return SUITES[name](scale)
