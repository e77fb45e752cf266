"""Sequence module tests against an independent naive-recurrence oracle."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucasdisc import sequences
from lucasdisc.sequences import (
    _POWER_MAX_K,
    _POWER_MIN_N,
    FIBONACCI,
    LUCAS,
    SeqParams,
    _closed_form,
    _power_form,
    _power_min_n,
    binom_ext,
    term,
    term_iter,
)


def naive_sequence(k, family, n_hi):
    """Dict n -> term built with a plain list loop, nothing shared."""
    values = {}
    for n in range(2 - k, 2):
        if family == FIBONACCI:
            values[n] = 1 if n == 1 else 0
        else:
            values[n] = {0: 2, 1: 1}.get(n, 0)
    for n in range(2, n_hi + 1):
        values[n] = sum(values[n - j] for j in range(1, k + 1))
    return values


# Hand-checked anchor values (recomputed by the oracle as well).
FROZEN = [
    (LUCAS, 2, 5, 11),
    (LUCAS, 3, 4, 10),
    (LUCAS, 10, 7, 96),
    (LUCAS, 5, 9, 352),
    (FIBONACCI, 2, 10, 55),
    (FIBONACCI, 3, 12, 504),
]


@pytest.mark.parametrize("family,k,n,expected", FROZEN)
def test_frozen_terms(family, k, n, expected):
    assert term(SeqParams(k=k, family=family), n) == expected
    assert naive_sequence(k, family, n)[n] == expected


@pytest.mark.parametrize("family", [FIBONACCI, LUCAS])
@pytest.mark.parametrize("k", range(2, 13))
def test_term_matches_naive_oracle(family, k):
    params = SeqParams(k=k, family=family)
    oracle = naive_sequence(k, family, 60)
    for n in range(2 - k, 61):
        assert term(params, n) == oracle[n]


def walked(params, n):
    """The n-th term by the walk, the oracle for the closed-form ``term``."""
    return next(term_iter(params, n))[1]


@pytest.mark.parametrize("family", [FIBONACCI, LUCAS])
def test_term_iter_agrees_with_term(family):
    # Every n from 2 - k to 600 on both sides of the closed-form switch at
    # k = 8; n stays below _POWER_MIN_N, so no power form is taken here.
    for k in range(2, 71):
        params = SeqParams(k=k, family=family)
        for n, value in term_iter(params, params.min_index):
            if n > 600:
                break
            assert term(params, n) == value, (k, n)


@pytest.mark.parametrize("family", [FIBONACCI, LUCAS])
@pytest.mark.parametrize("k", [2, 7, 8, 9, 12, 13, 16, 17, 46, 60])
def test_term_equals_walk_at_n_50000(family, k):
    params = SeqParams(k=k, family=family)
    assert term(params, 50_000) == walked(params, 50_000)


@pytest.mark.parametrize("family", [FIBONACCI, LUCAS])
@pytest.mark.parametrize("k", [8, 9, 15, 31])
def test_closed_form_binomials_switch_at_j_plus_1_equals_k(family, k, monkeypatch):
    # The sum runs to J = n // (k+1).  Step j' = 1..J takes C(N, j') from
    # math.comb while j' <= k and from the two-perm step after that, so n
    # from k(k+1) - 1 to (k+1)^2 + 1 crosses the switch.  The walk is the
    # oracle for each value; the call counts pin where the switch sits.
    params = SeqParams(k=k, family=family)
    comb, perm, calls = math.comb, math.perm, []
    monkeypatch.setattr(math, "comb", lambda *a: calls.append("comb") or comb(*a))
    monkeypatch.setattr(math, "perm", lambda *a: calls.append("perm") or perm(*a))
    n_lo, n_hi = k * (k + 1) - 1, (k + 1) ** 2 + 1
    for n, value in term_iter(params, n_lo):
        if n > n_hi:
            break
        calls.clear()
        assert _closed_form(params, n) == value, n
        last = n // (k + 1)
        assert calls.count("comb") == min(last, k), n
        assert calls.count("perm") == 2 * max(0, last - k), n


@pytest.mark.parametrize("family", [FIBONACCI, LUCAS])
@pytest.mark.parametrize("k", range(2, _POWER_MAX_K + 2))
def test_power_form_equals_walk_around_the_switch(family, k):
    params = SeqParams(k=k, family=family)
    for n, value in term_iter(params, _power_min_n(k) - 64):
        if n > _power_min_n(k) + 64:
            break
        assert _power_form(params, n) == value, n


@pytest.mark.parametrize("family", [FIBONACCI, LUCAS])
@pytest.mark.parametrize("k", range(2, _POWER_MAX_K + 2))
def test_power_form_equals_walk_at_small_n(family, k):
    # n = 2..300 covers both parities of e = n + k - 2 and h = e // 2 = 1,
    # where the squaring loop does not run and c is x itself.
    params = SeqParams(k=k, family=family)
    for n, value in term_iter(params, 2):
        if n > 300:
            break
        assert _power_form(params, n) == value, n


def test_power_form_rejects_a_negative_coefficient(monkeypatch):
    # h = 501 ends on a 1-bit, so x^h mod P comes out of a multiply by x;
    # a sign flipped there must raise instead of returning a wrong term.
    times_x = sequences._times_x
    monkeypatch.setattr(sequences, "_times_x", lambda c: [-ci for ci in times_x(c)])
    with pytest.raises(AssertionError, match="negative coefficient"):
        _power_form(SeqParams(k=2, family=LUCAS), 1_002)


PRIMES = (1_000_000_007, 998_244_353)


@pytest.mark.parametrize("k", [2, 3, 12, _POWER_MAX_K])
def test_power_form_matches_a_walk_modulo_two_primes(k):
    # L(n) for n = 10^5 and 2*10^5, against the recurrence walked modulo
    # each prime: a walk that shares nothing with the module.
    params = SeqParams(k=k, family=LUCAS)
    checks = {n: _power_form(params, n) for n in (100_000, 200_000)}
    for prime in PRIMES:
        window = [0] * (k - 2) + [2, 1]  # L(2-k) .. L(1)
        total = sum(window) % prime
        for n in range(2, max(checks) + 1):
            new = total
            total = (2 * total - window[(n - 2) % k]) % prime
            window[(n - 2) % k] = new
            if n in checks:
                assert checks[n] % prime == new, (prime, n)


@given(
    st.sampled_from([FIBONACCI, LUCAS]),
    st.integers(min_value=2, max_value=_POWER_MAX_K),
    st.integers(min_value=2, max_value=20_000),
)
@settings(max_examples=60, deadline=None)
def test_power_form_equals_walk_property(family, k, n):
    params = SeqParams(k=k, family=family)
    assert _power_form(params, n) == walked(params, n)


@pytest.mark.parametrize(
    "k,n,path",
    [
        (2, _POWER_MIN_N - 1, "walk"),
        (2, _POWER_MIN_N, "power"),
        (12, 12**3 - 1, "closed"),
        (12, 12**3, "power"),
        (13, 13**3 - 1, "closed"),
        (13, 13**3, "power"),
        (_POWER_MAX_K, _POWER_MAX_K**3 - 1, "closed"),
        (_POWER_MAX_K, _POWER_MAX_K**3, "power"),
        (_POWER_MAX_K + 1, (_POWER_MAX_K + 1) ** 3, "closed"),
    ],
)
def test_term_takes_the_power_form_at_small_k_and_large_n(k, n, path, monkeypatch):
    # term() dispatches on (k, n): the power form from n = max(1,000, k^3)
    # up to k = 16.  The walk is the oracle for each value, and the call
    # counts pin which path each side of the switch takes.
    params = SeqParams(k=k, family=LUCAS)
    expected = walked(params, n)
    calls = []
    for name, label in (("_power_form", "power"), ("_closed_form", "closed"), ("term_iter", "walk")):
        real = getattr(sequences, name)
        monkeypatch.setattr(sequences, name, lambda *a, real=real, label=label: calls.append(label) or real(*a))
    assert term(params, n) == expected
    assert calls == [path]


@given(
    st.sampled_from([FIBONACCI, LUCAS]),
    st.integers(min_value=2, max_value=120).flatmap(
        lambda k: st.tuples(st.just(k), st.integers(min_value=2 - k, max_value=3000))
    ),
)
@settings(max_examples=150, deadline=None)
def test_term_equals_walk_property(family, k_n):
    k, n = k_n
    params = SeqParams(k=k, family=family)
    assert term(params, n) == walked(params, n)


@pytest.mark.parametrize("family", [LUCAS, FIBONACCI])
@pytest.mark.parametrize("k", range(2, 41))
def test_term_iter_first_window(family, k):
    # The walk's first window is the initial values, then the recurrence.
    params = SeqParams(k, family)
    it = term_iter(params, 2 - k)
    values = [next(it)[1] for _ in range(k + 2)]
    assert values[:k] == [0] * (k - 2) + ([2, 1] if family == LUCAS else [0, 1])
    assert values[k:] == [sum(values[:k]), sum(values[1 : k + 1])]


def test_term_iter_start_offsets():
    params = SeqParams(k=3, family=LUCAS)
    walked = list(zip(range(4), (v for _, v in term_iter(params, 0))))
    assert walked == [(0, 2), (1, 1), (2, 3), (3, 6)]
    n, value = next(term_iter(params, 7))
    assert (n, value) == (7, term(params, 7))


@pytest.mark.parametrize("k", range(2, 61))
def test_cooper_howard_closed_form(k):
    # The signed-binomial (generating-function) sum against the walk, also
    # below k = 8, where term() does not take it.
    for family in (FIBONACCI, LUCAS):
        params = SeqParams(k=k, family=family)
        for n, value in term_iter(params, 2):
            if n >= 80:
                break
            assert _closed_form(params, n) == term(params, n) == value, (family, n)


def test_lucas_from_fib_bridge():
    # L(n) = 2 F(n+1) - F(n) for every n >= 2 - k.
    assert term(SeqParams(2, LUCAS), 4) == 7
    assert term(SeqParams(3, LUCAS), 1) == 1
    for k in range(2, 10):
        fib, lucas = SeqParams(k=k, family=FIBONACCI), SeqParams(k=k, family=LUCAS)
        for n in range(2 - k, 50):
            assert 2 * term(fib, n + 1) - term(fib, n) == term(lucas, n), (k, n)


@pytest.mark.parametrize("k", range(2, 12))
def test_doubling_shift_identity(k):
    # L(n) = 2 L(n-1) - L(n-k-1) once n - k - 1 >= 2 - k, that is n >= 3.
    params = SeqParams(k=k, family=LUCAS)
    for n in range(3, 60):
        assert term(params, n) == 2 * term(params, n - 1) - term(params, n - k - 1), n


@pytest.mark.parametrize("k", range(2, 20))
def test_head_terms_are_power_multiples(k):
    params = SeqParams(k=k, family=LUCAS)
    for n in range(2, k + 1):
        assert term(params, n) == 3 * 2 ** (n - 2)
    assert term(params, k + 1) == 3 * 2 ** (k - 1) - 2


@pytest.mark.parametrize("k", range(2, 10))
def test_parity_period_is_k_plus_1(k):
    params = SeqParams(k=k, family=LUCAS)
    values = [term(params, n) for n in range(0, 5 * (k + 1))]
    for n in range(len(values) - (k + 1)):
        assert (values[n] - values[n + k + 1]) % 2 == 0


def test_binom_ext_edges():
    assert binom_ext(5, 2) == 10
    assert binom_ext(3, -1) == 0
    assert binom_ext(-2, 0) == 0
    assert binom_ext(2, 5) == 0


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=2, max_value=150))
@settings(max_examples=60, deadline=None)
def test_recurrence_property(k, n):
    params = SeqParams(k=k, family=LUCAS)
    assert term(params, n) == sum(term(params, n - j) for j in range(1, k + 1))


@given(st.integers(min_value=2, max_value=14), st.integers(min_value=0, max_value=120))
@settings(max_examples=60, deadline=None)
def test_bridge_property(k, n):
    fib = SeqParams(k=k, family=FIBONACCI)
    lucas = SeqParams(k=k, family=LUCAS)
    assert 2 * term(fib, n + 1) - term(fib, n) == term(lucas, n)


def test_domain_errors():
    with pytest.raises(ValueError):
        SeqParams(k=1, family=LUCAS)
    with pytest.raises(ValueError):
        SeqParams(k=5, family="pell")
    with pytest.raises(ValueError):
        term(SeqParams(k=5, family=LUCAS), -10)
    with pytest.raises(ValueError, match="start index -4 below domain minimum -3"):
        next(term_iter(SeqParams(k=5, family=LUCAS), -4))
    with pytest.raises(ValueError, match="index -4 below domain minimum -2"):
        term(SeqParams(k=4, family=LUCAS), 1 - (4 + 1))  # L(n-k-1) of the shift identity at n = 1
