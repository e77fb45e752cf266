"""Sequence module tests against an independent naive-recurrence oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucasdisc.sequences import (
    FIBONACCI,
    LUCAS,
    SeqParams,
    binom_ext,
    cooper_howard_fib,
    lucas_from_fib,
    shift_identity_check,
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


@pytest.mark.parametrize("family", [FIBONACCI, LUCAS])
def test_term_iter_agrees_with_term(family):
    params = SeqParams(k=5, family=family)
    for n, value in term_iter(params, params.min_index):
        if n > 40:
            break
        assert value == term(params, n)


def test_term_iter_start_offsets():
    params = SeqParams(k=3, family=LUCAS)
    walked = list(zip(range(4), (v for _, v in term_iter(params, 0))))
    assert walked == [(0, 2), (1, 1), (2, 3), (3, 6)]
    n, value = next(term_iter(params, 7))
    assert (n, value) == (7, term(params, 7))


@pytest.mark.parametrize("k", range(2, 11))
def test_cooper_howard_closed_form(k):
    params = SeqParams(k=k, family=FIBONACCI)
    for n in range(0, 80):
        assert cooper_howard_fib(k, n) == term(params, n)


def test_lucas_from_fib_bridge():
    assert lucas_from_fib(2, 4) == 7
    assert lucas_from_fib(3, 1) == 1
    for k in range(2, 10):
        params = SeqParams(k=k, family=LUCAS)
        for n in range(0, 50):
            assert lucas_from_fib(k, n) == term(params, n)


@pytest.mark.parametrize("k", range(2, 12))
def test_doubling_shift_identity(k):
    for n in range(max(3, 2 - k + k + 1), 60):
        if n - (k + 1) >= 2 - k:
            assert shift_identity_check(k, n)


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
    with pytest.raises(ValueError):
        shift_identity_check(4, 1)
