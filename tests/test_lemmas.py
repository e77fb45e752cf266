"""The self-check suites should all pass, and reject bad suite names/scales."""

import pytest

from lucasdisc import lemmas, roots, sequences
from lucasdisc.bounds import window_integers
from lucasdisc.roots import binet_error_check
from lucasdisc.lemmas import SUITES, run_suite
from lucasdisc.sequences import LUCAS, SeqParams, term


def test_all_suites_pass_at_scale_1():
    assert {name: run_suite(name, 1) for name in SUITES} == {name: [] for name in SUITES}


def test_recurrence_suite_catches_a_faulty_power_form(monkeypatch):
    # The suite's walk stays below the power form's first n; its check at
    # that n, at k = 2 and the largest k, is the only one that reaches it.
    # At scale 1 that is k = 8 at n = 1,000; at scale 3, k = 16 at n = 4,096.
    power_form = sequences._power_form
    monkeypatch.setattr(sequences, "_power_form", lambda params, n: power_form(params, n) + 1)
    for scale, k_hi, n_hi in ((1, 8, 1_000), (3, 16, 4_096)):
        failures = run_suite("recurrence", scale)
        expected = [(family, k, n) for family in (sequences.FIBONACCI, sequences.LUCAS)
                    for k, n in ((2, 1_000), (k_hi, n_hi))]
        assert sorted((f.params["family"], f.params["k"], f.params["n"]) for f in failures) == sorted(expected), scale


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_individually(name):
    assert run_suite(name, 1) == []


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("no-such-suite", 1)


def test_bad_scale_rejected():
    with pytest.raises(ValueError):
        run_suite("recurrence", 0)


@pytest.fixture
def cold_root_cache():
    """An empty ``dominant_root`` cache, emptied again so no later test sees what this one cached."""
    roots.dominant_root.cache_clear()
    yield
    roots.dominant_root.cache_clear()


def test_root_enclosure_suite_catches_a_faulty_gk_sign(monkeypatch, cold_root_cache):
    # Deciding each sign one unit to the right shifts every enclosure one unit left.
    gap_sign = roots._gap_sign
    monkeypatch.setattr(roots, "_gap_sign", lambda k, p, q, w: gap_sign(k, p + 1, q, w))
    failures = run_suite("root_enclosure", 1)
    assert any(f.detail == "no sign change across enclosure" for f in failures)


def test_root_enclosure_suite_catches_power_bounds_inside_the_true_ones(monkeypatch):
    # Two bases swapped: lo bounds (p+1)^n and hi bounds p^n, so each end of D's
    # enclosure lies inside the true one; only the L(200) +- 2 refutations see it.
    pow_bounds = roots._pow_bounds
    monkeypatch.setattr(
        roots, "_pow_bounds", lambda x, n, w, y=None: pow_bounds(x, n, w) if y is None else pow_bounds(y, n, w, x)
    )
    failures = run_suite("root_enclosure", 1)
    assert {(f.detail, f.params["k"], f.params["n"]) for f in failures} == {
        ("dominant-term error accepts L(n) +- 2", k, 200) for k in (2, 12)
    }


def test_root_enclosure_suite_asks_for_the_roots_the_checks_cached(cold_root_cache):
    # The suite's own enclosures are the 128-bit ones the checks use; only the
    # L(200) +- 2 refutations at k = 2 and 12 escalate, to 256 bits.
    for k in range(2, 13):
        binet_error_check(k, 5)
    misses = roots.dominant_root.cache_info().misses
    assert run_suite("root_enclosure", 1) == []
    assert roots.dominant_root.cache_info().misses == misses + 2
    for k in (2, 12):
        roots.dominant_root(k, 256)
    assert roots.dominant_root.cache_info().misses == misses + 2


def test_doubling_shift_suite_makes_no_term_call(monkeypatch):
    calls = []
    monkeypatch.setattr(lemmas, "term", lambda params, n: calls.append(n) or term(params, n))
    for scale in (1, 3):
        assert run_suite("doubling_shift", scale) == []
    assert calls == []


def _shift_one_cell(parts):
    """``lucas_congruence_parts`` with its shift one too large at (k, r) = (7, 4)."""

    def faulty(k, m, r):
        sign, odd, shift, exponent = parts(k, m, r)
        return sign, odd, shift + ((k, r) == (7, 4)), exponent

    return faulty


def _disc_in_window(discriminant):
    """``discriminant`` replaced at k = 202 by the term at its second window integer."""
    return lambda k: term(SeqParams(k, LUCAS), window_integers(k)[1]) if k == 202 else discriminant(k)


# (suite, name in lemmas, fault built from the original, failure detail expected)
FAULTS = [
    ("recurrence", "term", lambda term: lambda p, n: term(p, n) + (n == 7), "term() disagrees with term_iter()"),
    (
        "doubling_shift",
        "term_iter",
        lambda walk: lambda p, n0=0: ((n, v + (n == 9)) for n, v in walk(p, n0)),
        "L(n) != 2L(n-1) - L(n-k-1)",
    ),
    ("closed_form", "_closed_form", lambda form: lambda p, n: form(p, n) + (n == 7), "generating-function sum mismatch"),
    (
        "parity_period",
        "term_iter",
        lambda walk: lambda p, n0=0: ((n, v + (n == 9)) for n, v in walk(p, n0)),
        "parity not (k+1)-periodic",
    ),
    ("congruence_table", "lucas_congruence_parts", _shift_one_cell, "L(n) != residue mod 2^E"),
    ("valuation_law", "lucas_congruence_parts", _shift_one_cell, "nu2(L(n)) != pinned shift"),
    (
        "quantity_factorization",
        "l_quantity",
        lambda q: lambda m, r: q(m, r) + ((m, r) == (3, 5)),
        "one-binomial form mismatch",
    ),
    (
        "window_brackets",
        "window_integers",
        lambda window: lambda k: [n + 3 for n in window(k)],
        "term below window floor >= |disc|",
    ),
    ("window_brackets", "discriminant", _disc_in_window, "term in window equals |disc|"),
    ("small_k_cross_validation", "lucas_congruence_parts", _shift_one_cell, "congruence violated"),
]


@pytest.mark.parametrize("suite,name,fault,detail", FAULTS, ids=["%s-%s" % (f[0], f[1]) for f in FAULTS])
def test_each_suite_reports_a_planted_fault(monkeypatch, suite, name, fault, detail):
    monkeypatch.setattr(lemmas, name, fault(getattr(lemmas, name)))
    failures = run_suite(suite, 1)
    assert failures
    assert {f.suite for f in failures} == {suite}
    assert detail in {f.detail for f in failures}
