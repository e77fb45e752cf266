"""The self-check suites should all pass, and reject bad suite names/scales."""

import pytest

from lucasdisc import roots
from lucasdisc.lemmas import SUITES, run_all, run_suite


def test_all_suites_pass_at_scale_1():
    failures = run_all(1)
    assert sorted(failures) == sorted(SUITES)
    assert all(fails == [] for fails in failures.values())


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
