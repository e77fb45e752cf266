"""Shared fixtures: the expensive full-range campaign runs happen once."""

import math
from typing import NamedTuple

import pytest

from lucasdisc import campaigns, twoadic
from lucasdisc.bounds import window_integers
from lucasdisc.campaigns import CampaignReport, campaign_case12, campaign_case3, campaign_small


@pytest.fixture(scope="session")
def small_report():
    return campaign_small()


@pytest.fixture(scope="session")
def case12_full_report():
    return campaign_case12()


@pytest.fixture(scope="session")
def case12_toy_report():
    return campaign_case12(202, 10_000)


class Case3Hooks(NamedTuple):
    """One case3 run and what it passed to the hooks the tests watch."""

    report: CampaignReport
    core_widths: list  # w of each _odd_disc_core(k, w)
    comb_seeds: list  # (n, j) of each math.comb(n, j)
    l_quantity_calls: list  # (m, r) of each l_quantity(m, r)
    low_match_calls: list  # (k, m, a, q, core) of each _case3_low_match


def _case3_with_hooks(extra: int) -> Case3Hooks:
    hooks = Case3Hooks(None, [], [], [], [])
    core, comb, l_quantity, low_match = (
        twoadic._odd_disc_core, math.comb, twoadic.l_quantity, campaigns._case3_low_match
    )

    def counted_core(k, w):
        hooks.core_widths.append(w)
        return core(k, w)

    def counted_comb(n, j):
        hooks.comb_seeds.append((n, j))
        return comb(n, j)

    def counted_l_quantity(m, r):
        hooks.l_quantity_calls.append((m, r))
        return l_quantity(m, r)

    def recorded_low_match(k, m, a, q, core):
        hooks.low_match_calls.append((k, m, a, q, core))
        return low_match(k, m, a, q, core)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(twoadic, "_odd_disc_core", counted_core)
        patch.setattr(campaigns, "_odd_disc_core", counted_core)
        patch.setattr(math, "comb", counted_comb)
        patch.setattr(twoadic, "l_quantity", counted_l_quantity)
        patch.setattr(campaigns, "l_quantity", counted_l_quantity)
        patch.setattr(campaigns, "_case3_low_match", recorded_low_match)
        report = campaign_case3(modulus_extra_bits=extra)
    return hooks._replace(report=report)


@pytest.fixture(scope="session")
def case3_150_hooks():
    return _case3_with_hooks(150)


@pytest.fixture(scope="session")
def case3_100_hooks():
    return _case3_with_hooks(100)


@pytest.fixture(scope="session")
def case3_150_report(case3_150_hooks):
    return case3_150_hooks.report


@pytest.fixture(scope="session")
def case3_100_report(case3_100_hooks):
    return case3_100_hooks.report


@pytest.fixture(scope="session")
def case3_windows(case3_150_report):
    """k's exact window for each k of a case3 row."""
    return {k: window_integers(k) for k in {c.k for c in case3_150_report.candidates}}
