"""Verification toolkit: k-generalized Lucas numbers never hit |disc|.

The package proves-by-computation the finite part of the statement that
no k-generalized Lucas number equals the absolute discriminant of
x^k - x^(k-1) - ... - x - 1:

* ``sequences``  -- the order-k recurrences, closed forms, identities;
* ``twoadic``    -- 2-adic valuations and Lucas congruences mod 2^E;
* ``roots``      -- certified dominant-root enclosures and growth checks;
* ``bounds``     -- discriminants, exclusion bounds, scan envelopes;
* ``campaigns``  -- the exhaustive search campaigns and their reports;
* ``lemmas``     -- cross-cutting invariant suites;
* ``cli``        -- the ``lucasdisc`` command line.
"""

from .sequences import (
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
from .twoadic import (
    disc_match,
    disc_nu2,
    kummer_nu2_binomial,
    l_quantity,
    l_quantity_factored,
    l_quantity_nu2,
    lucas_congruence,
    lucas_congruence_parts,
    nu2,
    residue_decomposition,
)
from .roots import (
    MAX_PRECISION_BITS,
    PrecisionError,
    RootEnclosure,
    binet_error_check,
    binet_vs_power2_check,
    dominant_root,
    gk_sign,
    growth_bounds_check,
)
from .bounds import (
    BoundProfile,
    MatveevBound,
    bl_crossover_k,
    bound_profile,
    discriminant,
    localize_k_by_power2,
    m_range,
    n_window,
    solve_bl_k_bound,
    solve_matveev_k_bound,
)
from .campaigns import (
    CAMPAIGN_NAMES,
    CampaignReport,
    CandidatePair,
    campaign_case0,
    campaign_case12,
    campaign_case3,
    campaign_small,
    merge_reports,
    report_to_jsonl,
    shard,
)
from .lemmas import SUITES, Failure, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "FIBONACCI",
    "LUCAS",
    "SeqParams",
    "binom_ext",
    "cooper_howard_fib",
    "lucas_from_fib",
    "shift_identity_check",
    "term",
    "term_iter",
    "disc_match",
    "disc_nu2",
    "kummer_nu2_binomial",
    "l_quantity",
    "l_quantity_factored",
    "l_quantity_nu2",
    "lucas_congruence",
    "lucas_congruence_parts",
    "nu2",
    "residue_decomposition",
    "MAX_PRECISION_BITS",
    "PrecisionError",
    "RootEnclosure",
    "binet_error_check",
    "binet_vs_power2_check",
    "dominant_root",
    "gk_sign",
    "growth_bounds_check",
    "BoundProfile",
    "MatveevBound",
    "bl_crossover_k",
    "bound_profile",
    "discriminant",
    "localize_k_by_power2",
    "m_range",
    "n_window",
    "solve_bl_k_bound",
    "solve_matveev_k_bound",
    "CAMPAIGN_NAMES",
    "CampaignReport",
    "CandidatePair",
    "campaign_case0",
    "campaign_case12",
    "campaign_case3",
    "campaign_small",
    "merge_reports",
    "report_to_jsonl",
    "shard",
    "SUITES",
    "Failure",
    "run_all",
    "run_suite",
    "__version__",
]
