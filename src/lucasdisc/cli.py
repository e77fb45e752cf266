"""Command-line interface for the Lucas/discriminant toolkit.

Subcommands::

    term           one k-generalized Fibonacci or Lucas term
    disc           |disc| of x^k - x^(k-1) - ... - 1 and its 2-adic valuation
    nu2            2-adic valuation of an integer
    root           certified enclosure of the dominant root
    verify-lemmas  run the named invariant suites
    search         run one search campaign (small, case0, case12, case3)
    bounds         derived exclusion bounds and scan envelopes

Exit codes: 0 on success (and zero survivors for ``search``), 1 when a
search reports survivors or an invariant suite fails, 2 on usage or
domain errors and on an output file that cannot be written, 3 when a
search meets a comparison it cannot decide at the precision cap.
"""

from __future__ import annotations

import argparse
import functools
import math
import multiprocessing
import os
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath

from .sequences import FIBONACCI, LUCAS, SeqParams, term
from .twoadic import nu2, disc_nu2
from .roots import PrecisionError, dominant_root
from .bounds import (
    _defect,
    _width,
    bl_crossover_k,
    bound_profile,
    discriminant,
    m_range,
    solve_bl_k_bound,
    solve_matveev_k_bound,
    window_integers,
)
from .campaigns import (
    CAMPAIGN_NAMES,
    CampaignReport,
    _CAMPAIGNS,
    _unit_count,
    merge_reports,
    report_to_jsonl,
    shard,
)
from .lemmas import SUITES, run_suite

__all__ = ["build_parser", "run", "main"]

# Candidate rows shown by the human format before truncating (full
# listings are always available via jsonl).
_HUMAN_CANDIDATE_CAP = 50


def _report_to_human(report: CampaignReport, include_timing: bool) -> str:
    lines = ["campaign: %s" % report.campaign]
    lines.append(
        "ranges: " + " ".join("%s=%s" % (key, val) for key, val in sorted(report.ranges.items()))
    )
    lines.append("stage counts:")
    for name, count in report.stage_counts:
        lines.append("  %-28s %d" % (name, count))
    lines.append("candidates: %d" % len(report.candidates))
    for c in report.candidates[:_HUMAN_CANDIDATE_CAP]:
        extra = "" if c.a is None else " a=%d" % c.a
        lines.append("  k=%d n=%d r=%d m=%d%s %s" % (c.k, c.n, c.r, c.m, extra, c.verdict))
    hidden = len(report.candidates) - _HUMAN_CANDIDATE_CAP
    if hidden > 0:
        lines.append("  ... %d more (use jsonl for the full list)" % hidden)
    if report.survivors:
        lines.append("survivors: %d" % len(report.survivors))
        for c in report.survivors:
            lines.append("  k=%d n=%d" % (c.k, c.n))
    else:
        lines.append("survivors: none")
    for key, val in sorted(report.extras.items()):
        lines.append("%s: %s" % (key, val))
    if include_timing:
        lines.append("elapsed: %.3fs" % report.elapsed)
    return "\n".join(lines) + "\n"


def _digits(value: int) -> str:
    """All decimal digits of ``value``; ``str`` refuses ints above 4,300 digits."""
    return str(Decimal(value))


def _cmd_term(args: argparse.Namespace) -> int:
    params = SeqParams(k=args.k, family=args.family)
    print(_digits(term(params, args.n)))
    return 0


def _cmd_disc(args: argparse.Namespace) -> int:
    print(_digits(discriminant(args.k)))
    print("nu2 = %d" % disc_nu2(args.k))
    return 0


def _cmd_nu2(args: argparse.Namespace) -> int:
    value = nu2(args.x)
    print("inf" if value == float("inf") else value)
    return 0


def _decimal(x: Fraction, places: int, round_up: bool) -> str:
    """Positive x to ``places`` decimals, rounded down or up in integer arithmetic."""
    scaled = x * 10**places
    whole, frac = divmod(math.ceil(scaled) if round_up else math.floor(scaled), 10**places)
    return "%d.%0*d" % (whole, places, frac)


def _cmd_root(args: argparse.Namespace) -> int:
    enc = dominant_root(args.k, args.precision_bits)
    # 10^-places <= 2^-precision_bits / 10, so the printed bracket is barely wider than
    # enc; lo rounded down and hi rounded up keep it an enclosure with lo < hi.
    places = max(20, args.precision_bits * 30103 // 100000 + 2)
    print("k = %d" % args.k)
    print("lo = %s" % _decimal(enc.lo, places, round_up=False))
    print("hi = %s" % _decimal(enc.hi, places, round_up=True))
    print("width <= 2^-%d" % enc.precision_bits)
    return 0


def _cmd_verify_lemmas(args: argparse.Namespace) -> int:
    names = args.suite or list(SUITES)
    failed = 0
    for name in names:
        failures = run_suite(name, args.scale)
        if failures:
            failed += 1
            print("FAIL %s (%d failures)" % (name, len(failures)))
            for f in failures[:10]:
                print("     %s %s" % (f.detail, f.params))
        else:
            print("PASS %s" % name)
    return 1 if failed else 0


def _campaign_params(args: argparse.Namespace) -> dict:
    campaign = args.campaign
    parser = args.parser
    params: dict = {}

    def only_for(flag: str, value, campaigns: tuple[str, ...], name: str):
        if value is None:
            return
        if campaign not in campaigns:
            parser.error("--%s only applies to %s" % (flag, "/".join(campaigns)))
        params[name] = value

    only_for("k-max", args.k_max, ("small",), "k_max")
    only_for("n-max", args.n_max, ("small",), "n_max")
    only_for("k-lo", args.k_lo, ("case12",), "k_lo")
    only_for("k-hi", args.k_hi, ("case12",), "k_hi")
    if args.modulus_bits is not None:
        if campaign == "case12":
            params["test_modulus_bits"] = args.modulus_bits
        elif campaign == "case3":
            params["modulus_extra_bits"] = args.modulus_bits
        else:
            parser.error("--modulus-bits only applies to case12/case3")
    return params


def _cmd_search(args: argparse.Namespace) -> int:
    params = _campaign_params(args)
    workers = args.workers if args.workers is not None else os.cpu_count() or 1
    if workers < 1:
        args.parser.error("--workers must be >= 1")
    # Pieces beyond the campaign's work units would be empty, so no process is started for them.
    workers = max(1, min(workers, _unit_count(args.campaign, **params)))
    if workers == 1:
        report = _CAMPAIGNS[args.campaign](**params)
    else:
        job = functools.partial(shard, args.campaign, of=workers, **params)
        with multiprocessing.Pool(workers) as pool:
            reports = pool.map(job, range(workers))
        report = merge_reports(reports)

    include_timing = not args.no_timing
    if args.format == "jsonl":
        text = report_to_jsonl(report, include_timing=include_timing)
    else:
        text = _report_to_human(report, include_timing)

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 1 if report.survivors else 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    k = args.k
    profile = None if k is None else bound_profile(k)  # rejects k <= 200 before anything prints
    caps = solve_matveev_k_bound()
    print("linear-forms k cap: %d" % caps.k_max)
    print("linear-forms n cap: %d" % caps.n_max)
    print("2-adic bound crossover k: %d" % bl_crossover_k())
    print("2-adic k cap (r in {1,2}): %d" % solve_bl_k_bound())
    m_lo, m_hi = m_range()
    print("m envelope up to the k cap: %d .. %d" % (m_lo, m_hi))
    if profile is not None:
        print("k = %d:" % k)
        with mpmath.workprec(k.bit_length() + 80):
            w = -_defect(k, 0)
            digits = len(str(int(w))) + 10
            print("  n window: (%s, %s)" % (mpmath.nstr(w, digits), mpmath.nstr(w + _width(), digits)))
        print("  n in the window: %s" % ", ".join(map(str, window_integers(k))))
        print("  m range: %d .. %d" % (profile.m_lo, profile.m_hi))
        print("  max nu2 of the congruence quantity: %d" % profile.a_max)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lucasdisc",
        description="search and verification toolkit for k-generalized Lucas"
        " numbers vs. trinomial-like discriminants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_term = sub.add_parser("term", help="print one sequence term")
    p_term.add_argument("--family", choices=[FIBONACCI, LUCAS], default=LUCAS)
    p_term.add_argument("--k", type=int, required=True, help="recurrence order (>= 2)")
    p_term.add_argument("--n", type=int, required=True, help="index")
    p_term.set_defaults(func=_cmd_term)

    p_disc = sub.add_parser("disc", help="print |disc| and its 2-adic valuation")
    p_disc.add_argument("--k", type=int, required=True)
    p_disc.set_defaults(func=_cmd_disc)

    p_nu2 = sub.add_parser("nu2", help="print the 2-adic valuation of an integer")
    p_nu2.add_argument("--x", type=int, required=True)
    p_nu2.set_defaults(func=_cmd_nu2)

    p_root = sub.add_parser("root", help="print a certified dominant-root enclosure")
    p_root.add_argument("--k", type=int, required=True)
    p_root.add_argument("--precision-bits", type=int, default=128)
    p_root.set_defaults(func=_cmd_root)

    p_ver = sub.add_parser("verify-lemmas", help="run the named invariant suites")
    p_ver.add_argument("--scale", type=int, default=1, help="grid size multiplier")
    p_ver.add_argument("--suite", action="append", choices=sorted(SUITES), help="run only this suite (repeatable)")
    p_ver.set_defaults(func=_cmd_verify_lemmas)

    p_search = sub.add_parser("search", help="run one search campaign")
    p_search.add_argument("campaign", choices=CAMPAIGN_NAMES)
    p_search.add_argument("--k-max", type=int, help="small: largest k (default 200)")
    p_search.add_argument("--n-max", type=int, help="small: largest n (default 2529)")
    p_search.add_argument("--k-lo", type=int, help="case12: first even k (default 202)")
    p_search.add_argument("--k-hi", type=int, help="case12: exclusive even end (default 7e7)")
    p_search.add_argument(
        "--modulus-bits",
        type=int,
        help="case12: power-of-two test modulus bits (default 100, at most k-lo - 1);"
        " case3: extra bits above the matched valuation (default 150)",
    )
    p_search.add_argument(
        "--workers",
        type=int,
        help="parallel shards to run and merge (default: cpu count)",
    )
    p_search.add_argument("--format", choices=["jsonl", "human"], default="human")
    p_search.add_argument("--output", help="write the report here instead of stdout")
    p_search.add_argument("--no-timing", action="store_true", help="omit elapsed time (stable bytes)")
    p_search.set_defaults(func=_cmd_search)

    p_bounds = sub.add_parser("bounds", help="print derived exclusion bounds")
    p_bounds.add_argument("--k", type=int, help="also print the per-k scan envelope (k > 200)")
    p_bounds.set_defaults(func=_cmd_bounds)

    parser.set_defaults(parser=parser)
    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # parse errors and parser.error in a subcommand
        code = exc.code
        return code if isinstance(code, int) else 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print("undecided: %s" % exc, file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
