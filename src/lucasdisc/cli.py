"""Command-line interface for the Lucas/discriminant toolkit.

Subcommands::

    term           one k-generalized Fibonacci or Lucas term
    disc           |disc| of x^k - x^(k-1) - ... - 1 and its 2-adic valuation
    nu2            2-adic valuation of an integer
    root           certified enclosure of the dominant root
    verify-lemmas  run the named invariant suites
    search         run one search campaign (small, case0, case12, case3)
    bounds         derived exclusion bounds and scan envelopes

``search <campaign>`` takes its options after the campaign name: that
campaign's own and the shared ``--workers``, ``--format``, ``--output``
and ``--no-timing``.  :func:`lucasdisc.campaigns.search` runs it.

Exit codes: 0 on success (and zero survivors for ``search``), 1 when a
search reports survivors or an invariant suite fails, 2 on usage or
domain errors and on an output file that cannot be written, 3 when a
search meets a comparison it cannot decide at the precision cap, 4 on
an internal error (a failed self-check assertion).
"""

from __future__ import annotations

import argparse
import math
import sys
from decimal import Context, Decimal
from fractions import Fraction

from .sequences import FIBONACCI, LUCAS, SeqParams, term
from .twoadic import nu2, disc_nu2
from .roots import PrecisionError, dominant_root
from .bounds import (
    _w,
    bl_crossover_k,
    bound_profile,
    discriminant,
    m_range,
    solve_bl_k_bound,
    solve_matveev_k_bound,
    window_integers,
)
from .campaigns import CAMPAIGN_NAMES, CampaignReport, report_to_jsonl, search
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
        lines.append("  k=%d n=%d r=%d m=%d %s" % (c.k, c.n, c.r, c.m, c.verdict))
    hidden = len(report.candidates) - _HUMAN_CANDIDATE_CAP
    if hidden > 0:
        lines.append("  ... %d more (use jsonl for the full list)" % hidden)
    if report.survivors:
        lines.append("survivors: %d" % len(report.survivors))
        for c in report.survivors:
            lines.append("  k=%d n=%d" % (c.k, c.n))
    else:
        lines.append("survivors: none")
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


# Each campaign's own options: (flag, campaign parameter, help).
_CAMPAIGN_FLAGS = {
    "small": [("--k-max", "k_max", "largest k (default 200)")],
    "case0": [],
    "case12": [
        ("--k-lo", "k_lo", "first even k (default 202)"),
        ("--k-hi", "k_hi", "exclusive even end (default 7e7)"),
        ("--modulus-bits", "test_modulus_bits", "power-of-two test modulus bits (default 100, at most k-lo - 1)"),
    ],
    "case3": [("--modulus-bits", "modulus_extra_bits", "extra bits above the matched valuation (default 150)")],
}


def _cmd_search(args: argparse.Namespace) -> int:
    flags = _CAMPAIGN_FLAGS[args.campaign]
    params = {dest: getattr(args, dest) for _, dest, _ in flags if getattr(args, dest) is not None}
    report = search(args.campaign, args.workers, **params)
    render = report_to_jsonl if args.format == "jsonl" else _report_to_human
    text = render(report, not args.no_timing)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 1 if report.survivors else 0


def _nstr(x: Decimal, ctx: Context) -> str:
    """x rounded in ctx, in fixed point without trailing zeros but with one digit after the point."""
    text = format(ctx.normalize(x), "f")
    return text if "." in text else text + ".0"


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
        w = _w(k)
        shown = Context(prec=len(str(int(w))) + 10)
        print("  n window: (%s, %s)" % (_nstr(w, shown), _nstr(shown.add(w, Decimal("2.4")), shown)))
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

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="split the search into N shards, run them in this process and merge them into the same bytes (default: 1)",
    )
    shared.add_argument("--format", choices=["jsonl", "human"], default="human")
    shared.add_argument("--output", help="write the report here instead of stdout")
    shared.add_argument("--no-timing", action="store_true", help="omit elapsed time (stable bytes)")
    p_search = sub.add_parser("search", help="run one search campaign")
    p_campaigns = p_search.add_subparsers(dest="campaign", required=True)
    for name in CAMPAIGN_NAMES:
        p_campaign = p_campaigns.add_parser(name, parents=[shared])
        for flag, dest, text in _CAMPAIGN_FLAGS[name]:
            p_campaign.add_argument(flag, dest=dest, type=int, metavar="N", help=text)
    p_search.set_defaults(func=_cmd_search)

    p_bounds = sub.add_parser("bounds", help="print derived exclusion bounds")
    p_bounds.add_argument("--k", type=int, help="also print the per-k scan envelope (k > 200)")
    p_bounds.set_defaults(func=_cmd_bounds)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # parse errors and --help
        code = exc.code
        return code if isinstance(code, int) else 2
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except PrecisionError as exc:
        print("undecided: %s" % exc, file=sys.stderr)
        return 3
    except Exception as exc:  # a failed self-check: a bug to trace
        import traceback  # here, so that start-up does not pay for it

        traceback.print_exc()
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
