"""Verdict gate: the paper's frozen facts that every search must reproduce.

Only verdict-bearing facts are gated.  Work counts such as ``k_scanned``
and ``triples_enumerated`` are reported, not gated, because a faster
algorithm may reach the same verdict by enumerating differently.
"""

from __future__ import annotations

import json

# (label, campaign arguments) for the five paper-parameter searches.
SEARCHES = (
    ("small", ("small",)),
    ("case0", ("case0",)),
    ("case12", ("case12",)),
    ("case3", ("case3", "--modulus-bits", "150")),
    ("case3_100", ("case3", "--modulus-bits", "100")),
)

CASE12_WINDOW_PAIRS = 32
CASE3_VALUATION_MATCHES = 12_219
CASE3_M_BAND = (9, 55)

# The 14 (k, n) congruence survivors of case3 at 100 extra modulus bits.
CASE3_100_SURVIVORS = (
    (70368744177665, 3307330976350258),
    (281474976710657, 13792273858822241),
    (1125899906842625, 57420895248973876),
    (1125899906842625, 57420895248973925),
    (2251799813685249, 117093590311632999),
    (4503599627370497, 238690780250636344),
    (4503599627370497, 238690780250636345),
    (4503599627370497, 238690780250636346),
    (4503599627370497, 238690780250636393),
    (9007199254740993, 486388759756013675),
    (18014398509481985, 990791918021509178),
    (18014398509481985, 990791918021509229),
    (36028797018963969, 2017612633061982266),
    (36028797018963969, 2017612633061982319),
)

EXPECTED_EXIT = {"small": 0, "case0": 0, "case12": 0, "case3": 0, "case3_100": 1}


def parse_report(text: str) -> tuple[list[dict], dict]:
    """Split a JSONL report into candidate rows and the summary row."""
    rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not rows or rows[-1].get("stage") != "summary":
        raise ValueError("report has no summary row")
    return rows[:-1], rows[-1]


def stage_count(summary: dict, name: str) -> int | None:
    for key, value in summary.get("stage_counts", []):
        if key == name:
            return value
    return None


def check_search(label: str, exit_code: int, text: str) -> list[str]:
    """Problems with one search's exit code and JSONL report; empty when it matches the facts."""
    problems = []
    if exit_code != EXPECTED_EXIT[label]:
        problems.append("%s: exit code %d, expected %d" % (label, exit_code, EXPECTED_EXIT[label]))
    try:
        rows, summary = parse_report(text)
    except ValueError as exc:
        return problems + ["%s: unreadable report (%s)" % (label, exc)]
    survivors = [tuple(pair) for pair in summary.get("survivors", [])]
    survivor_rows = [row for row in rows if row.get("verdict") == "survivor"]

    if label == "case3_100":
        if tuple(sorted(survivors)) != CASE3_100_SURVIVORS:
            problems.append("case3_100: survivors differ from the 14 frozen pairs")
        if sorted((row["k"], row["n"]) for row in survivor_rows) != sorted(survivors):
            problems.append("case3_100: survivor rows disagree with the summary")
        lo, hi = CASE3_M_BAND
        if any(not lo <= row["m"] <= hi for row in survivor_rows):
            problems.append("case3_100: a survivor lies outside m in [%d, %d]" % CASE3_M_BAND)
    elif survivors or survivor_rows:
        problems.append("%s: %d survivors, expected none" % (label, max(len(survivors), len(survivor_rows))))

    if label == "case12":
        pairs = stage_count(summary, "window_residue_pairs")
        if pairs != CASE12_WINDOW_PAIRS or len(rows) != CASE12_WINDOW_PAIRS:
            problems.append(
                "case12: %s window pairs (%d rows), expected %d"
                % (pairs, len(rows), CASE12_WINDOW_PAIRS)
            )
    if label == "case3":
        matches = stage_count(summary, "valuation_matches")
        if matches != CASE3_VALUATION_MATCHES or len(rows) != CASE3_VALUATION_MATCHES:
            problems.append(
                "%s: %s valuation matches (%d rows), expected %d"
                % (label, matches, len(rows), CASE3_VALUATION_MATCHES)
            )
    return problems


def check_same_bytes(label: str, sharded: bytes, reference: bytes) -> list[str]:
    """The sharded report must equal the single-worker report byte for byte."""
    if sharded == reference:
        return []
    at = next(
        (i for i, (a, b) in enumerate(zip(sharded, reference)) if a != b),
        min(len(sharded), len(reference)),
    )
    return ["%s: sharded report differs from the single-worker report at byte %d" % (label, at)]


def work_counts(label: str, text: str) -> dict[str, float]:
    """Reported work counts of one search, keyed by per-layer metric name; not gated."""
    try:
        summary = parse_report(text)[1]
    except ValueError:
        return {}  # an unreadable report is already a gate failure
    if label == "small":
        return {"sequences.terms_walked": stage_count(summary, "terms_examined") or 0}
    if label == "case12":
        return {"campaigns.case12.k_scanned": stage_count(summary, "k_scanned") or 0}
    if label == "case3":
        triples = stage_count(summary, "triples_enumerated") or 0
        matches = stage_count(summary, "valuation_matches") or 0
        return {"campaigns.case3.triples": triples,
                "campaigns.case3.match_ratio": matches / triples if triples else 0.0}
    return {}
