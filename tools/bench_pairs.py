"""Paired benchmark runs of two checkouts, summarised into a BENCH_<label>.json file.

    python3 tools/bench_pairs.py --parent ../parent --change . --label my_change \
        --workloads certify proof --seeds 4400-4409 --what "one line on the change"

Both checkouts' ``src/`` trees are byte-compiled first, so that no run
recompiles an edited module in every fresh interpreter (the bench starts
many, and ``PYTHONDONTWRITEBYTECODE`` keeps them from caching their own).
Then, for each workload and seed, ``bench/run.py`` runs once from each
checkout, the side that goes first alternating from seed to seed.  Each run's
end-to-end metrics and failed-op count go into ``runs``; ``--trace`` runs go
into ``traced`` instead and are not summarised.  An existing output file of
the same label keeps its runs, so several invocations (other workloads,
other seeds) add up to one file, and ``summary`` is recomputed over all of
them.  Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys

END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")  # all better lower
SIDES = ("parent", "change")


def parse_seeds(specs: list[str]) -> list[int]:
    """Seeds from items like ``7`` and ``4400-4409`` (inclusive)."""
    seeds = []
    for spec in specs:
        first, _, last = spec.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def run_bench(checkout: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One ``bench/run.py`` run from ``checkout``: its metric values plus ``failed`` (ops)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s in %s exited %d:\n%s" % (" ".join(cmd), checkout, done.returncode, done.stderr))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    if not trace:
        values = {name: round(values[name], 4) for name in END_TO_END}
    values["failed"] = result["failed"]
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: dict) -> dict:
    """Per workload and end-to-end metric: each side's median and quartiles, and how many pairs the change won.

    ``runs`` maps workload -> seed -> {"parent": values, "change": values}.
    A pair is won when the change's value is strictly lower.
    """
    summary = {}
    for workload, pairs in runs.items():
        entry = {}
        for name in END_TO_END:
            row = {}
            for side in SIDES:
                q1, median, q3 = quartiles([pair[side][name] for pair in pairs.values()])
                row.update({side + "_median": round(median, 4), side + "_q1": round(q1, 4), side + "_q3": round(q3, 4)})
            row["change_wins"] = sum(pair["change"][name] < pair["parent"][name] for pair in pairs.values())
            row["pairs"] = len(pairs)
            entry[name] = row
        failed = sum(pair[side]["failed"] for pair in pairs.values() for side in SIDES)
        entry["all_correct"] = failed == 0
        entry["failed_ops"] = failed
        summary[workload] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--label", required=True, help="names the output, BENCH_<label>.json")
    parser.add_argument("--workloads", nargs="+", required=True, choices=("proof", "sharded", "certify", "query"))
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or inclusive ranges, e.g. 4400-4409")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", action="store_true", help="per-layer runs, kept apart and not summarised")
    parser.add_argument("--what", default="", help="what the change does, one line")
    parser.add_argument("--out", help="output path (default: BENCH_<label>.json in the change checkout)")
    args = parser.parse_args(argv)

    out = args.out or os.path.join(args.change, "BENCH_%s.json" % args.label)
    record = {"label": args.label, "what": args.what, "runs": {}, "traced": {}}
    if os.path.exists(out):
        with open(out) as f:
            record.update(json.load(f))
    record["what"] = args.what or record["what"]
    record["command"] = ("python3 bench/run.py --workload W --seed S --seconds T --trace 0|1, parent and change "
                         "alternating which runs first, each from its own checkout, both byte-compiled with "
                         "compileall; seeds are the keys of runs and traced, T is in invocations")
    record["host"] = "%s, python %s, %d CPUs" % (platform.platform(), platform.python_version(), os.cpu_count() or 0)
    record.setdefault("invocations", []).append("--workloads %s --seeds %s --seconds %g%s" % (
        " ".join(args.workloads), " ".join(args.seeds), args.seconds, " --trace" if args.trace else ""))

    for checkout in (args.parent, args.change):
        if not compileall.compile_dir(os.path.join(checkout, "src"), quiet=1):
            raise SystemExit("compileall failed in %s" % checkout)
    turn = 0
    for workload in args.workloads:
        for seed in parse_seeds(args.seeds):
            order = SIDES if turn % 2 == 0 else SIDES[::-1]
            turn += 1
            pair = {side: run_bench(getattr(args, side), workload, seed, args.seconds, args.trace) for side in order}
            record["traced" if args.trace else "runs"].setdefault(workload, {})[str(seed)] = pair
            print("%s %d %s" % (workload, seed, json.dumps(pair)), flush=True)
            record["summary"] = summarize(record["runs"])
            with open(out, "w") as f:
                json.dump(record, f, indent=1)
                f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
