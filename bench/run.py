"""Benchmark of lucasdisc: the proof, sharded, certify and query workloads.

    python3 bench/run.py --workload proof --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; lucasdisc is imported from its
``src/``.  The run takes set-up samples, then repeats the workload's
fixed work (one pass) while the next pass still fits in ``--seconds``,
gates every verdict, and prints a readable report followed by one JSON
line: end-to-end metrics with ``--trace 0``, per-layer metrics from
spans with ``--trace 1``.  See NOTES.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import calib
import inputs
import percentiles
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("proof", "sharded", "certify", "query")
# Fresh-interpreter import samples: a block before the first pass, then more after
# each pass, so that setup_s is a median of many samples spread over the run.
SETUP_BLOCK = 12
SETUP_SAMPLES_PER_GAP = 4
HOST_LOOP_N = 2_000_000

END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
CAMPAIGN_LABELS = ("small", "case0", "case12", "case3", "case3_100")
BOUND_CHAIN = ("bounds.solve_matveev_k_bound", "bounds.solve_bl_k_bound", "bounds.bl_crossover_k", "bounds.m_range")

# Per-layer metrics of a traced run: name -> (unit, better).  Every one is
# printed on every workload, as 0 where its layer does no work.
PER_LAYER = {
    "sequences.term.calls": ("count", "lower"),
    "sequences.term.s": ("s", "lower"),
    "sequences.terms_walked": ("count", "lower"),
    "roots.dominant_root.calls": ("count", "lower"),
    "roots.dominant_root.misses": ("count", "lower"),
    "roots.dominant_root.s": ("s", "lower"),
    "roots.binet_error_check.s": ("s", "lower"),
    "roots.binet_vs_power2_check.s": ("s", "lower"),
    "roots.growth_bounds_check.s": ("s", "lower"),
    "roots.undecided": ("count", "lower"),
    "twoadic.l_quantity.calls": ("count", "lower"),
    "twoadic.l_quantity.s": ("s", "lower"),
    "bounds.discriminant.calls": ("count", "lower"),
    "bounds.discriminant.s": ("s", "lower"),
    "bounds.bound_chain.s": ("s", "lower"),
    **{"campaigns.%s.s" % c: ("s", "lower") for c in CAMPAIGN_LABELS},
    "campaigns.case12.k_scanned": ("count", "lower"),
    "campaigns.case3.triples": ("count", "lower"),
    "campaigns.case3.match_ratio": ("ratio", "higher"),
    "campaigns.shard.max_s": ("s", "lower"),
    "campaigns.shard.imbalance": ("ratio", "lower"),
    **{"campaigns.%s.parallel_cpu_ratio" % c: ("ratio", "lower") for c in CAMPAIGN_LABELS},
    "campaigns.merge_reports.s": ("s", "lower"),
    "campaigns.report_to_jsonl.s": ("s", "lower"),
    **{"lemmas.%s.s" % suite: ("s", "lower") for suite in inputs.LEMMA_SUITES},
    "lemmas.failures": ("count", "lower"),
    "cli.run.self_s": ("s", "lower"),
    "cli.pool_overhead_s": ("s", "lower"),
    "setup.numpy_s": ("s", "lower"),
    "setup.mpmath_s": ("s", "lower"),
    "setup.lucasdisc_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "host.loop_s": ("s", "lower"),
    "fail_ratio": ("ratio", "lower"),
}


def git_commit(root: str) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ------------------------------------------------------------- the passes


class Runner:
    def __init__(self, ctx: workloads.Context, workload: str) -> None:
        self.ctx = ctx
        self.workload = workload
        self.reference = None
        self.verified: dict = {}
        self.reference_problems: list[str] = []

    def prepare(self) -> None:
        """For sharded, the single-worker reports its byte check compares against; untimed."""
        if self.workload == "sharded":
            self.reference = {}
            ref = workloads.search_pass(self.ctx, workers=1, traced=False, reference=None, outputs=self.reference)
            self.reference_problems = ["reference: " + p for p in ref.problems]

    def one_pass(self, traced: bool, workload: str | None = None) -> workloads.Pass:
        workload = workload or self.workload
        if workload in ("proof", "sharded"):
            workers = 1 if workload == "proof" else 2
            reference = self.reference if workload == "sharded" else None
            return workloads.search_pass(self.ctx, workers, traced, reference)
        return workloads.ops_pass(self.ctx, workload, traced, self.verified)


def timed_passes(run_one, start: float, seconds: float, after_each) -> list:
    """Run passes while the next one, at the median pass time so far, still fits."""
    passes, durations = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(run_one())
        after_each()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return passes


# ---------------------------------------------------------- per-layer view


def _span_stats(spans: list[tracing.Span]) -> dict:
    """name -> [calls, self seconds, inclusive seconds]."""
    own = tracing.self_times(spans)
    stats: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        entry = stats[s.name]
        entry[0] += 1
        entry[1] += own[s.sid]
        entry[2] += s.end - s.start
    return stats


def layer_metrics(p: workloads.Pass) -> dict[str, float]:
    """Per-layer numbers of one traced pass; 0 where the layer does no work."""
    m: dict[str, float] = defaultdict(float)
    shard_max_sum = shard_mean_sum = 0.0
    for label, trace_dir in p.traces.items():
        spans = tracing.read_spans(trace_dir)
        stats = _span_stats(spans)
        for name in ("sequences.term", "roots.dominant_root", "twoadic.l_quantity", "bounds.discriminant"):
            m[name + ".calls"] += stats[name][0]
            m[name + ".s"] += stats[name][1]
        for name in ("roots.binet_error_check", "roots.binet_vs_power2_check", "roots.growth_bounds_check",
                     "campaigns.merge_reports", "campaigns.report_to_jsonl"):
            m[name + ".s"] += stats[name][1]
        m["bounds.bound_chain.s"] += sum(stats[n][1] for n in BOUND_CHAIN)
        m["cli.run.self_s"] += stats["cli.run"][1]
        for suite in inputs.LEMMA_SUITES:
            m["lemmas.%s.s" % suite] += stats["lemmas." + suite][2]
        if label in CAMPAIGN_LABELS:
            m["campaigns.%s.s" % label] += sum(
                s.end - s.start for s in spans if s.name.startswith("campaigns.campaign_")
            )
            shards = [s.end - s.start for s in spans if s.name == "campaigns.shard"]
            runs = [s.end - s.start for s in spans if s.name == "cli.run"]
            if shards and runs:
                shard_max_sum += max(shards)
                shard_mean_sum += statistics.fmean(shards)
                m["cli.pool_overhead_s"] += runs[0] - max(shards)
    m["campaigns.shard.max_s"] = shard_max_sum
    m["campaigns.shard.imbalance"] = shard_max_sum / shard_mean_sum if shard_mean_sum else 0.0
    if p.ops:
        m["roots.dominant_root.misses"] = p.ops["dominant_root_cache"][1]
        m["lemmas.failures"] = p.ops["lemma_failures"]
    return m


# ------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    init = os.path.join(ROOT, "src", "lucasdisc", "__init__.py")
    if not os.path.isfile(init):
        print("error: %s not found; run from a lucasdisc checkout" % init, file=sys.stderr)
        return 2

    tmp = os.path.join(ROOT, ".bench_tmp", "run-%d" % os.getpid())
    os.makedirs(tmp)
    ctx = workloads.Context(ROOT, tmp, args.seed)
    try:
        return measure(args, ctx)
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        ctx.close()
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, ctx: workloads.Context) -> int:
    loop_start = calib.loop(HOST_LOOP_N)
    first = workloads.setup_sample(ctx)  # warm-up: byte-compiles src/ on a fresh checkout
    if os.path.realpath(first["file"]) != os.path.realpath(os.path.join(ROOT, "src", "lucasdisc", "__init__.py")):
        raise RuntimeError("lucasdisc resolved to %s, not this checkout's src/" % first["file"])

    start = time.perf_counter()
    runner = Runner(ctx, args.workload)
    runner.prepare()
    samples = [workloads.setup_sample(ctx) for _ in range(SETUP_BLOCK)]

    def sample_setup():
        samples.extend(workloads.setup_sample(ctx) for _ in range(SETUP_SAMPLES_PER_GAP))

    layers: list[dict] = []
    if args.trace:
        untraced, traced = [], []

        def pair():
            untraced.append(runner.one_pass(traced=False))
            traced.append(runner.one_pass(traced=True))

        timed_passes(pair, start, args.seconds, sample_setup)
        passes = untraced + traced
        cross = None
        if args.workload in ("proof", "sharded"):
            cross = runner.one_pass(traced=False, workload="sharded" if args.workload == "proof" else "proof")
            passes.append(cross)
        layers = [layer_metrics(p) for p in traced]
    else:
        passes = timed_passes(lambda: runner.one_pass(traced=False), start, args.seconds, sample_setup)
    loop_end = calib.loop(HOST_LOOP_N)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + (1 if runner.reference_problems else 0)
    attempted += 1 if runner.reference_problems else 0
    problems = runner.reference_problems + [q for p in passes for q in p.problems]
    timed = traced if args.trace else passes

    # Each set-up sample is rescaled by the speed samples its child took while importing.
    setup = {key: percentiles.median([s[key] * s["scale"] for s in samples])
             for key in ("total_s", "numpy_s", "mpmath_s", "lucasdisc_s")}
    raw_setup = percentiles.median([s["total_s"] for s in samples])
    versions = first["versions"]
    print("# lucasdisc benchmark: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("# provenance: lucasdisc %s from %s, commit %s, python %s, numpy %s, mpmath %s, nproc %d, seed %d"
          % (versions["lucasdisc"], os.path.relpath(first["file"], ROOT), git_commit(ROOT), versions["python"],
             versions["numpy"], versions["mpmath"], os.cpu_count() or 0, args.seed))
    print("# passes %d, set-up samples %d, ops attempted %d, failed %d"
          % (len(timed), len(samples), attempted, failed))
    print("# pass wall_s: %s (raw %s)" % (" ".join("%.3f" % p.wall_s for p in timed),
                                          " ".join("%.3f" % p.raw_wall_s for p in timed)))
    print("# raw, not rescaled to the reference host speed: setup_s %.4f, wall_s %.4f, cpu_s %.4f"
          % (raw_setup, percentiles.median([p.raw_wall_s for p in timed]),
             percentiles.median([p.raw_cpu_s for p in timed])))
    for problem in problems[:20]:
        print("# FAIL %s" % problem)
        print("FAIL %s" % problem, file=sys.stderr)
    print("host.loop_s            %.4f s (start %.4f, end %.4f; diagnostic, never gated)"
          % ((loop_start + loop_end) / 2, loop_start, loop_end))

    if args.trace:
        metrics = per_layer(args.workload, layers, passes, untraced, traced, cross, setup,
                            (loop_start + loop_end) / 2, failed / attempted)
        for name, (value, unit) in metrics.items():
            print("%-40s %.6g %s" % (name, value, unit))
    else:
        values = {
            "setup_s": (setup["total_s"], "s"),
            "wall_s": (percentiles.median([p.wall_s for p in passes]), "s"),
            "cpu_s": (percentiles.median([p.cpu_s for p in passes]), "s"),
            "peak_rss_mb": (max(p.peak_rss_mb for p in passes), "MB"),
        }
        metrics = {name: values[name] for name in END_TO_END}
        for name, (value, unit) in metrics.items():
            print("%-22s %.6g %s" % (name, value, unit))
        print("%-22s %.6g ratio (%d/%d)" % ("fail_ratio", failed / attempted, failed, attempted))
        latencies = [x for p in passes for x in p.op_latencies_s]
        if latencies:
            for pct in (50, 90):
                try:
                    value = percentiles.percentile(latencies, pct) * 1000
                    print("%-22s %.6g ms (n=%d)" % ("op_p%d_ms" % pct, value, len(latencies)))
                except ValueError as exc:
                    print("%-22s refused: %s" % ("op_p%d_ms" % pct, exc))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def per_layer(workload, layers, passes, untraced, traced, cross, setup, loop_s, fail_ratio) -> dict:
    values = {name: percentiles.median([layer.get(name, 0.0) for layer in layers]) for name in PER_LAYER}
    values.update(untraced[0].counts)
    values["roots.undecided"] = sum(p.undecided for p in passes)
    if cross is not None:
        one, two = (untraced[0], cross) if workload == "proof" else (cross, untraced[0])
        cpu_one, cpu_two = one.search_cpu_s, two.search_cpu_s
        for label in CAMPAIGN_LABELS:
            values["campaigns.%s.parallel_cpu_ratio" % label] = cpu_two[label] / cpu_one[label]
    values["setup.numpy_s"] = setup["numpy_s"]
    values["setup.mpmath_s"] = setup["mpmath_s"]
    values["setup.lucasdisc_s"] = setup["lucasdisc_s"]
    values["trace.overhead_s"] = (
        percentiles.median([p.wall_s for p in traced]) - percentiles.median([p.wall_s for p in untraced]))
    values["host.loop_s"] = loop_s
    values["fail_ratio"] = fail_ratio
    return {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}


if __name__ == "__main__":
    sys.exit(main())
