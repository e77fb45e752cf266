"""The summary that tools/bench_pairs.py writes into a BENCH_<label>.json file."""

import importlib.util
import os

SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)


def side(wall_s, failed=0):
    return {"setup_s": 0.1, "wall_s": wall_s, "cpu_s": 3 * wall_s, "peak_rss_mb": 20.0, "failed": failed}


def test_summary_has_quartiles_wins_and_failures_per_workload():
    runs = {
        "certify": {
            str(seed): {"parent": side(parent), "change": side(change)}
            for seed, (parent, change) in enumerate([(0.06, 0.05), (0.062, 0.051), (0.058, 0.059), (0.064, 0.052),
                                                     (0.06, 0.06)])
        },
        "query": {"1": {"change": side(0.2, failed=1), "parent": side(0.21)}},
    }
    summary = bench_pairs.summarize(runs)
    wall = summary["certify"]["wall_s"]
    assert wall == {
        "parent_median": 0.06, "parent_q1": 0.06, "parent_q3": 0.062,
        "change_median": 0.052, "change_q1": 0.051, "change_q3": 0.059,
        "change_wins": 3, "pairs": 5,
    }
    # Ties are not wins, and equal values have no spread.
    assert summary["certify"]["setup_s"]["change_wins"] == 0
    assert summary["certify"]["peak_rss_mb"]["parent_q1"] == summary["certify"]["peak_rss_mb"]["parent_q3"] == 20.0
    assert (summary["certify"]["all_correct"], summary["certify"]["failed_ops"]) == (True, 0)
    # One pair is its own median and quartiles; a failed op on either side counts.
    assert summary["query"]["wall_s"]["change_q1"] == summary["query"]["wall_s"]["change_q3"] == 0.2
    assert (summary["query"]["all_correct"], summary["query"]["failed_ops"]) == (False, 1)
    assert set(summary["query"]) == {*bench_pairs.END_TO_END, "all_correct", "failed_ops"}


def test_seed_ranges_are_inclusive():
    assert bench_pairs.parse_seeds(["7", "4400-4402"]) == [7, 4400, 4401, 4402]
