"""Self-tests of the benchmark: the verdict gate, percentiles, spans, inputs.

    python3 -m pytest -q bench/test_bench.py

They use synthetic reports, so they run in about a second and need no
campaign run.
"""

import json
import math
import os
import time

import pytest

import calib
import gate
import inputs
import percentiles
import run
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _line(row: dict) -> str:
    return json.dumps(row, sort_keys=True, separators=(",", ":"))


def _report(campaign: str, rows: list[dict], counts: list, survivors: list) -> str:
    summary = {"campaign": campaign, "stage": "summary", "stage_counts": counts, "survivors": survivors}
    return "".join(_line(r) + "\n" for r in rows + [summary])


def _row(campaign: str, k: int, n: int, m: int, verdict: str = "eliminated") -> dict:
    return {"campaign": campaign, "k": k, "n": n, "m": m, "r": 3, "stage": "valuation", "verdict": verdict}


def good_reports() -> dict[str, str]:
    case12_rows = [_row("case12", 202 + 2 * i, 1000 + i, 5) for i in range(32)]
    case3_rows = [_row("case3", 301 + 2 * i, 3000 + i, 20) for i in range(12_219)]
    survivors = [list(p) for p in gate.CASE3_100_SURVIVORS]
    case3_100_rows = [
        _row("case3", k, n, m, "survivor")
        for (k, n), m in zip(gate.CASE3_100_SURVIVORS, (46, 48, 50, 50, 51, 52, 52, 52, 52, 53, 54, 54, 55, 55))
    ]
    return {
        "small": _report("small", [], [["terms_examined", 157411], ["equality_hits", 0]], []),
        "case0": _report("case0", [], [["odd_k_checked", 99], ["clashes_missing", 0]], []),
        "case12": _report("case12", case12_rows, [["k_scanned", 34999899], ["window_residue_pairs", 32],
                                                  ["modulus_survivors", 0]], []),
        "case3": _report("case3", case3_rows, [["triples_enumerated", 3340584], ["valuation_matches", 12219],
                                               ["congruence_survivors", 0]], []),
        "case3_100": _report("case3", case3_100_rows, [["triples_enumerated", 3340584],
                                                       ["valuation_matches", 12219],
                                                       ["congruence_survivors", 14]], survivors),
    }


def test_gate_accepts_the_frozen_facts():
    for label, text in good_reports().items():
        assert gate.check_search(label, gate.EXPECTED_EXIT[label], text) == [], label


def test_gate_rejects_31_window_pairs():
    rows = [_row("case12", 202 + 2 * i, 1000 + i, 5) for i in range(31)]
    text = _report("case12", rows, [["k_scanned", 34999899], ["window_residue_pairs", 31],
                                    ["modulus_survivors", 0]], [])
    assert gate.check_search("case12", 0, text)


def test_gate_rejects_an_injected_survivor():
    reports = good_reports()
    for label in ("small", "case0", "case12", "case3"):
        rows, summary = gate.parse_report(reports[label])
        summary["survivors"] = [[401, 9001]]
        text = "".join(_line(r) + "\n" for r in rows + [summary])
        assert gate.check_search(label, gate.EXPECTED_EXIT[label], text), label
    rows, summary = gate.parse_report(reports["case3_100"])
    summary["survivors"].append([301, 3000])
    text = "".join(_line(r) + "\n" for r in rows + [summary])
    assert gate.check_search("case3_100", 1, text)


def test_gate_rejects_a_survivor_outside_the_m_band():
    rows, summary = gate.parse_report(good_reports()["case3_100"])
    rows[0]["m"] = 56
    text = "".join(_line(r) + "\n" for r in rows + [summary])
    assert gate.check_search("case3_100", 1, text)


def test_gate_rejects_one_changed_byte_in_the_sharded_report():
    reference = good_reports()["case12"].encode()
    assert gate.check_same_bytes("case12", reference, reference) == []
    for at in (0, len(reference) // 2, len(reference) - 2):
        doctored = bytearray(reference)
        doctored[at] ^= 1
        assert gate.check_same_bytes("case12", bytes(doctored), reference)
    assert gate.check_same_bytes("case12", reference[:-1], reference)


def test_gate_rejects_an_unexpected_exit_code():
    reports = good_reports()
    assert gate.check_search("case3_100", 0, reports["case3_100"])
    assert gate.check_search("small", 1, reports["small"])
    assert gate.check_search("case3", 2, reports["case3"])


def test_gate_rejects_an_unreadable_report():
    assert gate.check_search("small", 0, "")
    assert gate.check_search("small", 0, good_reports()["small"].splitlines()[0][:-1])


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        percentiles.percentile(list(range(99)), 90)
    assert percentiles.percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        percentiles.percentile(list(range(19)), 50)
    assert percentiles.percentile(list(range(1, 21)), 50) == 10
    assert percentiles.samples_beyond(100, 90) == 10


def test_ops_are_rescaled_by_the_speed_samples_taken_during_them():
    ref = calib.REFERENCE_S
    samples = [calib.Sample(at, loop_s, 0.001) for at, loop_s in ((0.0, ref), (1.0, ref * 2), (1.5, ref), (3.0, ref))]
    got = calib.op_factors(samples, [(0.5, 2.0), (2.0, 2.5), (-1.0, -0.5)])
    # Samples inside the window, their handler time subtracted; otherwise the nearest around it.
    assert got[0] == pytest.approx(((0.5 + 1.0) / 2, 0.002))
    assert got[1] == pytest.approx((1.0, 0.0))
    assert got[2] == pytest.approx((1.0, 0.0))


def test_ticker_samples_while_the_process_works():
    ticker = calib.Ticker()
    ticker.start()
    deadline = time.process_time() + 5 * calib.TICK_CPU_S
    while time.process_time() < deadline:
        pass
    samples = ticker.stop()
    assert len(samples) >= 4
    assert all(s.cost_s >= s.loop_s > 0 for s in samples)


def test_a_tick_during_a_sample_is_dropped(tmp_path, monkeypatch):
    # A pool worker's ticker writes each sample to a file; a tick that arrives
    # inside the handler must neither write nor raise into the program.
    ticker = calib.Ticker(str(tmp_path))
    ticker._fd = os.open(str(tmp_path / "1.ticks"), os.O_WRONLY | os.O_CREAT)
    real_loop = calib.loop

    def loop_with_a_tick_inside():
        ticker._tick(None, None)
        return real_loop()

    monkeypatch.setattr(calib, "loop", loop_with_a_tick_inside)
    ticker.sample()
    ticker.sample()
    os.close(ticker._fd)
    assert len(ticker.samples) == 2
    assert [len(s) for s in calib.read_child_samples(str(tmp_path)).values()] == [2]


def _span(sid, parent, start, end, name="x"):
    return tracing.Span(sid, parent, name, start, end, None)


def test_self_time_subtracts_nested_children():
    spans = [_span("1:1", None, 0.0, 10.0), _span("1:2", "1:1", 2.0, 5.0), _span("1:3", "1:2", 3.0, 4.0)]
    own = tracing.self_times(spans)
    assert own == pytest.approx({"1:1": 7.0, "1:2": 2.0, "1:3": 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span("1:1", None, 0.0, 10.0),
        _span("2:1", "1:1", 1.0, 6.0),  # two pool workers, overlapping
        _span("3:1", "1:1", 4.0, 8.0),
        _span("3:2", "1:1", 7.5, 12.0),  # outlasts its parent: clipped at 10
    ]
    own = tracing.self_times(spans)
    assert own["1:1"] == pytest.approx(10.0 - 9.0)
    assert own["2:1"] == pytest.approx(5.0)


def test_tracer_links_parents_and_writes_spans(tmp_path):
    tracer = tracing.Tracer(str(tmp_path))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("failing", lambda: 1 / 0)()
    tracer.flush()
    spans = {s.name: s for s in tracing.read_spans(str(tmp_path))}
    assert spans["inner"].parent == spans["outer"].sid
    assert spans["outer"].parent is None
    assert spans["failing"].error == "ZeroDivisionError"


def test_plans_depend_on_the_seed_only():
    assert inputs.query_plan(7) == inputs.query_plan(7)
    assert inputs.query_plan(7) != inputs.query_plan(8)
    plan = inputs.query_plan(7)
    assert len({json.dumps(op) for op in plan}) == len(plan)
    roots = [op[1] for op in plan if op[0] == "dominant_root"]
    assert len(set(roots)) == len(roots)
    kinds = sorted(op[0] for op in plan)
    assert kinds == sorted(op[0] for op in inputs.query_plan(8))
    # certify: the seed permutes the grids but never changes the work
    assert sorted(map(json.dumps, inputs.certify_plan(1))) == sorted(map(json.dumps, inputs.certify_plan(2)))


def test_query_oracles_reject_wrong_answers():
    assert inputs.check_query(["term", 2, 10], "%x" % 123) == []
    assert inputs.check_query(["term", 2, 10], "%x" % 124)
    assert inputs.check_query(["term", 3, 9], "%x" % 217) == []  # 2, 1, 3, 6, 10, 19, 35, 64, 118, 217
    assert inputs.check_query(["discriminant", 3], "%x" % 44) == []
    assert inputs.check_query(["discriminant", 3], "%x" % 45)
    phi = (1 + 5**0.5) / 2
    lo = math.floor(phi * 2**16)
    good = ["%x" % v for v in (lo, 2**16, lo + 1, 2**16, 16)]
    assert inputs.check_query(["dominant_root", 2, 16], good) == []
    swapped = [good[2], good[1], good[0], good[3], good[4]]
    assert inputs.check_query(["dominant_root", 2, 16], swapped)
    shifted = ["%x" % v for v in (lo + 1, 2**16, lo + 2, 2**16, 16)]
    assert inputs.check_query(["dominant_root", 2, 16], shifted)
    assert inputs.check_query(["nu2", "3", 5], 5) == []
    assert inputs.check_query(["nu2", "3", 5], 4)


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
