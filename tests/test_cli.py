"""CLI behavior: exit codes, output formats, worker determinism."""

import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import time
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path

import multiprocessing

import mpmath
import pytest

import lucasdisc
from lucasdisc import campaigns, lemmas
from lucasdisc.bounds import K_CAP, _ell, discriminant
from lucasdisc.campaigns import shard
from lucasdisc.cli import _nstr, run
from lucasdisc.roots import PrecisionError, dominant_root
from lucasdisc.sequences import FIBONACCI, LUCAS, SeqParams, term_iter

README = Path(__file__).resolve().parent.parent / "README.md"
BENCH_GATE = Path(__file__).resolve().parent.parent / "bench" / "gate.py"


def readme_cli_examples():
    """The lines of the sh block under README's "## CLI"."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return block.splitlines()


def test_term_example(capsys):
    assert run(["term", "--family", "lucas", "--k", "5", "--n", "9"]) == 0
    assert capsys.readouterr().out.strip() == "352"


def test_term_fibonacci(capsys):
    assert run(["term", "--family", "fibonacci", "--k", "2", "--n", "10"]) == 0
    assert capsys.readouterr().out.strip() == "55"


@pytest.mark.parametrize(
    "command,family,k,n",
    [
        ("term --k 60 --n 50000", LUCAS, 60, 50_000),
        ("term --k 5 --n 50000", LUCAS, 5, 50_000),
        ("term --family fibonacci --k 46 --n 47614", FIBONACCI, 46, 47_614),
    ],
)
def test_term_prints_a_large_term_in_full(command, family, k, n, capsys):
    # Over 14,000 digits: past the 4,300 that str(int) accepts.
    assert run(command.split()) == 0
    assert Decimal(capsys.readouterr().out.strip()) == next(term_iter(SeqParams(k, family), n))[1]


def test_disc_prints_a_large_discriminant_in_full(capsys):
    assert run(["disc", "--k", "2000"]) == 0
    value, nu2_line = capsys.readouterr().out.splitlines()
    assert Decimal(value) == discriminant(2000)
    assert nu2_line == "nu2 = 0"


def test_disc_example(capsys):
    assert run(["disc", "--k", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == ["44", "nu2 = 2"]


def test_nu2(capsys):
    assert run(["nu2", "--x", "352"]) == 0
    assert capsys.readouterr().out.strip() == "5"
    assert run(["nu2", "--x", "0"]) == 0
    assert capsys.readouterr().out.strip() == "inf"


def test_root(capsys):
    assert run(["root", "--k", "5"]) == 0
    out = capsys.readouterr().out
    assert "width <= 2^-128" in out
    assert "1.96594823664548" in out


@pytest.mark.parametrize("k, bits", [(3, 128), (300, 16), (1001, 1024)])
def test_root_prints_an_enclosure(k, bits, capsys):
    assert run(["root", "--k", str(k), "--precision-bits", str(bits)]) == 0
    lines = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line)
    lo, hi = Fraction(lines["lo"]), Fraction(lines["hi"])
    enc = dominant_root(k, bits)
    assert lo <= enc.lo < enc.hi <= hi
    assert hi - lo < Fraction(2, 2**bits)


def test_root_at_large_k(capsys):
    assert run(["root", "--k", "20001"]) == 0
    lines = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines() if " = " in line)
    assert Fraction(lines["lo"]) < Fraction(lines["hi"])


@pytest.fixture
def started(monkeypatch):
    """Every process a search starts from here on through multiprocessing.Process."""
    procs = []

    class Counting(multiprocessing.Process):
        def start(self):
            procs.append(self)
            super().start()

    monkeypatch.setattr(multiprocessing, "Process", Counting)
    return procs


def no_process(*args, **kwargs):
    raise AssertionError("a search started a process")


@pytest.mark.parametrize(
    "search",
    [
        ["small", "--k-max", "2"],
        ["small", "--k-max", "5"],
        ["case12", "--k-lo", "202", "--k-hi", "210"],
        ["case12", "--k-lo", "300", "--k-hi", "300"],
        ["case12"],
        ["case0"],
        ["case3", "--modulus-bits", "2"],
    ],
    ids=["small-1", "small-4", "case12-4", "case12-empty", "case12-full", "case0", "case3"],
)
def test_workers_clamped_to_work_units(monkeypatch, search, started, capsys):
    # Workers are capped at the CPU count, not at the campaign's work units:
    # shards past the units are empty and merge to the same bytes.  Piece 0
    # runs in the caller, so 3 workers start 2 processes.
    base = ["search"] + search + ["--format", "jsonl", "--no-timing"]
    assert run(base + ["--workers", "1"]) in (0, 1)
    one = capsys.readouterr().out
    assert started == []
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert run(base + ["--workers", "100000"]) in (0, 1)
    assert len(started) == 2
    assert capsys.readouterr().out == one
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, None])
def test_one_cpu_starts_no_pool(monkeypatch, cpus, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "Process", no_process)
    assert run(["search", "small", "--k-max", "30", "--workers", "2", "--format", "jsonl", "--no-timing"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["stage"] == "summary"


def test_search_defaults_to_one_worker(monkeypatch, capsys):
    monkeypatch.setattr(multiprocessing, "Process", no_process)
    assert run(["search", "small", "--format", "jsonl", "--no-timing"]) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["stage"] == "summary"


@pytest.mark.parametrize("search", [["case3", "--modulus-bits", "150"], ["small"]], ids=["case3", "small"])
@pytest.mark.parametrize("fmt", ["jsonl", "human"])
def test_search_through_a_worker_process_matches_one_worker(monkeypatch, started, search, fmt, capsys):
    # Rows cross the pipe as plain tuples; the human format reads c.k and
    # c.verdict, so it fails unless they come back as CandidatePair.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    base = ["search"] + search + ["--format", fmt, "--no-timing"]
    assert run(base + ["--workers", "1"]) == 0
    one = capsys.readouterr().out
    assert run(base + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == one
    assert len(started) == 1


def patch_pieces(monkeypatch, actions):
    """On 2 CPUs, make ``campaigns.shard`` call ``actions[piece]`` instead for the pieces named."""

    def patched(campaign, piece, of, **params):
        return actions.get(piece, shard)(campaign, piece, of, **params)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(campaigns, "shard", patched)


@pytest.mark.parametrize("failing", [0, 1])
def test_search_value_error_in_either_piece_exit_two(monkeypatch, started, failing, capsys):
    # The caller's own piece 0 or the worker's piece 1 fails; the other runs.
    def fails(*args, **params):
        raise ValueError("planted in piece %d" % failing)

    patch_pieces(monkeypatch, {failing: fails})
    assert run(["search", "small", "--workers", "2"]) == 2
    assert capsys.readouterr().err == "error: planted in piece %d\n" % failing
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def test_search_precision_error_in_a_worker_exit_three(monkeypatch, started, capsys):
    def undecided(*args, **params):
        raise PrecisionError("planted in piece 1")

    patch_pieces(monkeypatch, {1: undecided})
    assert run(["search", "case0", "--workers", "2"]) == 3
    assert capsys.readouterr().err == "undecided: planted in piece 1\n"
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def test_search_stops_a_running_worker_when_its_own_piece_fails(monkeypatch, started, capsys):
    def fails(*args, **params):
        raise ValueError("planted in piece 0")

    patch_pieces(monkeypatch, {0: fails, 1: lambda *args, **params: time.sleep(60)})
    t0 = time.monotonic()
    assert run(["search", "case0", "--workers", "2"]) == 2
    assert time.monotonic() - t0 < 30
    assert capsys.readouterr().err == "error: planted in piece 0\n"
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def test_search_names_a_worker_that_exits_without_a_report(monkeypatch, started):
    patch_pieces(monkeypatch, {1: lambda *args, **params: os._exit(1)})
    with pytest.raises(RuntimeError, match="piece 1 of 2 exited without a report"):
        campaigns.search("case0", workers=2)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def test_search_failed_self_check_exit_four(monkeypatch, capsys):
    def fails(**params):
        raise AssertionError("planted self-check")

    monkeypatch.setitem(campaigns._CAMPAIGNS, "case0", fails)
    assert run(["search", "case0", "--workers", "1"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("Traceback") and err.endswith("internal error: AssertionError: planted self-check\n")


def test_search_worker_without_a_report_exit_four(monkeypatch, started, capsys):
    patch_pieces(monkeypatch, {1: lambda *args, **params: os._exit(1)})
    assert run(["search", "case0", "--workers", "2"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("Traceback") and err.endswith("internal error: RuntimeError: piece 1 of 2 exited without a report\n")
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def test_usage_errors(capsys):
    assert run([]) == 2
    assert run(["term", "--k", "5"]) == 2
    assert run(["term", "--k", "1", "--n", "3"]) == 2
    assert run(["search", "bogus"]) == 2
    assert run(["search", "small", "--modulus-bits", "5"]) == 2
    assert run(["search", "case0", "--shard", "0/2"]) == 2
    assert run(["search", "case12", "--k-lo", "201", "--k-hi", "300"]) == 2
    assert run(["search", "case12", "--k-lo", "1000", "--k-hi", "500", "--workers", "1"]) == 2
    assert run(["search", "small", "--n-max", "100"]) == 2
    capsys.readouterr()
    assert run(["search", "small", "--workers", "0"]) == 2
    assert capsys.readouterr().err == "error: need workers >= 1, got 0\n"
    assert run(["search", "--workers", "2", "small"]) == 2  # options follow the campaign name
    assert run(["search", "case3", "--k-lo", "300"]) == 2


def test_search_help_lists_only_the_campaigns_own_options(capsys):
    assert run(["search", "case3", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--modulus-bits" in out
    assert "--k-max" not in out


@pytest.mark.parametrize("workers", ["1", "2"])
def test_search_domain_error_exit_two(monkeypatch, workers, started, capsys):
    # At --workers 2 piece 0 fails in this process and piece 1 in a worker.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert run(["search", "case12", "--k-lo", "201", "--workers", workers]) == 2
    assert capsys.readouterr().err == "error: k range not even-aligned: (201, 70000000)\n"
    assert len(started) == int(workers) - 1
    assert multiprocessing.active_children() == []


def test_search_case12_modulus_past_k_lo_minus_one_exit_two(capsys):
    argv = ["search", "case12", "--k-lo", "202", "--k-hi", "300", "--workers", "1", "--no-timing"]
    assert run(argv + ["--modulus-bits", "201"]) == 0
    capsys.readouterr()
    assert run(argv + ["--modulus-bits", "202"]) == 2
    assert "test_modulus_bits <= k_lo - 1" in capsys.readouterr().err


def test_search_unwritable_output_exit_two(tmp_path, capsys):
    target = tmp_path / "missing" / "report.jsonl"
    assert run(["search", "case0", "--workers", "1", "--output", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err


def test_verify_lemmas_subset(capsys):
    assert run(["verify-lemmas", "--suite", "recurrence", "--suite", "congruence_table"]) == 0
    out = capsys.readouterr().out
    assert "PASS recurrence" in out
    assert "PASS congruence_table" in out


def test_verify_lemmas_names_a_failing_suite_and_exits_one(monkeypatch, capsys):
    term = lemmas.term
    monkeypatch.setattr(lemmas, "term", lambda params, n: term(params, n) + (n == 7))
    assert run(["verify-lemmas", "--suite", "recurrence", "--suite", "closed_form"]) == 1
    out = capsys.readouterr().out
    assert "FAIL recurrence (14 failures)" in out
    assert out.count("term() disagrees with term_iter()") == 10  # the listing stops at ten
    assert "PASS closed_form" in out


def test_bounds(capsys):
    assert run(["bounds", "--k", "1024"]) == 0
    out = capsys.readouterr().out
    assert "65854579697213341" in out
    assert "58711" in out
    assert "65964094" in out
    assert "8 .. 57" in out
    assert "11243.9" in out
    assert "n in the window: 11244, 11245, 11246" in out


# 1024: w(k) = 11243.9 is rational; 2^40 and K_CAP - 1: the widest k.
@pytest.mark.parametrize("k", [222, 362, 1024, 2**40, K_CAP - 1])
def test_bounds_window_line_matches_mpmath_nstr(k, capsys):
    with mpmath.workprec(k.bit_length() + 80):
        w = k + (k - 2) * mpmath.log(k) / mpmath.log(2) - mpmath.mpf(1) / 10
        digits = len(str(int(w))) + 10
        expected = "  n window: (%s, %s)" % (mpmath.nstr(w, digits), mpmath.nstr(w + mpmath.mpf(24) / 10, digits))
    assert run(["bounds", "--k", str(k)]) == 0
    assert expected in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("x", ["11240.00000000001", "11239.99999999999", "11243.9000000000000001", "201.5"])
def test_window_digits_keep_one_decimal_like_mpmath_nstr(x):
    # A w(k) that rounds to an integer is shown as "N.0", as mpmath.nstr shows it.
    assert _nstr(Decimal(x), Context(prec=15)) == mpmath.nstr(mpmath.mpf(x), 15)


def test_bounds_rejects_small_k_before_printing(capsys):
    assert run(["bounds", "--k", "200"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "k > 200" in err


@pytest.mark.parametrize("k", [10**15, K_CAP])
def test_bounds_lists_the_exact_window_integers(k, capsys):
    assert run(["bounds", "--k", str(k)]) == 0
    out = capsys.readouterr().out
    window = re.search(r"n window: \((\S+), (\S+)\)", out)
    lo, hi = Fraction(window.group(1)), Fraction(window.group(2))
    assert abs(hi - lo - Fraction(12, 5)) < Fraction(1, 10**9)
    listed = [int(n) for n in re.search(r"n in the window: (.*)", out).group(1).split(", ")]
    assert listed == list(range(listed[0], listed[-1] + 1))
    assert lo < listed[0] and listed[-1] < hi
    ell = _ell(k)

    def member(n):
        return ell <= 10 * (n - k) <= ell + 23

    assert all(member(n) for n in listed)
    assert not member(listed[0] - 1)
    assert not member(listed[-1] + 1)


def test_search_small_exit_zero(capsys):
    assert run(["search", "small", "--k-max", "30", "--workers", "1", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "survivors: none" in out


def test_search_case12_jsonl_to_file(tmp_path):
    target = tmp_path / "report.jsonl"
    code = run(
        [
            "search",
            "case12",
            "--k-lo",
            "202",
            "--k-hi",
            "10000",
            "--workers",
            "1",
            "--format",
            "jsonl",
            "--no-timing",
            "--output",
            str(target),
        ]
    )
    assert code == 0
    lines = target.read_text().strip().split("\n")
    summary = json.loads(lines[-1])
    assert summary["stage_counts"][1] == ["window_residue_pairs", 10]
    assert summary["survivors"] == []


@pytest.mark.parametrize(
    "search",
    [
        ["small", "--k-max", "30"],
        ["case0"],
        ["case12", "--k-lo", "202", "--k-hi", "10000"],
    ],
    ids=["small", "case0", "case12"],
)
def test_search_worker_count_does_not_change_bytes(search, capsys):
    base = ["search"] + search + ["--format", "jsonl", "--no-timing"]
    assert run(base + ["--workers", "1"]) == 0
    one = capsys.readouterr().out
    assert run(base + ["--workers", "3"]) == 0
    three = capsys.readouterr().out
    assert one == three


def test_paper_searches_pass_the_bench_gate(monkeypatch, capsys):
    # bench/gate.py, loaded without writing bytecode under bench/: a report
    # that the benchmark's verdict gate would reject fails here first.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_gate", BENCH_GATE)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    for label, args in gate.SEARCHES:
        code = run(["search", *args, "--format", "jsonl", "--no-timing"])
        assert gate.check_search(label, code, capsys.readouterr().out) == [], label


def test_human_format_caps_candidate_listing(capsys):
    assert run(["search", "case3", "--workers", "1", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "more (use jsonl for the full list)" in out
    assert "survivors: none" in out


def test_search_survivors_exit_one(capsys):
    # degenerate 1-bit modulus: every stage-1 pair trivially survives
    code = run(
        [
            "search",
            "case12",
            "--k-lo",
            "202",
            "--k-hi",
            "10000",
            "--workers",
            "1",
            "--modulus-bits",
            "1",
            "--no-timing",
        ]
    )
    assert code == 1
    assert "survivors: 10" in capsys.readouterr().out


def test_search_undecided_exit_three(monkeypatch, capsys):
    # Power bounds whose bit lengths never agree leave l(k) undecidable.
    monkeypatch.setattr("lucasdisc.bounds._pow_bounds", lambda x, n, w: (1, 2, 0))
    code = run(["search", "case12", "--k-lo", "202", "--k-hi", "10000", "--workers", "1"])
    assert code == 3
    assert capsys.readouterr().err.startswith("undecided: window")


@pytest.mark.parametrize("line", readme_cli_examples())
def test_readme_cli_example_runs(line, tmp_path, monkeypatch, capsys):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)
    assert argv[0] == "lucasdisc"
    monkeypatch.chdir(tmp_path)  # a search example may write its --output file
    assert run(argv[1:]) == 0
    # A comment that starts with a number gives the first value printed.
    expected = re.match(r"\s*(\d+)\b", comment)
    if expected:
        assert capsys.readouterr().out.split()[0] == expected.group(1)


def test_cli_import_does_not_load_numpy():
    src = str(Path(lucasdisc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import lucasdisc.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
