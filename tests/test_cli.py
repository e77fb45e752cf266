"""CLI behavior: exit codes, output formats, worker determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import lucasdisc
from lucasdisc.bounds import K_CAP, _window_member_exact, discriminant
from lucasdisc.cli import run
from lucasdisc.roots import PrecisionError, dominant_root
from lucasdisc.sequences import FIBONACCI, LUCAS, SeqParams, term_iter

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_examples():
    """The lines of the sh block under README's "## CLI", searches left out."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.split()[1] != "search"]


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


def test_usage_errors():
    assert run([]) == 2
    assert run(["term", "--k", "5"]) == 2
    assert run(["term", "--k", "1", "--n", "3"]) == 2
    assert run(["search", "bogus"]) == 2
    assert run(["search", "small", "--modulus-bits", "5"]) == 2
    assert run(["search", "case12", "--shard", "0/2", "--workers", "2"]) == 2
    assert run(["search", "case12", "--shard", "5"]) == 2
    assert run(["search", "case0", "--shard", "2/2"]) == 2
    assert run(["search", "case12", "--k-lo", "201", "--k-hi", "300"]) == 2
    assert run(["search", "case12", "--k-lo", "1000", "--k-hi", "500", "--workers", "1"]) == 2


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


def test_bounds(capsys):
    assert run(["bounds", "--k", "1024"]) == 0
    out = capsys.readouterr().out
    assert "65854579697213341" in out
    assert "58711" in out
    assert "65964094" in out
    assert "8 .. 57" in out
    assert "11243.9" in out
    assert "n in the window: 11244, 11245, 11246" in out


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
    assert all(_window_member_exact(k, n) for n in listed)
    assert not _window_member_exact(k, listed[0] - 1)
    assert not _window_member_exact(k, listed[-1] + 1)


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


def test_search_shard_flag(capsys):
    assert run(
        [
            "search",
            "case12",
            "--k-lo",
            "202",
            "--k-hi",
            "10000",
            "--shard",
            "1/3",
            "--format",
            "jsonl",
            "--no-timing",
        ]
    ) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary["ranges"]["shard"] == {"of": 3, "pieces": [1]}


def test_search_csv_format(capsys):
    assert run(
        ["search", "case12", "--k-lo", "202", "--k-hi", "10000", "--workers", "1", "--format", "csv"]
    ) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "campaign,stage,k,n,r,m,a,verdict"
    assert len(lines) == 11
    assert lines[1].startswith("case12,window_residue,274,2477,2,9,,")


def test_human_format_caps_candidate_listing(capsys):
    assert run(["search", "case3", "--workers", "1", "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "more (use jsonl or csv for the full list)" in out
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
    def undecided(k, n):
        raise PrecisionError("window membership for k=%d n=%d undecided" % (k, n))

    monkeypatch.setattr("lucasdisc.campaigns._window_member_exact", undecided)
    code = run(["search", "case12", "--k-lo", "202", "--k-hi", "10000", "--workers", "1"])
    assert code == 3
    assert capsys.readouterr().err.startswith("undecided: window membership")


@pytest.mark.parametrize("line", readme_cli_examples())
def test_readme_cli_example_runs(line, capsys):
    command, _, comment = line.partition("#")
    argv = shlex.split(command)
    assert argv[0] == "lucasdisc"
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
