"""The package surface: its names, what they are bound to, what it imports."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import lucasdisc

# The public names of each module; the package exports these and __version__.
PUBLIC = {
    "sequences": [
        "FIBONACCI", "LUCAS", "SeqParams", "binom_ext", "term", "term_iter",
    ],
    "twoadic": [
        "disc_match", "disc_nu2", "l_quantity", "l_quantity_nu2", "lucas_congruence_parts", "nu2",
    ],
    "roots": [
        "MAX_PRECISION_BITS", "PrecisionError", "RootEnclosure", "binet_error_check",
        "binet_vs_power2_check", "dominant_root", "growth_bounds_check",
    ],
    "bounds": [
        "BoundProfile", "MatveevBound", "bl_crossover_k", "bound_profile", "discriminant",
        "localize_k_by_power2", "m_range", "n_window", "solve_bl_k_bound",
        "solve_matveev_k_bound", "window_integers",
    ],
    "campaigns": [
        "CAMPAIGN_NAMES", "CampaignReport", "CandidatePair", "campaign_case0", "campaign_case12",
        "campaign_case3", "campaign_small", "merge_reports", "report_to_jsonl", "search", "shard",
    ],
    "lemmas": ["Failure", "SUITES", "run_suite"],
}


def test_package_exports_each_public_name_once():
    expected = [name for names in PUBLIC.values() for name in names] + ["__version__"]
    assert len(expected) == 45
    assert len(lucasdisc.__all__) == len(set(lucasdisc.__all__))
    assert sorted(lucasdisc.__all__) == sorted(expected)


def test_package_names_are_the_module_objects():
    for module, names in PUBLIC.items():
        mod = importlib.import_module("lucasdisc." + module)
        for name in names:
            assert getattr(lucasdisc, name) is getattr(mod, name), (module, name)


def run_python(code):
    src = str(Path(lucasdisc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60, stdout=subprocess.DEVNULL)


def test_runtime_runs_without_mpmath():
    # mpmath is a test-only oracle: with every import of it failing, the
    # package and each kind of CLI command still run.
    run_python(
        "import sys; sys.modules['mpmath'] = None\n"
        "import lucasdisc, lucasdisc.cli as cli\n"
        "for argv in (['bounds', '--k', '1024'], ['root', '--k', '5', '--precision-bits', '128'],\n"
        "             ['search', 'case0', '--format', 'jsonl', '--no-timing']):\n"
        "    assert cli.run(argv) == 0, argv\n"
    )


def test_package_import_leaves_the_cli_out():
    run_python("import lucasdisc, sys; assert 'lucasdisc.cli' not in sys.modules")


def test_cli_import_leaves_multiprocessing_out():
    # search runs its shards in this process, so no CLI call pays for the import.
    run_python("import lucasdisc.cli, sys; assert 'multiprocessing' not in sys.modules")
