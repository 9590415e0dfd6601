"""The three ways to regenerate the paper print the same report, and a
run answered from the store imports only what it executes.

Each run is a fresh interpreter, so imports made earlier in the test
session cannot hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.suite import EXPERIMENT_IDS
from repro.suite.experiments import EXPERIMENTS

SRC = Path(__file__).resolve().parents[2] / "src"

#: Runs ``repro.suite.runner.main`` on the arguments after the first and
#: writes the names of the modules the run loaded to the first.
PROBE = (
    "import json, sys\n"
    "from repro.suite.runner import main\n"
    "code = main(sys.argv[2:])\n"
    "with open(sys.argv[1], 'w') as out:\n"
    "    json.dump(sorted(sys.modules), out)\n"
    "raise SystemExit(code)\n"
)

#: What a warm ``--engine`` run never executes, so must never import.
MODELLING = ("numpy", "repro.apps", "repro.kernels", "repro.analysis",
             "repro.suite.experiments", "repro.machine")
#: The serial engine path runs no pool.
POOL = ("multiprocessing", "concurrent.futures")


def _run(cwd: Path, *args: str) -> tuple[str, list[str]]:
    """(stdout, loaded modules) of one suite run in a fresh interpreter."""
    modules = cwd / "modules.json"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(modules), *args],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout, json.loads(modules.read_text())


def _loaded(modules: list[str], packages: tuple[str, ...]) -> list[str]:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)]


def test_experiment_ids_name_the_registry_in_order():
    assert EXPERIMENT_IDS == tuple(EXPERIMENTS)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Plain, cold ``--engine`` and warm ``--engine``, one store."""
    cwd = tmp_path_factory.mktemp("regen")
    return {kind: _run(cwd, *args) for kind, args in (
        ("plain", ()), ("cold", ("--engine",)), ("warm", ("--engine",)),
    )}


def test_text_reports_are_byte_identical(runs):
    plain = runs["plain"][0]
    assert "ALL SHAPE CHECKS PASS: 76/76 checks over 18 experiments" in plain
    assert "vectorization: linpack:" in plain
    assert runs["cold"][0] == plain
    assert runs["warm"][0] == plain


def test_warm_run_imports_no_modelling_code(runs):
    modules = runs["warm"][1]
    assert _loaded(modules, MODELLING) == []
    assert _loaded(modules, POOL) == []
    # The cold run did build and analyze, through the same entry point.
    assert "repro.suite.experiments" in runs["cold"][1]
    assert "repro.analysis.traces" in runs["cold"][1]


def test_plain_run_imports_no_engine(runs):
    assert _loaded(runs["plain"][1], ("repro.engine",)) == []
