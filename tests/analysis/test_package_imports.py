"""The runtime entry points do not pay for the static analyzers.

``repro.analysis`` re-exports the trace analyzer, which the suite runner,
the service and the explorer use on every run.  The repo linter and the
effect analyzer are CLI/CI tools; importing them costs tens of
milliseconds of AST machinery no runtime path needs.  Each check runs in
a fresh interpreter so earlier imports in the test session cannot hide
an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

STATIC_ANALYZERS = ("repro.analysis.effects", "repro.analysis.repolint")


@pytest.mark.parametrize(
    "module", ["repro.suite.runner", "repro.service.app", "repro.explore.engine"]
)
def test_runtime_module_leaves_static_analyzers_unimported(module):
    probe = (
        f"import json, sys, {module}\n"
        f"print(json.dumps([m for m in {list(STATIC_ANALYZERS)!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == []


def test_trace_analyzer_names_stay_importable():
    from repro.analysis import TRACE_BUILDERS, analyze_trace, build_registered_trace

    assert callable(analyze_trace) and callable(build_registered_trace)
    assert TRACE_BUILDERS
