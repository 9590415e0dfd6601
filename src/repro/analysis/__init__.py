"""Static analysis: vectorization diagnostics and repo-invariant lint.

Three analyzers share one diagnostics vocabulary
(:class:`~repro.analysis.diagnostics.Diagnostic`):

* the **trace analyzer** (:mod:`repro.analysis.traces` +
  :mod:`repro.analysis.rules`) inspects machine-model traces for the
  coding-style anti-patterns Section 4.4 of the paper identifies — short
  vectors, bank-conflict strides, gather-dominated and scalar-dominated
  loops — and quantifies each with the analytic model (advisory);
* the **repo linter** (:mod:`repro.analysis.repolint`) enforces the
  repository's structural invariants over the AST (CI-gating);
* the **effect analyzer** (:mod:`repro.analysis.effects`) builds an
  import-resolved call graph over a whole package, propagates
  per-function effect summaries to a fixpoint, and proves the engine's
  cache-key determinism and pool-worker purity contracts (the DET rule
  family, CI-gating against a checked-in baseline).

Only the trace analyzer is re-exported here, since every suite, service
and explorer run imports this package; the two static analyzers are
CLI/CI tools, imported from their own modules.

Run any of them from the command line::

    python -m repro.analysis trace radabs
    python -m repro.analysis repolint
    python -m repro.analysis effects src/repro
"""

from repro.analysis.diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Severity,
    count_by_rule,
)
from repro.analysis.rules import ALL_RULES
from repro.analysis.traces import (
    EXPERIMENT_TRACE_IDS,
    TRACE_BUILDERS,
    analyze_benchmark,
    analyze_trace,
    build_registered_trace,
    trace_summary_line,
)

__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "count_by_rule",
    "ALL_RULES",
    "analyze_trace",
    "analyze_benchmark",
    "build_registered_trace",
    "trace_summary_line",
    "TRACE_BUILDERS",
    "EXPERIMENT_TRACE_IDS",
]
