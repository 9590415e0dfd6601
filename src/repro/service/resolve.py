"""Pure job resolution: from a validated request payload to the work.

The service's job-execution path splits in two, deliberately:

* **resolution** (this module) maps a validated request payload onto
  the things the engine will run — suite experiment ids in paper order,
  or a built :class:`~repro.explore.sweep.ParameterSweep` — without
  reading a clock, the environment, or the filesystem;
* **execution** (:mod:`repro.service.app`) feeds the resolved work to
  :func:`repro.engine.executor.run_engine` /
  :func:`repro.explore.engine.cost_suite_grid`, which own timing,
  caching, and fan-out.

The resolvers in :data:`JOB_RESOLVERS` are registered as builder entry
points (:func:`repro.engine.deps.builder_entry_points` enumerates the
dict literal below statically), so the whole-program effect analyzer
(DET001–DET006) proves the request-handler path reaches only
deterministic builders: a request body resolves to the same work, and
the same cache keys, on every server that ever sees it.  That is what
makes request-body digests safe to use as job ids.
"""

from __future__ import annotations

from repro.analysis.traces import TRACE_BUILDERS
from repro.explore.sweep import Axis, ParameterSweep
from repro.suite.experiments import EXPERIMENTS

__all__ = [
    "JOB_RESOLVERS",
    "resolve_suite",
    "resolve_sweep",
]


def resolve_suite(payload: dict) -> tuple[str, ...]:
    """Experiment ids a suite payload dispatches, in paper order.

    ``payload["ids"]`` selects a subset (order preserved — it is part
    of the request identity); an absent or empty list means the whole
    suite.  Unknown ids raise ``ValueError`` — the handler turns that
    into an HTTP 400 before a job record is ever created.
    """
    ids = payload.get("ids") or list(EXPERIMENTS)
    unknown = [exp_id for exp_id in ids if exp_id not in EXPERIMENTS]
    if unknown:
        raise ValueError(
            f"unknown experiment id(s): {', '.join(unknown)}; "
            f"valid ids: {', '.join(EXPERIMENTS)}"
        )
    return tuple(ids)


def resolve_sweep(payload: dict) -> ParameterSweep:
    """The :class:`ParameterSweep` a sweep payload describes.

    Axes arrive as explicit value lists (``{"parameter": ..., "values":
    [...]}``) — the client lowers linear/log specs itself, so the
    request body fully determines the grid and therefore the chunk
    cache keys.  Validation (unknown parameters, empty axes, cache-only
    anchors with vector axes, axis values no machine can take) happens
    inside the sweep model, in time linear in the number of values.
    """
    unknown = [
        trace_id
        for trace_id in payload.get("traces") or ()
        if trace_id not in TRACE_BUILDERS
    ]
    if unknown:
        raise ValueError(
            f"unknown trace id(s): {', '.join(unknown)}; "
            f"valid ids: {', '.join(TRACE_BUILDERS)}"
        )
    axes = tuple(
        Axis(
            parameter=str(axis["parameter"]),
            values=tuple(float(v) for v in axis["values"]),
        )
        for axis in payload.get("axes", ())
    )
    return ParameterSweep(
        anchor=str(payload.get("anchor", "sx4")),
        axes=axes,
        include_presets=bool(payload.get("include_presets", False)),
    ).check()


#: Job kind -> resolver.  The dict literal is statically enumerated by
#: :func:`repro.engine.deps.builder_entry_points`, which places every
#: resolver under the DET determinism contract next to the experiment
#: builders themselves.
JOB_RESOLVERS = {
    "suite": resolve_suite,
    "sweep": resolve_sweep,
}
