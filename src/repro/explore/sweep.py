"""Parameter sweeps: cartesian machine grids anchored at calibrated presets.

A sweep names an anchor preset (any id in
:data:`repro.machine.presets.PRESET_FACTORIES`) and a list of axes —
``(parameter, values)`` pairs built with :func:`linear_axis`,
:func:`log_axis`, or :func:`explicit_axis`.  :meth:`ParameterSweep.build`
lowers the anchor into a one-row :class:`~repro.machine.grid.MachineGrid`,
repeats it over the cartesian product of the axes, and writes each axis
into its grid column — thousands of hypothetical machines without ever
constructing a :class:`~repro.machine.processor.Processor`.

Two axis families exist:

* **direct** parameters name a component constructor argument
  (``"clock.period_ns"``, ``"vector.pipes"``, ``"memory.banks"``, ...)
  and overwrite the column;
* **degradation** parameters (``"degraded.offline_pipes"``,
  ``"degraded.offline_banks"``) replicate
  :func:`repro.faults.degraded.degrade_processor`'s arithmetic on the
  columns — pipes shrink and the surviving pipes' intrinsic rates scale
  up by ``pipes / remaining``, exactly as the per-machine constructor
  does, so a sweep point materializes to the same machine a
  ``DegradedMachine`` would build.

Direct axes apply before degradation axes (degradations read the swept
pipe/bank counts), matching "build the variant, then degrade it".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.machine.grid import MachineGrid
from repro.machine.presets import canonical_machines, preset_processor

__all__ = [
    "Axis",
    "ParameterSweep",
    "PARAMETERS",
    "linear_axis",
    "log_axis",
    "explicit_axis",
]


@dataclass(frozen=True)
class _ParameterSpec:
    """How one sweepable parameter maps onto grid columns."""

    column: str | None  # direct grid column, None for degradations
    integer: bool = False  # values are rounded to integers
    vector_only: bool = False  # requires a vector-machine anchor
    degrade: str | None = None  # "pipes" | "banks"


#: Every sweepable parameter.  Dotted names mirror the component
#: constructor the value feeds (``repro.machine.grid`` column names are
#: the flat spelling of the same parameters).
PARAMETERS: dict[str, _ParameterSpec] = {
    "clock.period_ns": _ParameterSpec(column="period_ns"),
    "vector.pipes": _ParameterSpec(column="pipes", integer=True, vector_only=True),
    "vector.concurrent_sets": _ParameterSpec(
        column="concurrent_sets", integer=True, vector_only=True
    ),
    "vector.startup_cycles": _ParameterSpec(column="startup_cycles", vector_only=True),
    "vector.register_length": _ParameterSpec(
        column="register_length", integer=True, vector_only=True
    ),
    "vector.stripmine_cycles": _ParameterSpec(column="stripmine_cycles", vector_only=True),
    "memory.banks": _ParameterSpec(column="banks", integer=True, vector_only=True),
    "memory.bank_busy_cycles": _ParameterSpec(column="bank_busy_cycles", vector_only=True),
    "memory.port_words_per_cycle": _ParameterSpec(
        column="port_words_per_cycle", vector_only=True
    ),
    "memory.stride_base_penalty": _ParameterSpec(
        column="stride_base_penalty", vector_only=True
    ),
    "memory.gather_base_penalty": _ParameterSpec(
        column="gather_base_penalty", vector_only=True
    ),
    "scalar.issue_width": _ParameterSpec(column="issue_width"),
    "scalar.flops_per_cycle": _ParameterSpec(column="flops_per_cycle"),
    "cache.size_bytes": _ParameterSpec(column="cache_size_bytes", integer=True),
    "cache.line_bytes": _ParameterSpec(column="cache_line_bytes", integer=True),
    "cache.hit_cycles_per_word": _ParameterSpec(column="cache_hit_cycles_per_word"),
    "cache.mem_words_per_cycle": _ParameterSpec(column="cache_mem_words_per_cycle"),
    "degraded.offline_pipes": _ParameterSpec(
        column=None, integer=True, vector_only=True, degrade="pipes"
    ),
    "degraded.offline_banks": _ParameterSpec(
        column=None, integer=True, vector_only=True, degrade="banks"
    ),
}


@dataclass(frozen=True)
class Axis:
    """One swept parameter and the values it takes."""

    parameter: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.parameter not in PARAMETERS:
            known = ", ".join(sorted(PARAMETERS))
            raise ValueError(f"unknown sweep parameter {self.parameter!r} (known: {known})")
        if not self.values:
            raise ValueError(f"axis {self.parameter!r} needs at least one value")


def linear_axis(parameter: str, start: float, stop: float, steps: int) -> Axis:
    """``steps`` evenly spaced values from start to stop, inclusive."""
    if steps < 1:
        raise ValueError(f"axis {parameter!r} needs at least one step, got {steps}")
    return Axis(parameter, tuple(float(v) for v in np.linspace(start, stop, steps)))


def log_axis(parameter: str, start: float, stop: float, steps: int) -> Axis:
    """``steps`` geometrically spaced values from start to stop, inclusive."""
    if steps < 1:
        raise ValueError(f"axis {parameter!r} needs at least one step, got {steps}")
    if start <= 0 or stop <= 0:
        raise ValueError(f"log axis {parameter!r} needs positive endpoints")
    return Axis(parameter, tuple(float(v) for v in np.geomspace(start, stop, steps)))


def explicit_axis(parameter: str, values) -> Axis:
    """An axis over explicitly listed values."""
    return Axis(parameter, tuple(float(v) for v in values))


def _format_value(value: float, integer: bool) -> str:
    return str(int(round(value))) if integer else format(value, "g")


@dataclass(frozen=True)
class ParameterSweep:
    """A cartesian sweep around one anchor preset.

    ``include_presets`` prepends the six canonical machines
    (:func:`repro.machine.presets.canonical_machines`) to the built
    grid — the embedded parity anchor CI's explore-smoke job checks,
    and the reference rows rank-inversion maps compare against.
    """

    anchor: str
    axes: tuple[Axis, ...] = ()
    include_presets: bool = False

    @property
    def n_points(self) -> int:
        """Sweep points, excluding any prepended presets."""
        return math.prod(len(axis.values) for axis in self.axes)

    def build(self) -> MachineGrid:
        """The sweep as a validated :class:`MachineGrid`."""
        # Cartesian product: first axis varies slowest (meshgrid "ij").
        meshes = np.meshgrid(
            *[np.array(axis.values, dtype=np.float64) for axis in self.axes], indexing="ij"
        )
        flattened = [mesh.reshape(-1) for mesh in meshes]
        grid = self._grid(flattened)
        swept = MachineGrid(
            names=self._point_names(flattened), **{k: v for k, v in grid._columns()}
        )
        swept.validate()
        if not self.include_presets:
            return swept
        presets = MachineGrid.from_processors(list(canonical_machines().values()))
        return MachineGrid.concat([presets, swept])

    def check(self) -> "ParameterSweep":
        """This sweep, or ``ValueError`` exactly when :meth:`build` would
        raise, in time linear in the number of axis values: each value gets
        a row, every other direct axis at its smallest value and nothing else
        offline — the binding case of the only two-parameter constraints (a
        line within the cache, offline pipes or banks below the swept count).
        """
        lowest = [0.0 if PARAMETERS[a.parameter].degrade else min(a.values) for a in self.axes]
        flattened = [
            np.concatenate([
                np.array(axis.values if j == i else [lowest[j]] * len(axis.values))
                for i, axis in enumerate(self.axes)
            ])
            for j in range(len(self.axes))
        ]
        self._grid(flattened).validate()
        return self

    def _grid(self, flattened: list[np.ndarray]) -> MachineGrid:
        """The anchor once per row, axis ``i`` set to ``flattened[i]`` (unnamed, unvalidated)."""
        base = preset_processor(self.anchor)
        for axis in self.axes:
            if PARAMETERS[axis.parameter].vector_only and base.vector is None:
                raise ValueError(
                    f"parameter {axis.parameter!r} needs a vector-machine anchor; "
                    f"{self.anchor!r} is a cache machine"
                )
        n = len(flattened[0]) if flattened else 1
        grid = MachineGrid.from_processors([base]).subset(np.zeros(n, dtype=np.intp))

        # Direct axes apply first: degradations read the swept pipe and bank counts.
        def degrades(pair) -> bool:
            return PARAMETERS[pair[0].parameter].degrade is not None

        for axis, values in sorted(zip(self.axes, flattened), key=degrades):
            spec = PARAMETERS[axis.parameter]
            if spec.degrade is None:
                column = getattr(grid, spec.column)
                column[:] = (np.rint(values) if spec.integer else values).astype(column.dtype)
                continue
            offline = np.rint(values)
            if spec.degrade == "pipes":
                remaining = grid.pipes - offline
                if (remaining < 1.0).any():
                    raise ValueError(
                        f"axis {axis.parameter!r} takes every pipe offline at "
                        f"some sweep point (a degraded vector unit keeps >= 1)"
                    )
                # Exactly degrade_processor's arithmetic: surviving pipes
                # carry the intrinsic load, so per-element rates scale by
                # pipes / remaining.
                scale = grid.pipes / remaining
                grid.vector_intrinsic_rates[:] = grid.vector_intrinsic_rates * scale[:, None]
                grid.pipes[:] = remaining
            else:
                remaining_banks = grid.banks - offline.astype(np.int64)
                if (remaining_banks < 1).any():
                    raise ValueError(
                        f"axis {axis.parameter!r} takes every bank offline at "
                        f"some sweep point (a degraded memory keeps >= 1)"
                    )
                grid.banks[:] = remaining_banks
        return grid

    def _point_names(self, flattened: list[np.ndarray]) -> tuple[str, ...]:
        if not self.axes:
            return (self.anchor,)
        names = []
        for i in range(self.n_points):
            parts = ",".join(
                f"{axis.parameter}={_format_value(values[i], PARAMETERS[axis.parameter].integer)}"
                for axis, values in zip(self.axes, flattened)
            )
            names.append(f"{self.anchor}[{parts}]")
        return tuple(names)
