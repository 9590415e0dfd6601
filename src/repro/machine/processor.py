"""Processor model: executes operation traces and reports performance.

A :class:`Processor` is a clock plus a scalar unit plus, for vector
machines, a vector unit and a banked-memory port.  ``execute`` walks a
:class:`~repro.machine.operations.Trace` and produces an
:class:`ExecutionReport` carrying wall time, Mflops (both raw and
Cray-equivalent), and sustained memory bandwidth — the three quantities
the paper's tables and figures report.

This per-op walk is the only single-machine costing path.  Costing many
machines at once is :mod:`repro.machine.grid`'s job.  Both paths
evaluate the same formulas (:mod:`repro.machine.costs`), here on Python
numbers and there on machine columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.machine import costs
from repro.machine.clock import Clock
from repro.machine.costs import SCALAR
from repro.machine.memory import AccessFactors, BankedMemory
from repro.machine.operations import ScalarOp, Trace, VectorOp
from repro.machine.scalar_unit import ScalarUnit
from repro.machine.vector_unit import VectorUnit
from repro.perfmon.collector import active as perfmon_active
from repro.perfmon.collector import record as perfmon_record
from repro.perfmon.counters import declare_counters

__all__ = ["Processor", "ExecutionReport"]

declare_counters(
    "processor",
    (
        "traces",
        "ops",
        "vector_ops",
        "scalar_ops",
        "cycles",
        "vector_cycles",  # cycles spent in vector-loop executions
        "scalar_cycles",
        "seconds",  # PROGINF "Real Time": cycles through this clock
    ),
)


@dataclass
class ExecutionReport:
    """Outcome of running a trace on one processor.

    ``op_names``/``op_cycles`` carry the per-op cycles in trace order.
    The ``breakdown`` list of ``(name, cycles)`` pairs is only exposed
    when ``execute(..., breakdown=True)`` asked for it.
    """

    machine: str
    trace_name: str
    cycles: float
    seconds: float
    raw_flops: float
    flop_equivalents: float
    words_moved: float
    op_names: tuple[str, ...] = field(default=(), repr=False, compare=False)
    #: per-op cycles in trace order, parallel to op_names.
    op_cycles: tuple[float, ...] = field(default=(), repr=False, compare=False)
    has_breakdown: bool = field(default=False, repr=False, compare=False)

    @property
    def breakdown(self) -> list[tuple[str, float]]:
        """Per-op (name, cycles) pairs; empty unless requested at execute."""
        if not self.has_breakdown:
            return []
        return [
            (name, float(cycles))
            for name, cycles in zip(self.op_names, self.op_cycles)
        ]

    @property
    def mflops(self) -> float:
        """Sustained Mflops with intrinsic flop-equivalents (table units)."""
        return costs.mflops(SCALAR, self.flop_equivalents, self.seconds)

    @property
    def raw_mflops(self) -> float:
        """Sustained Mflops counting only genuine adds/multiplies."""
        return costs.mflops(SCALAR, self.raw_flops, self.seconds)

    @property
    def bandwidth_bytes_per_s(self) -> float:
        """Sustained data bandwidth (indices excluded, as in the paper)."""
        return costs.bandwidth_bytes_per_s(SCALAR, self.words_moved, self.seconds)

    def dominant_op(self) -> str:
        """Name of the op that consumed the most cycles (for reports).

        Works from the cycle column regardless of whether the
        ``breakdown`` list was requested.
        """
        n = len(self.op_names)
        if n == 0:
            return "<empty>"
        return self.op_names[max(range(n), key=self.op_cycles.__getitem__)]


@dataclass
class Processor:
    """One CPU: scalar unit always present, vector unit + memory optional.

    ``memory_dilation`` on :meth:`execute` lets the node model stretch this
    CPU's memory time to account for multi-CPU bank contention without
    re-deriving traces.
    """

    name: str
    clock: Clock
    scalar: ScalarUnit
    vector: VectorUnit | None = None
    memory: BankedMemory | None = None

    def __post_init__(self) -> None:
        if (self.vector is None) != (self.memory is None):
            raise ValueError(
                "vector machines need both a vector unit and a banked-memory "
                "model; cache machines need neither"
            )

    @property
    def is_vector_machine(self) -> bool:
        return self.vector is not None

    @property
    def peak_flops(self) -> float:
        """Peak flop rate in flops/s (2 Gflops for the SX-4 at 8.0 ns)."""
        if self.vector is not None:
            return self.vector.peak_flops_per_cycle * self.clock.frequency_hz
        return self.scalar.flops_per_cycle * self.clock.frequency_hz

    @property
    def port_bandwidth_bytes_per_s(self) -> float:
        """Peak memory-port bandwidth (16 GB/s per SX-4 processor)."""
        if self.memory is None:
            return self.scalar.cache.mem_words_per_cycle * 8.0 * self.clock.frequency_hz
        return self.memory.port_words_per_cycle * 8.0 * self.clock.frequency_hz

    # -- perfmon instrumentation --------------------------------------------
    def _record_op(
        self, op: VectorOp | ScalarOp, cycles: float, dilation: float, factors: AccessFactors | None
    ) -> None:
        """Populate the active profile's counters for one executed op.

        Each component contributes its own increments; the processor
        adds the totals PROGINF reads directly (op/cycle/second counts).
        """
        if isinstance(op, VectorOp):
            if self.vector is not None and self.memory is not None:
                perfmon_record("vector_unit", self.vector.perfmon_counters(op))
                perfmon_record("memory", self.memory.perfmon_counters(op, dilation, factors))
            else:
                scalar, cache = self.scalar.perfmon_vector_counters(op)
                perfmon_record("scalar_unit", scalar)
                perfmon_record("cache", cache)
            kind = "vector_cycles"
            kind_ops = "vector_ops"
        else:
            scalar, cache = self.scalar.perfmon_scalar_counters(op)
            perfmon_record("scalar_unit", scalar)
            perfmon_record("cache", cache)
            kind = "scalar_cycles"
            kind_ops = "scalar_ops"
        perfmon_record(
            "processor",
            {
                "ops": 1.0,
                kind_ops: 1.0,
                "cycles": cycles,
                kind: cycles,
                "seconds": self.clock.seconds(cycles),
            },
        )

    # -- trace execution ------------------------------------------------------
    def execute(
        self, trace: Trace, memory_dilation: float = 1.0, *, breakdown: bool = False
    ) -> ExecutionReport:
        """Run a trace to completion and report time and rates.

        ``breakdown=True`` additionally exposes the per-op
        ``(name, cycles)`` list.  When a :mod:`repro.perfmon` profile is
        active, every component that times an op also populates its
        counters — this is the "counter emulation" layer of the
        observability subsystem.
        """
        if memory_dilation < 1.0:
            raise ValueError(f"memory dilation cannot shrink time, got {memory_dilation}")
        vector, memory, scalar = self.vector, self.memory, self.scalar
        factors = None if memory is None else AccessFactors(memory)
        op_names: list[str] = []
        op_cycles: list[float] = []
        profiling = perfmon_active() is not None
        if profiling:
            perfmon_record("processor", {"traces": 1.0})
        for op in trace:
            # One composite cost formula per op (repro.machine.costs).
            if not isinstance(op, VectorOp):
                cycles = costs.scalar_op_cycles(op, scalar, op.count)
            elif factors is None:
                cycles = costs.scalar_loop_cycles(SCALAR, op, scalar, memory_dilation, op.count)
            else:
                cycles = costs.vector_op_cycles(
                    SCALAR, op, vector, memory, factors, memory_dilation
                )
            if profiling:
                self._record_op(op, cycles, memory_dilation, factors)
            op_names.append(op.name)
            op_cycles.append(cycles)
        total_cycles = math.fsum(op_cycles)
        return ExecutionReport(
            machine=self.name,
            trace_name=trace.name,
            cycles=total_cycles,
            seconds=self.clock.seconds(total_cycles),
            raw_flops=trace.raw_flops,
            flop_equivalents=trace.flop_equivalents,
            words_moved=trace.words_moved,
            op_names=tuple(op_names),
            op_cycles=tuple(op_cycles),
            has_breakdown=breakdown,
        )

    def time(self, trace: Trace, memory_dilation: float = 1.0) -> float:
        """Shorthand: wall-clock seconds for a trace."""
        return self.execute(trace, memory_dilation).seconds
