"""Machine-axis lowering: cost a trace against thousands of machines at once.

:class:`~repro.machine.processor.Processor` costs one machine, one op at
a time; this module costs many machines at once.  A :class:`MachineGrid`
lowers every cost-relevant processor parameter (clock period, vector
pipes, bank count, startup overheads, cache geometry, ...) into
structure-of-arrays columns — one float64/int64 entry per machine — and
:mod:`repro.machine.compiled` lowers the trace's ops into columns, so
one broadcasted NumPy pass of shape ``(n_ops, n_machines)`` prices a
whole trace against a whole design space.

Parity with the per-op path holds by construction: each cost term is
one expression in :mod:`repro.machine.costs`, and both paths evaluate
it.  This module only lays the columns out for the formulas — op
columns as ``(n, 1)`` under the op attribute names, machine columns as
``(m,)`` rows under the component attribute names — with :mod:`numpy`
as their namespace, so IEEE-754 elementwise arithmetic makes machine
``j``'s column bit-identical to that machine's per-op cycles.  Beyond
that it computes each distinct stride's factor once (``np.unique``),
selects cache-machine lanes with ``has_vector`` (their vector/memory
columns hold benign placeholders; :func:`numpy.where` selects, never
mixes), and reduces with :func:`~repro.machine.compiled.fsum_columns`,
matching the per-op path's ``fsum``.  ``tests/machine`` asserts every
:class:`GridTraceCost` field equals :meth:`Processor.execute`'s,
bit-for-bit, on all registered traces across the six canonical presets
and on hypothesis-random machines and traces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

from repro.machine import costs
from repro.machine.cache import CacheModel
from repro.machine.clock import Clock
from repro.machine.compiled import SORTED_INTRINSICS, SuiteColumns, VectorColumns, fsum_columns
from repro.machine.memory import BankedMemory
from repro.machine.processor import ExecutionReport, Processor
from repro.machine.scalar_unit import ScalarUnit
from repro.machine.vector_unit import VectorUnit
from repro.perfmon.collector import active as perfmon_active
from repro.perfmon.collector import record as perfmon_record
from repro.perfmon.counters import declare_counters

if TYPE_CHECKING:
    from repro.machine.compiled import CompiledTrace, ScalarColumns
    from repro.machine.operations import Trace

__all__ = ["MachineGrid", "GridTraceCost", "cost_trace_grid", "cost_suite_trace_grid"]

declare_counters(
    "grid",
    (
        "machines",  # machines in grids handed to the costing functions
        "machine_traces",  # (machine, trace) pairs costed
    ),
)


def _pynum(value: float) -> int | float:
    """A Python int when the float is integral, else the float itself.

    Materialized components get the same parameter *values* the grid
    columns hold; int-vs-float makes no costing difference (int operands
    promote to the identical float64), but integral parameters read
    better in component reprs and keep ``math.gcd`` applicable.
    """
    number = float(value)
    integral = int(number)
    return integral if integral == number else number


#: Component parameters and their grid columns: ``(name, cache-machine
#: placeholder, materialized type)``.  The placeholders keep every vector
#: and memory expression finite on cache machines, whose lanes the
#: ``has_vector`` selection discards.
_VECTOR_PARAMETERS = (
    ("pipes", 1.0, _pynum),
    ("concurrent_sets", 1.0, _pynum),
    ("startup_cycles", 0.0, float),
    ("register_length", 1.0, _pynum),
    ("stripmine_cycles", 0.0, float),
)
_MEMORY_PARAMETERS = (
    ("banks", 1, int),
    ("bank_busy_cycles", 1.0, float),
    ("port_words_per_cycle", 2.0, float),
    ("stride_base_penalty", 1.0, float),
    ("gather_base_penalty", 1.0, float),
    ("index_words_per_element", 0.0, float),
    ("contention_slope", 0.0, float),
    ("contention_base_slope", 0.0, float),
)
#: Scalar-unit parameters (float columns of the same name).
_SCALAR_PARAMETERS = ("issue_width", "flops_per_cycle", "loop_overhead_instructions")
#: CacheModel parameters, in ``cache_<name>`` columns.
_CACHE_PARAMETERS = (
    ("size_bytes", int),
    ("line_bytes", int),
    ("hit_cycles_per_word", float),
    ("miss_latency_cycles", float),
    ("mem_words_per_cycle", float),
)
_INT_COLUMNS = {"banks", "cache_size_bytes", "cache_line_bytes"}

#: Elements per (rows, machines) costing temporary: 256 KiB of float64 stays
#: in cache and reused heap; one (n_ops, m) pass measured 9-17% slower on
#: 256- to 1000-machine grids.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(eq=False)
class MachineGrid:
    """A design space as structure-of-arrays: one row per machine.

    Columns mirror the constructor parameters of
    :class:`~repro.machine.processor.Processor` and its components.  For
    cache machines (``has_vector`` False) the vector/memory columns hold
    benign placeholders — they are computed through and then discarded
    by the ``has_vector`` selection, never mixed into the result.

    Build grids with :meth:`from_processors` (exact lowering of real
    presets) or :mod:`repro.explore.sweep` (parameter sweeps anchored at
    a preset); get a machine back out with :meth:`materialize`.
    """

    names: tuple[str, ...]
    has_vector: np.ndarray  # bool
    period_ns: np.ndarray
    # vector unit
    pipes: np.ndarray
    concurrent_sets: np.ndarray
    startup_cycles: np.ndarray
    register_length: np.ndarray
    stripmine_cycles: np.ndarray
    #: (m, 6) per-element intrinsic cycles, SORTED_INTRINSICS column order.
    vector_intrinsic_rates: np.ndarray
    # banked memory
    banks: np.ndarray  # int64
    bank_busy_cycles: np.ndarray
    port_words_per_cycle: np.ndarray
    stride_base_penalty: np.ndarray
    gather_base_penalty: np.ndarray
    index_words_per_element: np.ndarray
    contention_slope: np.ndarray
    contention_base_slope: np.ndarray
    # scalar unit
    issue_width: np.ndarray
    flops_per_cycle: np.ndarray
    loop_overhead_instructions: np.ndarray
    #: (m, 6) per-call intrinsic cycles, SORTED_INTRINSICS column order.
    scalar_intrinsic_rates: np.ndarray
    # cache model
    cache_size_bytes: np.ndarray  # int64
    cache_line_bytes: np.ndarray  # int64
    cache_hit_cycles_per_word: np.ndarray
    cache_miss_latency_cycles: np.ndarray
    cache_mem_words_per_cycle: np.ndarray
    #: materialized processors, memoised per row (never copied by
    #: ``dataclasses.replace``, so a replaced grid cannot serve stale rows).
    _materialized: dict[int, Processor] = field(
        default_factory=dict, init=False, repr=False
    )

    @property
    def n_machines(self) -> int:
        return len(self.names)

    def __post_init__(self) -> None:
        m = self.n_machines
        if m < 1:
            raise ValueError("a machine grid needs at least one machine")
        for name, column in self._columns():
            expected = (m, len(SORTED_INTRINSICS)) if column.ndim == 2 else (m,)
            if column.shape != expected:
                raise ValueError(
                    f"grid column {name!r} has shape {column.shape}, expected {expected}"
                )

    def _columns(self) -> list[tuple[str, np.ndarray]]:
        """(name, array) pairs in declaration order — the canonical layout."""
        return [
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if not f.name.startswith("_") and f.name != "names"
        ]

    # -- construction -------------------------------------------------------
    @classmethod
    def from_processors(cls, processors: list[Processor]) -> "MachineGrid":
        """Lower concrete processors into grid columns, exactly.

        Placeholder vector/memory parameters for cache machines are
        chosen so every grid expression stays finite (no zero divisors);
        their lanes are discarded by the ``has_vector`` selection.
        """
        if not processors:
            raise ValueError("a MachineGrid needs at least one processor")
        rows = []
        for p in processors:
            vector, memory, scalar = p.vector, p.memory, p.scalar
            row = dict(has_vector=vector is not None, period_ns=p.clock.period_ns)
            for name, placeholder, _ in _VECTOR_PARAMETERS:
                row[name] = getattr(vector, name) if vector else placeholder
            for name, placeholder, _ in _MEMORY_PARAMETERS:
                row[name] = getattr(memory, name) if memory else placeholder
            for name in _SCALAR_PARAMETERS:
                row[name] = getattr(scalar, name)
            for name, _ in _CACHE_PARAMETERS:
                row[f"cache_{name}"] = getattr(scalar.cache, name)
            row["vector_intrinsic_rates"] = [
                vector.intrinsic_cycles_per_element[name] if vector else 0.0
                for name in SORTED_INTRINSICS
            ]
            row["scalar_intrinsic_rates"] = [
                scalar.intrinsic_cycles_per_call[name] for name in SORTED_INTRINSICS
            ]
            rows.append(row)
        columns: dict[str, np.ndarray] = {}
        for key in rows[0]:
            values = [row[key] for row in rows]
            if key == "has_vector":
                columns[key] = np.array(values, dtype=bool)
            elif key in _INT_COLUMNS:
                columns[key] = np.array(values, dtype=np.int64)
            else:
                columns[key] = np.array(values, dtype=np.float64)
        return cls(names=tuple(p.name for p in processors), **columns)

    def subset(self, indices) -> "MachineGrid":
        """A new grid holding the given rows (also usable to repeat rows)."""
        index = np.asarray(indices, dtype=np.intp)
        return type(self)(
            names=tuple(self.names[i] for i in index),
            **{name: column[index] for name, column in self._columns()},
        )

    @classmethod
    def concat(cls, grids: list["MachineGrid"]) -> "MachineGrid":
        """One grid holding every row of the inputs, in order."""
        if not grids:
            raise ValueError("cannot concatenate zero grids")
        names: tuple[str, ...] = ()
        for grid in grids:
            names = names + grid.names
        columns = {
            name: np.concatenate([getattr(grid, name) for grid in grids])
            for name, _ in grids[0]._columns()
        }
        return cls(names=names, **columns)

    def validate(self) -> None:
        """Raise if any row violates a component constructor constraint.

        Sweeps build grids by writing columns directly, bypassing the
        component constructors; this re-checks their invariants in bulk
        so an invalid sweep point fails loudly, not as a silent NaN.
        """
        checks = [
            ("period_ns", self.period_ns > 0.0),
            ("pipes", self.pipes >= 1.0),
            ("concurrent_sets", self.concurrent_sets >= 1.0),
            ("startup_cycles", self.startup_cycles >= 0.0),
            ("register_length", self.register_length >= 1.0),
            ("stripmine_cycles", self.stripmine_cycles >= 0.0),
            ("vector_intrinsic_rates", (self.vector_intrinsic_rates >= 0.0).all(axis=1)),
            ("banks", self.banks >= 1),
            ("bank_busy_cycles", self.bank_busy_cycles > 0.0),
            ("port_words_per_cycle", self.port_words_per_cycle > 0.0),
            ("stride_base_penalty", self.stride_base_penalty >= 1.0),
            ("gather_base_penalty", self.gather_base_penalty >= 1.0),
            ("index_words_per_element", self.index_words_per_element >= 0.0),
            ("contention_slope", self.contention_slope >= 0.0),
            ("contention_base_slope", self.contention_base_slope >= 0.0),
            ("issue_width", self.issue_width > 0.0),
            ("flops_per_cycle", self.flops_per_cycle > 0.0),
            ("loop_overhead_instructions", self.loop_overhead_instructions >= 0.0),
            ("scalar_intrinsic_rates", (self.scalar_intrinsic_rates >= 0.0).all(axis=1)),
            ("cache_size_bytes", self.cache_size_bytes >= 8),
            ("cache_line_bytes", self.cache_line_bytes >= 8),
            ("cache_line_bytes", self.cache_line_bytes % 8 == 0),
            ("cache_line_bytes", self.cache_line_bytes <= self.cache_size_bytes),
            ("cache_hit_cycles_per_word", self.cache_hit_cycles_per_word >= 0.0),
            ("cache_miss_latency_cycles", self.cache_miss_latency_cycles >= 0.0),
            ("cache_mem_words_per_cycle", self.cache_mem_words_per_cycle > 0.0),
        ]
        for name, ok in checks:
            bad = np.nonzero(~np.asarray(ok))[0]
            if bad.size:
                i = int(bad[0])
                raise ValueError(
                    f"grid parameter {name!r} is out of range for machine "
                    f"{self.names[i]!r} (row {i}, {bad.size} row(s) total)"
                )

    def fingerprint(self) -> str:
        """Content hash of the numeric columns (names excluded).

        Two grids with the same parameters share a fingerprint no matter
        what the rows are called — chunk caching keys on the numbers
        that determine cost, nothing else.
        """
        hasher = hashlib.sha256()
        hasher.update(b"machine-grid\x00")
        for name, column in self._columns():
            hasher.update(name.encode("ascii"))
            hasher.update(b"\x00")
            hasher.update(np.ascontiguousarray(column).tobytes())
            hasher.update(b"\x00")
        return hasher.hexdigest()

    # -- materialization ----------------------------------------------------
    def materialize(self, index: int) -> Processor:
        """The concrete :class:`Processor` of one grid row.

        Memoised per row: repeated calls return the same instance.
        """
        i = int(index)
        cached = self._materialized.get(i)
        if cached is not None:
            return cached

        def rates(matrix: np.ndarray) -> dict[str, float]:
            return {name: float(matrix[i, c]) for c, name in enumerate(SORTED_INTRINSICS)}

        scalar = ScalarUnit(
            **{name: float(getattr(self, name)[i]) for name in _SCALAR_PARAMETERS},
            cache=CacheModel(**{
                name: kind(getattr(self, f"cache_{name}")[i]) for name, kind in _CACHE_PARAMETERS
            }),
            intrinsic_cycles_per_call=rates(self.scalar_intrinsic_rates),
        )
        vector = memory = None
        if self.has_vector[i]:
            vector = VectorUnit(
                **{name: kind(getattr(self, name)[i]) for name, _, kind in _VECTOR_PARAMETERS},
                intrinsic_cycles_per_element=rates(self.vector_intrinsic_rates),
            )
            memory = BankedMemory(
                **{name: kind(getattr(self, name)[i]) for name, _, kind in _MEMORY_PARAMETERS}
            )
        processor = Processor(
            name=self.names[i],
            clock=Clock(period_ns=float(self.period_ns[i])),
            scalar=scalar,
            vector=vector,
            memory=memory,
        )
        self._materialized[i] = processor
        return processor

    # -- costing: the formulas of repro.machine.costs over columns ----------
    # The grid is the component the formulas read: its columns carry the
    # component attribute names, and these properties supply the rest.
    @property
    def intrinsic_cycles_per_element(self) -> dict[str, np.ndarray]:
        return _rate_columns(self.vector_intrinsic_rates)

    @property
    def intrinsic_cycles_per_call(self) -> dict[str, np.ndarray]:
        return _rate_columns(self.scalar_intrinsic_rates)

    @property
    def cache(self) -> SimpleNamespace:
        """The cache columns under the CacheModel attribute names."""
        return SimpleNamespace(
            **{name: getattr(self, f"cache_{name}") for name, _ in _CACHE_PARAMETERS}
        )

    def vector_op_cycles_grid(
        self, columns: "CompiledTrace | SuiteColumns", memory_dilation: float = 1.0
    ) -> np.ndarray:
        """(n_vector_ops, m) total cycles for every vector op × machine."""
        if memory_dilation < 1.0:
            raise ValueError(f"memory dilation cannot shrink time, got {memory_dilation}")
        v = columns.vector
        cycles = np.empty((v.n, self.n_machines))
        factors = _AccessFactorColumns(self)
        any_vector, all_vector = bool(self.has_vector.any()), bool(self.has_vector.all())
        # Row blocks bound the formulas' (rows, m) temporaries (see
        # _BLOCK_ELEMENTS); a one-machine grid costs in a single block.
        blocks = max(1, -(-v.n * self.n_machines // _BLOCK_ELEMENTS))
        step = max(1, -(-v.n // blocks))
        for start in range(0, v.n, step):
            rows = slice(start, start + step)
            op = _op_view(v, rows)
            if not any_vector:
                block = costs.scalar_loop_cycles(np, op, self, memory_dilation, op.count)
            else:
                block = costs.vector_op_cycles(np, op, self, self, factors, memory_dilation)
                if not all_vector:
                    on_cache = costs.scalar_loop_cycles(np, op, self, memory_dilation, op.count)
                    block = np.where(self.has_vector, block, on_cache)
            cycles[rows] = block
        return cycles

    def scalar_op_cycles_grid(self, columns: "CompiledTrace | SuiteColumns") -> np.ndarray:
        """(n_scalar_ops, m) total cycles for every scalar op × machine."""
        op = _op_view(columns.scalar)
        return costs.scalar_op_cycles(op, self, op.count)


def _op_view(
    columns: "VectorColumns | ScalarColumns", rows: slice = slice(None)
) -> SimpleNamespace:
    """The op columns' ``rows`` as ``(n, 1)`` under the op attribute names;
    the intrinsic matrix as VectorOp's ``(name, calls)`` pairs."""
    view = SimpleNamespace(
        **{f.name: getattr(columns, f.name)[rows, None] for f in fields(columns)}
    )
    if isinstance(columns, VectorColumns):
        view.intrinsic_calls = [
            (name, columns.intrinsics[rows, i, None]) for i, name in enumerate(SORTED_INTRINSICS)
        ]
    return view


def _rate_columns(matrix: np.ndarray) -> dict[str, np.ndarray]:
    """An (m, 6) intrinsic-rate matrix as name -> (m,) column."""
    return {name: matrix[:, i] for i, name in enumerate(SORTED_INTRINSICS)}


class _AccessFactorColumns:
    """The grid's access factors: an ``(n, 1)`` stride column -> ``(n, m)``
    factors, each distinct stride costed once, and the gather factor."""

    def __init__(self, grid: MachineGrid) -> None:
        self.grid = grid
        self.gather = costs.gather_factor(grid)

    def __getitem__(self, strides: np.ndarray) -> np.ndarray:
        unique, inverse = np.unique(strides.ravel(), return_inverse=True)
        return costs.stride_factor(np, unique[:, None], self.grid)[inverse]


def _record_costing(grid: MachineGrid, n_traces: int) -> None:
    if perfmon_active() is not None:
        perfmon_record(
            "grid",
            {
                "machines": float(grid.n_machines),
                "machine_traces": float(grid.n_machines * n_traces),
            },
        )


@dataclass(frozen=True)
class GridTraceCost:
    """One trace costed against every machine of a grid.

    Arrays are indexed by grid row.  ``raw_flops``/``flop_equivalents``/
    ``words_moved`` are machine-independent trace totals (identical to
    the per-machine report fields); the derived rate fields replicate
    :class:`~repro.machine.processor.ExecutionReport`'s expressions
    elementwise, zero-guard included.
    """

    trace_name: str
    machine_names: tuple[str, ...]
    cycles: np.ndarray
    seconds: np.ndarray
    mflops: np.ndarray
    bandwidth_bytes_per_s: np.ndarray
    raw_flops: float
    flop_equivalents: float
    words_moved: float

    @property
    def n_machines(self) -> int:
        return len(self.machine_names)

    @classmethod
    def from_cycles(
        cls,
        trace_names: tuple[str, ...],
        grid: MachineGrid,
        cycles: np.ndarray,
        raw_flops: tuple[float, ...],
        flop_equivalents: tuple[float, ...],
        words_moved: tuple[float, ...],
    ) -> list["GridTraceCost"]:
        """One cost per row of a ``(traces, machines)`` cycle matrix;
        seconds and rates derive for every row in one pass."""
        seconds = costs.seconds(cycles, grid.period_ns)
        mflops = costs.mflops(np, np.array(flop_equivalents)[:, None], seconds)
        bandwidth = costs.bandwidth_bytes_per_s(np, np.array(words_moved)[:, None], seconds)
        return [
            cls(
                trace_name=name,
                machine_names=grid.names,
                cycles=cycles[i],
                seconds=seconds[i],
                mflops=mflops[i],
                bandwidth_bytes_per_s=bandwidth[i],
                raw_flops=raw_flops[i],
                flop_equivalents=flop_equivalents[i],
                words_moved=words_moved[i],
            )
            for i, name in enumerate(trace_names)
        ]

    def report(self, index: int) -> ExecutionReport:
        """One machine's row as a standard :class:`ExecutionReport`.

        The report's derived properties (mflops, bandwidth) recompute
        from the same scalars with the same expressions, so they agree
        bit-for-bit with this cost's array entries.
        """
        i = int(index)
        return ExecutionReport(
            machine=self.machine_names[i],
            trace_name=self.trace_name,
            cycles=float(self.cycles[i]),
            seconds=float(self.seconds[i]),
            raw_flops=self.raw_flops,
            flop_equivalents=self.flop_equivalents,
            words_moved=self.words_moved,
        )


def cost_trace_grid(
    trace: "Trace", grid: MachineGrid, memory_dilation: float = 1.0
) -> GridTraceCost:
    """Cost one trace against every machine of a grid in one pass: a
    one-trace :func:`cost_suite_trace_grid`."""
    suite = SuiteColumns.from_traces([(trace.name, trace)])
    (cost,) = cost_suite_trace_grid(suite, grid, memory_dilation)
    return cost


def cost_suite_trace_grid(
    suite: "SuiteColumns", grid: MachineGrid, memory_dilation: float = 1.0
) -> list[GridTraceCost]:
    """Cost a stacked suite against every machine in one fused pass.

    The whole suite × grid cross product costs in a single
    ``(n_ops, n_machines)`` broadcasted pass, bit-exact with
    :meth:`Processor.execute` per machine: the per-op matrices evaluate
    the same :mod:`repro.machine.costs` formulas, and per-(trace,
    machine) totals reduce each trace's *segment* with
    :func:`fsum_columns`, whose exactly-rounded column sums make a
    trace cost the same alone or inside a stack.
    """
    m = grid.n_machines
    vector_cycles = (
        grid.vector_op_cycles_grid(suite, memory_dilation) if suite.vector.n else np.zeros((0, m))
    )
    scalar_cycles = grid.scalar_op_cycles_grid(suite) if suite.scalar.n else np.zeros((0, m))
    _record_costing(grid, suite.n_traces)
    vo, so = suite.vector_offsets, suite.scalar_offsets
    cycles = np.array([
        fsum_columns(
            np.concatenate(
                [vector_cycles[vo[i]:vo[i + 1]], scalar_cycles[so[i]:so[i + 1]]], axis=0
            )
        )
        for i in range(suite.n_traces)
    ]).reshape(suite.n_traces, m)
    return GridTraceCost.from_cycles(
        suite.trace_names, grid, cycles,
        suite.raw_flops, suite.flop_equivalents, suite.words_moved,
    )
