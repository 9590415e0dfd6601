"""Columnar trace lowering: the structure-of-arrays input of the grid.

:class:`~repro.machine.processor.Processor` costs one machine by walking
a :class:`~repro.machine.operations.Trace` op by op.  The machine grid
(:mod:`repro.machine.grid`) costs thousands of machines at once, and for
that it needs every descriptor field as a column: :func:`compile_trace`
lowers a trace once into a cached :class:`CompiledTrace` — float64
columns for every descriptor field plus an ``n_vector_ops x 6``
intrinsic-call matrix — and :class:`SuiteColumns` stacks many traces'
columns into one ragged tensor so a whole suite costs in one
broadcasted pass.

Lowering is exact: every derived column reproduces the corresponding
:class:`VectorOp`/:class:`ScalarOp` property arithmetic operation for
operation (same IEEE-754 double ops, same association), and aggregate
totals go through :func:`math.fsum`, whose correctly-rounded result is
independent of summation order.  Grid results are therefore equal to
the per-op path's, not merely close — the parity the tests in
``tests/machine`` assert on the registered suite and on hypothesis
traces.

A trace caches its own ``CompiledTrace`` (invalidated by
``append``/``extend``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from dataclasses import fields as dataclass_fields

import numpy as np

from repro.machine.operations import (
    INTRINSIC_FLOP_EQUIV,
    INTRINSICS,
    ScalarOp,
    Trace,
    VectorOp,
)

__all__ = [
    "SORTED_INTRINSICS",
    "VectorColumns",
    "ScalarColumns",
    "CompiledTrace",
    "SuiteColumns",
    "compile_trace",
    "fsum_columns",
]

#: Intrinsic column order of the compiled intrinsic matrix.  Sorted by
#: name because ``VectorOp.intrinsic_calls`` is stored name-sorted: the
#: grid's accumulation then visits intrinsics in exactly the order the
#: per-op loop does (absent intrinsics contribute an exact 0.0), which
#: is one of the two pillars of the bit-parity guarantee.
SORTED_INTRINSICS: tuple[str, ...] = tuple(sorted(INTRINSICS))


def fsum_columns(matrix: np.ndarray) -> np.ndarray:
    """Exactly-rounded per-column sums of an ``(n, m)`` float64 matrix.

    The machine-grid reduction: column ``j`` holds machine ``j``'s
    per-op cycle costs, and its :func:`math.fsum` is bit-identical to
    the total the per-op path computes for that machine — fsum's exact
    partial sums make the result order-independent, so slicing a
    machine out of a grid changes nothing.
    """
    if matrix.shape[0] == 0:
        return np.zeros(matrix.shape[1])
    return np.array([math.fsum(column) for column in matrix.T.tolist()])


def _stack_fields(cls, parts):
    """Field-wise ``np.concatenate`` over same-typed column sets.

    Concatenation copies raw float64 bit patterns, so every row of the
    stacked columns is bit-identical to its source row.
    """
    return cls(**{
        f.name: np.concatenate([getattr(p, f.name) for p in parts])
        for f in dataclass_fields(cls)
    })


@dataclass(frozen=True)
class VectorColumns:
    """The vector ops of one trace, one column per :class:`VectorOp` field.

    Columns carry the VectorOp attribute names (float64; the strides
    int64), so the cost formulas of :mod:`repro.machine.costs` read them
    as they read an op.  ``intrinsics`` is an ``n x len(INTRINSICS)``
    calls-per-element matrix with columns in :data:`SORTED_INTRINSICS`
    order.  The derived columns reproduce the corresponding
    :class:`VectorOp` property arithmetic exactly.
    """

    length: np.ndarray  # float64 copy of the int lengths
    count: np.ndarray
    flops_per_element: np.ndarray
    loads_per_element: np.ndarray
    stores_per_element: np.ndarray
    load_stride: np.ndarray  # int64
    store_stride: np.ndarray  # int64
    gather_loads_per_element: np.ndarray
    scatter_stores_per_element: np.ndarray
    intrinsics: np.ndarray  # (n, len(INTRINSICS)) calls per element

    # derived, precomputed at lowering time (machine-independent)
    raw_flops: np.ndarray = field(repr=False, default=None)
    flop_equivalents: np.ndarray = field(repr=False, default=None)
    words_moved: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return int(self.length.shape[0])

    @classmethod
    def from_ops(cls, ops: list[VectorOp]) -> "VectorColumns":
        f64, i64 = np.float64, np.int64
        columns = dict(
            length=np.array([op.length for op in ops], f64),
            count=np.array([op.count for op in ops], f64),
            flops_per_element=np.array([op.flops_per_element for op in ops], f64),
            loads_per_element=np.array([op.loads_per_element for op in ops], f64),
            stores_per_element=np.array([op.stores_per_element for op in ops], f64),
            load_stride=np.array([op.load_stride for op in ops], i64),
            store_stride=np.array([op.store_stride for op in ops], i64),
            gather_loads_per_element=np.array([op.gather_loads_per_element for op in ops], f64),
            scatter_stores_per_element=np.array([op.scatter_stores_per_element for op in ops], f64),
        )
        intrinsics = np.zeros((len(ops), len(SORTED_INTRINSICS)), dtype=np.float64)
        column_of = {name: i for i, name in enumerate(SORTED_INTRINSICS)}
        for row, op in enumerate(ops):
            for name, per in op.intrinsic_calls:
                intrinsics[row, column_of[name]] = per

        # Derived columns: each expression mirrors the VectorOp property
        # arithmetic (same association), so every entry is bit-identical
        # to the per-op value.
        length, count = columns["length"], columns["count"]
        elements = length * count
        raw = columns["flops_per_element"] * elements
        equiv = raw.copy()
        for i, name in enumerate(SORTED_INTRINSICS):
            equiv = equiv + (INTRINSIC_FLOP_EQUIV[name] * intrinsics[:, i]) * elements
        sequential = (columns["loads_per_element"] + columns["stores_per_element"]) * length
        indexed = (
            columns["gather_loads_per_element"] + columns["scatter_stores_per_element"]
        ) * length
        return cls(
            **columns,
            intrinsics=intrinsics,
            raw_flops=raw,
            flop_equivalents=equiv,
            words_moved=(sequential + indexed) * count,
        )


@dataclass(frozen=True)
class ScalarColumns:
    """The scalar ops of one trace, one float64 column per :class:`ScalarOp` field."""

    instructions: np.ndarray
    flops: np.ndarray
    memory_words: np.ndarray
    count: np.ndarray

    # derived
    raw_flops: np.ndarray = field(repr=False, default=None)
    words_moved: np.ndarray = field(repr=False, default=None)

    @property
    def n(self) -> int:
        return int(self.count.shape[0])

    @classmethod
    def from_ops(cls, ops: list[ScalarOp]) -> "ScalarColumns":
        flops = np.array([op.flops for op in ops], dtype=np.float64)
        memory_words = np.array([op.memory_words for op in ops], dtype=np.float64)
        count = np.array([op.count for op in ops], dtype=np.float64)
        return cls(
            instructions=np.array([op.instructions for op in ops], dtype=np.float64),
            flops=flops,
            memory_words=memory_words,
            count=count,
            raw_flops=flops * count,
            words_moved=memory_words * count,
        )


@dataclass
class CompiledTrace:
    """A trace lowered to structure-of-arrays columns.

    Machine-independent: the same compiled trace costs on any grid.
    Vector and scalar ops are split into their own column sets; the
    machine-independent totals are computed once per trace.
    """

    names: tuple[str, ...]
    vector: VectorColumns
    scalar: ScalarColumns
    #: machine-independent aggregate totals, computed once per trace.
    _totals: dict[str, float] = field(default_factory=dict, repr=False)

    @property
    def n_ops(self) -> int:
        return len(self.names)

    @classmethod
    def from_trace(cls, trace: Trace) -> "CompiledTrace":
        v_ops = [op for op in trace.ops if isinstance(op, VectorOp)]
        s_ops = [op for op in trace.ops if not isinstance(op, VectorOp)]
        return cls(
            names=tuple(op.name for op in trace.ops),
            vector=VectorColumns.from_ops(v_ops),
            scalar=ScalarColumns.from_ops(s_ops),
        )

    # -- aggregate accounting (exact: fsum of per-op columns) -------------
    def _total(self, key: str, vector_column: np.ndarray, scalar_column: np.ndarray) -> float:
        total = self._totals.get(key)
        if total is None:
            total = self._totals[key] = math.fsum(
                vector_column.tolist() + scalar_column.tolist()
            )
        return total

    def raw_flops_total(self) -> float:
        return self._total("raw_flops", self.vector.raw_flops, self.scalar.raw_flops)

    def flop_equivalents_total(self) -> float:
        # ScalarOp.flop_equivalents == ScalarOp.raw_flops by definition.
        return self._total(
            "flop_equivalents", self.vector.flop_equivalents, self.scalar.raw_flops
        )

    def words_moved_total(self) -> float:
        return self._total("words_moved", self.vector.words_moved, self.scalar.words_moved)


def compile_trace(trace: Trace) -> CompiledTrace:
    """Lower a trace to columns, caching the result on the trace.

    The cache is invalidated by ``Trace.append``/``extend`` (and, as a
    belt-and-braces guard, whenever the op count has changed behind the
    trace's back).  ``scaled``/``+``/``*`` build fresh traces and
    therefore compile fresh.
    """
    cache = trace._cache
    compiled = cache.get("compiled")
    if compiled is None or compiled.n_ops != len(trace.ops):
        compiled = CompiledTrace.from_trace(trace)
        cache["compiled"] = compiled
    return compiled


def _offsets(counts: list[int]) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=out[1:])
    return out


@dataclass(frozen=True)
class SuiteColumns:
    """A trace suite lowered to one ragged column stack.

    ``vector``/``scalar`` hold the *concatenation* of every member
    trace's rows (each row bit-identical to its source), so the grid
    kernels accept a ``SuiteColumns`` anywhere they accept a
    ``CompiledTrace``.  Trace ``i``'s rows are
    ``vector_offsets[i]:vector_offsets[i + 1]`` (likewise scalar).
    ``raw_flops``/``flop_equivalents``/``words_moved`` are the member
    traces' machine-independent totals, in suite order.
    """

    trace_ids: tuple[str, ...]
    trace_names: tuple[str, ...]
    vector: VectorColumns
    scalar: ScalarColumns
    vector_offsets: np.ndarray  # (n_traces + 1,) intp segment bounds
    scalar_offsets: np.ndarray
    raw_flops: tuple[float, ...]
    flop_equivalents: tuple[float, ...]
    words_moved: tuple[float, ...]

    @property
    def n_traces(self) -> int:
        return len(self.trace_ids)

    @classmethod
    def from_traces(cls, traces) -> "SuiteColumns":
        """Stack ``(trace_id, Trace)`` pairs into one suite column set."""
        pairs = list(traces)
        compiled = [compile_trace(trace) for _, trace in pairs]
        vector = [c.vector for c in compiled]
        scalar = [c.scalar for c in compiled]
        return cls(
            trace_ids=tuple(trace_id for trace_id, _ in pairs),
            trace_names=tuple(trace.name for _, trace in pairs),
            vector=_stack_fields(VectorColumns, vector or [VectorColumns.from_ops([])]),
            scalar=_stack_fields(ScalarColumns, scalar or [ScalarColumns.from_ops([])]),
            vector_offsets=_offsets([v.n for v in vector]),
            scalar_offsets=_offsets([s.n for s in scalar]),
            raw_flops=tuple(c.raw_flops_total() for c in compiled),
            flop_equivalents=tuple(c.flop_equivalents_total() for c in compiled),
            words_moved=tuple(c.words_moved_total() for c in compiled),
        )
