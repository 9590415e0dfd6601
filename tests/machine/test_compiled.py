"""Column lowering (repro.machine.compiled) and per-op/grid parity on it."""

import math

import numpy as np
import pytest

from repro.analysis.traces import TRACE_BUILDERS, build_registered_trace, build_suite_columns
from repro.machine.compiled import (
    SORTED_INTRINSICS,
    CompiledTrace,
    SuiteColumns,
    compile_trace,
    fsum_columns,
)
from repro.machine.grid import MachineGrid, cost_trace_grid
from repro.machine.operations import INTRINSICS, ScalarOp, Trace, VectorOp
from repro.machine.presets import canonical_machines, sx4_processor

ALL_MACHINES = list(canonical_machines().values())

REPORT_FIELDS = (
    "cycles",
    "seconds",
    "mflops",
    "bandwidth_bytes_per_s",
    "raw_flops",
    "flop_equivalents",
    "words_moved",
)


def mixed_trace():
    return Trace(
        [
            VectorOp("axpy", length=500, count=3, flops_per_element=2.0,
                     loads_per_element=2.0, stores_per_element=1.0),
            ScalarOp("diag", instructions=1000, flops=50, memory_words=20, count=2),
            VectorOp("gath", length=64, count=5, gather_loads_per_element=1.0,
                     stores_per_element=1.0, load_stride=7,
                     intrinsic_calls=(("exp", 1.0), ("sqrt", 0.5))),
        ],
        name="mixed",
    )


def assert_grid_matches_per_op(trace, machines, dilation=1.0):
    """Every machine's per-op report equals its grid column, bit for bit."""
    cost = cost_trace_grid(trace, MachineGrid.from_processors(machines), dilation)
    for j, processor in enumerate(machines):
        report = processor.execute(trace, dilation)
        for field in REPORT_FIELDS:
            grid_value = getattr(cost, field)
            if isinstance(grid_value, np.ndarray):
                grid_value = grid_value[j]
            assert getattr(report, field) == grid_value, (processor.name, field)


def grid_op_cycles(trace, processor, dilation=1.0):
    """Per-op cycles of a one-machine grid, in trace order."""
    grid = MachineGrid.from_processors([processor])
    compiled = compile_trace(trace)
    vector = iter(grid.vector_op_cycles_grid(compiled, dilation)[:, 0].tolist()
                  if compiled.vector.n else [])
    scalar = iter(grid.scalar_op_cycles_grid(compiled)[:, 0].tolist()
                  if compiled.scalar.n else [])
    return [next(vector) if isinstance(op, VectorOp) else next(scalar) for op in trace]


class TestExactParity:
    @pytest.mark.parametrize("trace_id", sorted(TRACE_BUILDERS))
    def test_registered_traces_all_machines(self, trace_id):
        assert_grid_matches_per_op(build_registered_trace(trace_id), ALL_MACHINES)

    @pytest.mark.parametrize("dilation", [1.0, 1.37, 2.5])
    def test_memory_dilation_parity(self, dilation):
        assert_grid_matches_per_op(mixed_trace(), [sx4_processor()], dilation)

    def test_cache_machine_parity(self):
        # A cache machine (no vector unit) routes vector ops through the
        # scalar unit's model; the grid must match there too.
        proc = next(m for m in ALL_MACHINES if m.vector is None)
        assert_grid_matches_per_op(mixed_trace(), [proc])

    def test_dominant_op_agrees(self):
        proc = sx4_processor()
        trace = mixed_trace()
        report = proc.execute(trace)
        per_op = grid_op_cycles(trace, proc)
        assert list(report.op_cycles) == per_op
        assert report.dominant_op() == trace.ops[int(np.argmax(per_op))].name

    def test_empty_trace(self):
        proc = sx4_processor()
        report = proc.execute(Trace([]))
        assert report.cycles == 0.0
        assert report.seconds == 0.0
        assert report.dominant_op() == "<empty>"
        cost = cost_trace_grid(Trace([]), MachineGrid.from_processors([proc]))
        assert cost.cycles.tolist() == [0.0]
        assert cost.mflops.tolist() == [0.0]

    def test_dilation_validated_even_when_cached(self):
        proc = sx4_processor()
        trace = mixed_trace()
        grid = MachineGrid.from_processors([proc])
        proc.execute(trace, 1.0)
        cost_trace_grid(trace, grid, 1.0)  # populate the compile cache
        with pytest.raises(ValueError):
            proc.execute(trace, 0.5)
        with pytest.raises(ValueError):
            cost_trace_grid(trace, grid, 0.5)


class TestCompileCaching:
    def test_compile_is_cached_on_the_trace(self):
        trace = mixed_trace()
        assert compile_trace(trace) is compile_trace(trace)

    def test_append_invalidates(self):
        trace = mixed_trace()
        first = compile_trace(trace)
        trace.append(ScalarOp("extra", instructions=10))
        second = compile_trace(trace)
        assert second is not first
        assert second.n_ops == first.n_ops + 1

    def test_distinct_machines_do_not_share_costs(self):
        # One machine-independent lowering prices differently per machine.
        trace = mixed_trace()
        cost = cost_trace_grid(trace, MachineGrid.from_processors(ALL_MACHINES))
        assert len(set(cost.cycles.tolist())) > 1

    def test_pickled_trace_drops_compile_cache(self):
        import pickle

        trace = mixed_trace()
        compile_trace(trace)
        clone = pickle.loads(pickle.dumps(trace))
        assert clone._cache == {}
        assert sx4_processor().execute(clone).cycles == pytest.approx(
            sx4_processor().execute(trace).cycles
        )


class TestColumns:
    def test_column_layout(self):
        compiled = compile_trace(mixed_trace())
        assert isinstance(compiled, CompiledTrace)
        assert compiled.n_ops == 3
        assert compiled.vector.n == 2
        assert compiled.scalar.n == 1
        assert compiled.vector.intrinsics.shape == (2, len(INTRINSICS))
        assert SORTED_INTRINSICS == tuple(sorted(INTRINSICS))
        # gath: exp at 1.0/elem, sqrt at 0.5/elem, in the sorted columns.
        row = compiled.vector.intrinsics[1]
        assert row[SORTED_INTRINSICS.index("exp")] == 1.0
        assert row[SORTED_INTRINSICS.index("sqrt")] == 0.5
        assert row.sum() == 1.5

    def test_aggregate_totals_match_trace(self):
        trace = mixed_trace()
        compiled = compile_trace(trace)
        assert compiled.raw_flops_total() == trace.raw_flops
        assert compiled.flop_equivalents_total() == trace.flop_equivalents
        assert compiled.words_moved_total() == trace.words_moved


class TestSuiteColumns:
    def test_stack_layout_and_totals(self):
        ids = ("linpack", "radabs-scalar", "ia")
        traces = [build_registered_trace(trace_id) for trace_id in ids]
        suite = SuiteColumns.from_traces(zip(ids, traces))
        assert suite.trace_ids == ids
        assert suite.n_traces == 3
        for i, trace in enumerate(traces):
            solo = compile_trace(trace)
            vo, so = suite.vector_offsets, suite.scalar_offsets
            assert vo[i + 1] - vo[i] == solo.vector.n
            assert so[i + 1] - so[i] == solo.scalar.n
            # Stacking copies raw bit patterns: each segment is its trace.
            assert suite.vector.length[vo[i]:vo[i + 1]].tobytes() == solo.vector.length.tobytes()
            assert suite.raw_flops[i] == trace.raw_flops
            assert suite.flop_equivalents[i] == trace.flop_equivalents
            assert suite.words_moved[i] == trace.words_moved

    def test_empty_suite(self):
        suite = SuiteColumns.from_traces([])
        assert suite.n_traces == 0
        assert suite.vector.n == suite.scalar.n == 0
        assert suite.vector_offsets.tolist() == [0]

    def test_build_suite_columns_rejects_unknown_ids(self):
        with pytest.raises(ValueError, match="unknown trace ids"):
            build_suite_columns(["linpack", "nope"])
        assert build_suite_columns(["hint"]).trace_ids == ("hint",)


def test_fsum_matches_math_fsum():
    values = [0.1, 0.2, 0.3, 1e16, -1e16, 0.1]
    matrix = np.array([values, values[::-1]]).T
    assert fsum_columns(matrix).tolist() == [math.fsum(values)] * 2
    assert fsum_columns(np.zeros((0, 3))).tolist() == [0.0, 0.0, 0.0]
