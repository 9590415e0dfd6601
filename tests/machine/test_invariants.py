"""Physical invariants of the cost model over random machines (Section 2).

The paper argues from a few monotone effects: more pipes or a faster
clock never hurt, a longer bank busy time never helps strided access,
strides 1 and 2 are conflict-free on any bank count, and a vector loop's
rate climbs with its length up to the register length (startup is paid
once per strip).  These properties draw random machines as grid rows.
The grid and :meth:`Processor.execute` evaluate the same formulas
(:mod:`repro.machine.costs`), so every property holds for the per-op
path too.

Comparisons are exact: IEEE-754 rounding is monotone, so a monotone
formula stays monotone in floating point.  The one exception is the
Mflops-versus-length property, a ratio of two quantities that both grow
with length; there a rate may sit a few ulps below its predecessor when
the model makes it constant in exact arithmetic (zero startup).
"""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import costs
from repro.machine.compiled import SuiteColumns
from repro.machine.grid import MachineGrid, cost_suite_trace_grid, cost_trace_grid
from repro.machine.memory import BankedMemory
from repro.machine.operations import INTRINSICS, ScalarOp, Trace, VectorOp
from repro.machine.presets import sun_sparc20, sx4_processor

rates = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)

intrinsic_mixes = st.dictionaries(
    st.sampled_from(sorted(INTRINSICS)),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    max_size=3,
).map(lambda mix: tuple(sorted(mix.items())))


def vector_ops(strides=st.integers(min_value=1, max_value=2048)):
    return st.builds(
        VectorOp,
        name=st.just("v"),
        length=st.integers(min_value=1, max_value=100_000),
        count=st.integers(min_value=0, max_value=1_000),
        flops_per_element=rates,
        loads_per_element=rates,
        stores_per_element=rates,
        gather_loads_per_element=rates,
        scatter_stores_per_element=rates,
        load_stride=strides,
        store_stride=strides,
        intrinsic_calls=intrinsic_mixes,
    )


@st.composite
def scalar_ops(draw):
    instructions = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    return ScalarOp(
        name="s",
        instructions=instructions,
        flops=draw(st.floats(min_value=0.0, max_value=1.0)) * instructions,
        memory_words=draw(st.floats(min_value=0.0, max_value=1e5, allow_nan=False)),
        count=draw(st.integers(min_value=0, max_value=100)),
    )


def traces(ops):
    return st.lists(ops, max_size=6).map(lambda ops: Trace(ops, name="rand"))


@st.composite
def vector_rows(draw):
    """Column values of a random vector machine."""
    return dict(
        period_ns=draw(st.floats(min_value=0.5, max_value=50.0)),
        pipes=float(draw(st.integers(min_value=1, max_value=32))),
        concurrent_sets=float(draw(st.integers(min_value=1, max_value=4))),
        startup_cycles=draw(st.floats(min_value=0.0, max_value=200.0)),
        register_length=float(draw(st.integers(min_value=8, max_value=512))),
        stripmine_cycles=draw(st.floats(min_value=0.0, max_value=50.0)),
        banks=draw(st.integers(min_value=1, max_value=4096)),
        bank_busy_cycles=draw(st.floats(min_value=0.25, max_value=16.0)),
        port_words_per_cycle=draw(st.floats(min_value=0.5, max_value=32.0)),
        stride_base_penalty=draw(st.floats(min_value=1.0, max_value=4.0)),
        gather_base_penalty=draw(st.floats(min_value=1.0, max_value=4.0)),
    )


@st.composite
def cache_rows(draw):
    """Column values of a random cache (workstation) machine."""
    return dict(
        period_ns=draw(st.floats(min_value=0.5, max_value=50.0)),
        issue_width=draw(st.floats(min_value=0.5, max_value=8.0)),
        flops_per_cycle=draw(st.floats(min_value=0.25, max_value=8.0)),
        cache_size_bytes=draw(st.integers(min_value=1024, max_value=1 << 24)),
        cache_line_bytes=8 * draw(st.integers(min_value=1, max_value=64)),
        cache_hit_cycles_per_word=draw(st.floats(min_value=0.25, max_value=8.0)),
        cache_mem_words_per_cycle=draw(st.floats(min_value=0.1, max_value=8.0)),
    )


def rows_grid(base, rows: list[dict]) -> MachineGrid:
    """A validated grid of ``base`` with each row's columns overwritten."""
    grid = MachineGrid.from_processors([base] * len(rows))
    for i, row in enumerate(rows):
        for column, value in row.items():
            getattr(grid, column)[i] = value
    grid.validate()
    return grid


@given(row=vector_rows(), extra=st.integers(min_value=1, max_value=32),
       trace=traces(vector_ops() | scalar_ops()))
@settings(max_examples=60, deadline=None)
def test_more_pipes_is_never_slower(row, extra, trace):
    wider = dict(row, pipes=row["pipes"] + extra)
    cost = cost_trace_grid(trace, rows_grid(sx4_processor(), [row, wider]))
    assert cost.cycles[1] <= cost.cycles[0]


@given(row=vector_rows() | cache_rows(), shrink=st.floats(min_value=0.05, max_value=1.0),
       trace=traces(vector_ops() | scalar_ops()))
@settings(max_examples=60, deadline=None)
def test_shorter_clock_period_is_never_slower(row, shrink, trace):
    base = sx4_processor() if "pipes" in row else sun_sparc20()
    faster = dict(row, period_ns=row["period_ns"] * shrink)
    cost = cost_trace_grid(trace, rows_grid(base, [row, faster]))
    assert cost.seconds[1] <= cost.seconds[0]


@given(row=vector_rows(), longer=st.floats(min_value=0.0, max_value=64.0),
       trace=traces(vector_ops(strides=st.integers(min_value=3, max_value=4096))))
@settings(max_examples=60, deadline=None)
def test_longer_bank_busy_is_never_faster_above_stride_two(row, longer, trace):
    slower = dict(row, bank_busy_cycles=row["bank_busy_cycles"] + longer)
    cost = cost_trace_grid(trace, rows_grid(sx4_processor(), [row, slower]))
    assert cost.cycles[1] >= cost.cycles[0]


@given(
    banks=st.lists(st.integers(min_value=1, max_value=1 << 20), min_size=1, max_size=32),
    busy=st.floats(min_value=0.01, max_value=64.0),
    port=st.floats(min_value=0.01, max_value=64.0),
    penalty=st.floats(min_value=1.0, max_value=8.0),
)
@settings(max_examples=60, deadline=None)
def test_strides_one_and_two_are_conflict_free_on_any_bank_count(banks, busy, port, penalty):
    columns = SimpleNamespace(
        banks=np.array(banks, dtype=np.int64),
        bank_busy_cycles=np.full(len(banks), busy),
        port_words_per_cycle=np.full(len(banks), port),
        stride_base_penalty=np.full(len(banks), penalty),
    )
    factors = costs.stride_factor(np, np.array([[1], [2]]), columns)
    assert (factors == 1.0).all()
    for count in banks:
        memory = BankedMemory(
            banks=count, bank_busy_cycles=busy, port_words_per_cycle=port,
            stride_base_penalty=penalty,
        )
        assert memory.stride_factor(1) == memory.stride_factor(2) == 1.0


@given(row=vector_rows(), op=vector_ops(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_mflops_do_not_fall_as_length_grows_to_the_register_length(row, op, data):
    register_length = int(row["register_length"])
    lengths = sorted(data.draw(st.sets(
        st.integers(min_value=1, max_value=register_length), min_size=2, max_size=12
    )))
    suite = SuiteColumns.from_traces(
        (str(length), Trace([replace(op, length=length)], name=str(length)))
        for length in lengths
    )
    grid = rows_grid(sx4_processor(), [row])
    mflops = [cost.mflops[0] for cost in cost_suite_trace_grid(suite, grid)]
    for shorter, longer in zip(mflops, mflops[1:]):
        assert longer >= shorter * (1.0 - 8 * math.ulp(1.0))
