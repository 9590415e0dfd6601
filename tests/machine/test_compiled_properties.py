"""Property: the per-op path, a one-row grid and a stacked suite agree.

There are two costing paths: :meth:`Processor.execute` walks one
machine op by op, and the machine grid prices column-lowered traces
(alone through :func:`cost_trace_grid`, or stacked into a
:class:`SuiteColumns` through :func:`cost_suite_trace_grid`).  The
contract is *bit* equality between them, so the property asserts ``==``
on cycles, seconds, Mflops and bandwidth (and on every per-op cycle
count) for generated suites.  The generators lean on the cases that
would break an elementwise mirror: vector length 1, lengths just past a
multiple of the register length, strides sharing a large factor with
the bank count, gather/scatter-heavy and intrinsic-dense rows, and
traces whose vector or scalar segment is empty.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine.compiled import SuiteColumns, compile_trace
from repro.machine.grid import MachineGrid, cost_suite_trace_grid, cost_trace_grid
from repro.machine.operations import INTRINSICS, ScalarOp, Trace, VectorOp
from repro.machine.presets import sx4_processor, table1_machines

SX4 = sx4_processor()
#: A Table 1 machine without a vector unit: vector ops cost through the
#: scalar/cache model, the other half of the grid kernels.
CACHE_MACHINE = next(m for m in table1_machines().values() if m.vector is None)
#: An SX-4 with no power-of-two parameters, so divisions by pipe rates,
#: path widths and bank counts are inexact and any change of association
#: in a grid kernel shows up as a bit difference.
AWKWARD = dataclasses.replace(
    SX4,
    name="awkward",
    vector=dataclasses.replace(
        SX4.vector, pipes=3, concurrent_sets=3, register_length=100, stripmine_cycles=7.3
    ),
    memory=dataclasses.replace(
        SX4.memory, banks=768, bank_busy_cycles=3.0, port_words_per_cycle=6.6,
        stride_base_penalty=1.7, index_words_per_element=0.7,
    ),
)

FIELDS = ("cycles", "seconds", "mflops", "bandwidth_bytes_per_s")

#: Per-element rates.  Decimal fractions (k/1000) are inexact in binary,
#: unlike the round floats hypothesis favours, so a grid expression whose
#: association drifted from its per-op sibling changes the last bit.
rates = st.one_of(
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
    st.integers(min_value=0, max_value=8000).map(lambda k: k / 1000),
)
heavy = st.one_of(
    st.floats(min_value=1.0, max_value=8.0, allow_nan=False),
    st.integers(min_value=1000, max_value=8000).map(lambda k: k / 1000),
)
#: Memory rates that are often exactly zero, so compute-bound rows (where
#: the arithmetic term, not the memory path, sets the cost) are common.
traffic = st.one_of(st.just(0.0), rates)

lengths = st.one_of(
    st.just(1),
    st.integers(min_value=1, max_value=200_000),
    # one past (or short of) a multiple of the 256-word register
    st.tuples(st.integers(min_value=1, max_value=64), st.sampled_from([-1, 1])).map(
        lambda km: 256 * km[0] + km[1]
    ),
)

strides = st.one_of(
    st.integers(min_value=1, max_value=2048),
    # 1 and 2 are conflict-free by hardware guarantee; 3 is the first not
    st.sampled_from([1, 2, 3]),
    # powers of two and their multiples share a large gcd with the banks
    st.sampled_from([128, 256, 384, 512, 768, 1024, 2048, 4096]),
)

intrinsic_mixes = st.dictionaries(
    st.sampled_from(sorted(INTRINSICS)),
    st.floats(min_value=0.0, max_value=4.0, allow_nan=False),
    max_size=len(INTRINSICS),
).map(lambda mix: tuple(sorted(mix.items())))

vector_ops = st.builds(
    VectorOp,
    name=st.sampled_from(["a", "b", "c"]),
    length=lengths,
    count=st.integers(min_value=0, max_value=5_000),
    flops_per_element=rates,
    loads_per_element=traffic,
    stores_per_element=traffic,
    gather_loads_per_element=traffic,
    scatter_stores_per_element=traffic,
    load_stride=strides,
    store_stride=strides,
    intrinsic_calls=intrinsic_mixes,
)

indexed_ops = st.builds(
    VectorOp,
    name=st.just("gather"),
    length=lengths,
    count=st.integers(min_value=1, max_value=5_000),
    flops_per_element=rates,
    gather_loads_per_element=heavy,
    scatter_stores_per_element=heavy,
    load_stride=strides,
    store_stride=strides,
)

intrinsic_ops = st.builds(
    VectorOp,
    name=st.just("physics"),
    length=lengths,
    count=st.integers(min_value=1, max_value=5_000),
    flops_per_element=rates,
    loads_per_element=rates,
    stores_per_element=rates,
    intrinsic_calls=st.lists(heavy, min_size=len(INTRINSICS), max_size=len(INTRINSICS)).map(
        lambda calls: tuple(zip(sorted(INTRINSICS), calls))
    ),
)


@st.composite
def scalar_ops(draw):
    instructions = draw(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    flops = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False)) * instructions
    return ScalarOp(
        name=draw(st.sampled_from(["s", "t"])),
        instructions=instructions,
        flops=flops,
        memory_words=draw(st.floats(min_value=0.0, max_value=1e5, allow_nan=False)),
        count=draw(st.integers(min_value=0, max_value=100)),
    )


any_vector_op = vector_ops | indexed_ops | intrinsic_ops

traces = st.one_of(
    st.lists(any_vector_op | scalar_ops(), max_size=8),
    st.lists(any_vector_op, max_size=6),  # empty scalar segment
    st.lists(scalar_ops(), max_size=4),  # empty vector segment
).map(lambda ops: Trace(ops, name="rand"))

suites = st.lists(traces, min_size=1, max_size=4)

dilations = st.floats(min_value=1.0, max_value=4.0, allow_nan=False)


def assert_paths_agree(processor, suite, dilation=1.0):
    """Per-op, one-row grid and stacked-suite grid agree bit for bit."""
    grid = MachineGrid.from_processors([processor])
    stack = SuiteColumns.from_traces((f"t{i}", trace) for i, trace in enumerate(suite))
    stacked = cost_suite_trace_grid(stack, grid, dilation)
    for trace, from_stack in zip(suite, stacked):
        report = processor.execute(trace, dilation)
        alone = cost_trace_grid(trace, grid, dilation)
        for field in FIELDS:
            expected = getattr(report, field)
            assert getattr(alone, field)[0] == expected, field
            assert getattr(from_stack, field)[0] == expected, field
        assert from_stack.flop_equivalents == alone.flop_equivalents == report.flop_equivalents
        assert from_stack.words_moved == alone.words_moved == report.words_moved
        compiled = compile_trace(trace)
        vector = [c for op, c in zip(trace, report.op_cycles) if isinstance(op, VectorOp)]
        scalar = [c for op, c in zip(trace, report.op_cycles) if isinstance(op, ScalarOp)]
        if vector:
            assert grid.vector_op_cycles_grid(compiled, dilation)[:, 0].tolist() == vector
        if scalar:
            assert grid.scalar_op_cycles_grid(compiled)[:, 0].tolist() == scalar


#: A compute-bound row whose arithmetic term divides by a non-power-of-two
#: pipe rate: reassociating ``length * flops / rate`` changes its last bit.
COMPUTE_BOUND = [Trace([VectorOp("arith", length=33, count=1, flops_per_element=5.0)])]


@given(suite=suites)
@example(suite=COMPUTE_BOUND)
@settings(max_examples=200, deadline=None)
def test_vector_machine_report_parity(suite):
    assert_paths_agree(SX4, suite)
    assert_paths_agree(AWKWARD, suite)


@given(suite=suites)
@settings(deadline=None)
def test_cache_machine_report_parity(suite):
    assert_paths_agree(CACHE_MACHINE, suite)


@given(suite=suites, dilation=dilations)
@settings(max_examples=50, deadline=None)
def test_dilated_report_parity(suite, dilation):
    assert_paths_agree(AWKWARD, suite, dilation)
    assert_paths_agree(CACHE_MACHINE, suite, dilation)


@given(trace=traces)
@settings(max_examples=25)
def test_compiled_matches_trace_aggregates(trace):
    compiled = compile_trace(trace)
    assert compiled.raw_flops_total() == trace.raw_flops
    assert compiled.flop_equivalents_total() == trace.flop_equivalents
    assert compiled.words_moved_total() == trace.words_moved
