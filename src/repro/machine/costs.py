"""The cost terms of the machine model, each written exactly once.

Section 2 of the paper argues from a handful of cost terms: vector
startup and strip-mining, the chained add+multiply pipes, bank-stride
conflicts (strides 1 and 2 conflict-free), list-vector gathers, and the
workstations' caches.  Every formula evaluates two ways: per op
(:class:`~repro.machine.processor.Processor`), ``op`` is a ``VectorOp``
or ``ScalarOp``, the machine arguments are the components themselves
(``VectorUnit``, ``BankedMemory``, ``ScalarUnit``, ``CacheModel``) and
``xp`` is :data:`SCALAR` (builtins and :mod:`math`); per grid
(:mod:`repro.machine.grid`), the same attribute names hold ``(n, 1)``
op columns and ``(m,)`` machine columns and ``xp`` is :mod:`numpy`.
IEEE-754 arithmetic is elementwise, so machine ``j``'s column of a grid
result is bit-identical to its per-op value.  Terms that apply only
sometimes (gathers, index traffic, intrinsics) are added
unconditionally, as an exact 0.0 when they do not apply.
"""

from __future__ import annotations

import math
from types import ModuleType

from repro.units import MEGA, NS

__all__ = [
    "SCALAR", "intrinsic_cycles", "vector_unit_cycles", "path_words_per_cycle",
    "distinct_banks", "conflict_factor", "stride_factor", "gather_factor",
    "memory_cycles", "vector_op_cycles", "words_per_line", "line_fill_cycles",
    "miss_rate", "cache_cycles_per_word", "scalar_loop_pattern", "scalar_loop_cycles",
    "scalar_op_cycles", "seconds", "mflops", "bandwidth_bytes_per_s",
]


def _where(condition, if_true, if_false):
    return if_true if condition else if_false


#: The per-op namespace: what :mod:`numpy` provides the grid, from
#: builtins and :mod:`math` (a module object, for cheap attribute lookups).
SCALAR = ModuleType("repro.machine.costs.SCALAR")
SCALAR.maximum, SCALAR.minimum, SCALAR.ceil, SCALAR.gcd = max, min, math.ceil, math.gcd
SCALAR.where = _where


# -- vector unit --------------------------------------------------------------
def intrinsic_cycles(op, rates, length, total=0.0):
    """``total`` plus ``length * calls * rate`` for each intrinsic, in name order."""
    for name, calls in op.intrinsic_calls:
        total = total + length * calls * rates[name]
    return total


def vector_unit_cycles(xp, op, vector):
    """``(strips, overhead, arithmetic)`` of one vector-loop execution.

    Overhead is startup plus strip-mining: what bends the short-vector
    end of Figures 5-7.  Arithmetic is pipe-busy time: with fewer flops
    per element than ``concurrent_sets`` only some sets have work, and a
    pure copy (0 flops) is bounded by the memory path instead.
    """
    length = op.length
    flops = op.flops_per_element
    sets_used = xp.minimum(vector.concurrent_sets, xp.maximum(1.0, flops))
    arithmetic = intrinsic_cycles(
        op, vector.intrinsic_cycles_per_element, length,
        length * flops / (vector.pipes * sets_used),
    )
    strips = xp.maximum(1, xp.ceil(length / vector.register_length))
    overhead = vector.startup_cycles + (strips - 1) * vector.stripmine_cycles
    return strips, overhead, arithmetic


# -- banked memory ------------------------------------------------------------
def path_words_per_cycle(memory):
    """Best-case words per cycle on the load path alone (= store path)."""
    return memory.port_words_per_cycle / 2.0


def distinct_banks(xp, stride, memory):
    """Banks a constant-stride pattern cycles through: ``B / gcd(s, B)``.

    The interleaved-memory classic that makes power-of-two strides the
    worst case (stride 512 on 1024 banks touches just 2 banks).
    """
    return memory.banks // xp.gcd(stride, memory.banks)


def conflict_factor(xp, stride, memory):
    """The pure bank-conflict part of the stride dilation (>= 1).

    Strides 1 and 2 are conflict-free by hardware guarantee.  Above that,
    1.0 while the visited banks can source the path width within the
    bank busy time; beyond it the banks themselves are the bottleneck.
    """
    sustainable = distinct_banks(xp, stride, memory) / memory.bank_busy_cycles
    return xp.where(
        stride <= 2, 1.0, xp.maximum(1.0, path_words_per_cycle(memory) / sustainable)
    )


def stride_factor(xp, stride, memory):
    """Throughput dilation of a constant-stride access pattern: above
    stride 2, the crossbar penalty times :func:`conflict_factor`."""
    return xp.where(
        stride <= 2, 1.0, memory.stride_base_penalty * conflict_factor(xp, stride, memory)
    )


def gather_factor(memory):
    """Throughput dilation of list-vector (randomly indexed) access.

    Random bank targets collide at the banks-to-busy ratio; with 1024
    two-cycle banks the add-on is small — the paper's point about the
    "very short bank cycle time".
    """
    occupancy = path_words_per_cycle(memory) * memory.bank_busy_cycles / memory.banks
    return memory.gather_base_penalty * (1.0 + occupancy)


def memory_cycles(xp, op, memory, factors):
    """``(load, store, transfer)`` cycles of one vector-loop execution.

    ``factors[stride]`` is :func:`stride_factor` and ``factors.gather``
    :func:`gather_factor`; the callers compute each once per distinct
    stride and machine.  Index vectors ride the load path at unit stride;
    the paths overlap, so transfer is the slower of the two.
    """
    length = op.length
    gathered = op.gather_loads_per_element
    scattered = op.scatter_stores_per_element
    width = path_words_per_cycle(memory)
    load = (
        op.loads_per_element * length * factors[op.load_stride] / width
        + gathered * length * factors.gather / width
        + (gathered + scattered) * length * memory.index_words_per_element / width
    )
    store = (
        op.stores_per_element * length * factors[op.store_stride] / width
        + scattered * length * factors.gather / width
    )
    return load, store, xp.maximum(load, store)


def vector_op_cycles(xp, op, vector, memory, factors, dilation):
    """All ``op.count`` executions of a vector loop on a vector machine.

    Each execution pays startup and strip-mining, then the slower of the
    pipes and the (``dilation``-stretched) memory path.
    """
    _, _, transfer = memory_cycles(xp, op, memory, factors)
    transfer = transfer * dilation
    _, overhead, arithmetic = vector_unit_cycles(xp, op, vector)
    return (overhead + xp.maximum(arithmetic, transfer)) * op.count


# -- cache --------------------------------------------------------------------
def words_per_line(cache):
    return cache.line_bytes // 8


def line_fill_cycles(cache):
    """Cost of one miss: latency plus streaming the line in."""
    return cache.miss_latency_cycles + words_per_line(cache) / cache.mem_words_per_cycle


def miss_rate(xp, stride, working_set, cache):
    """Expected misses per referenced word: none for a resident working
    set, else one per line touched (every reference once the stride
    reaches a line)."""
    lines = words_per_line(cache)
    streaming = xp.where(stride >= lines, 1.0, stride / lines)
    return xp.where(working_set <= cache.size_bytes, 0.0, streaming)


def cache_cycles_per_word(xp, stride, working_set, cache):
    """Average cost of one word reference under the given pattern."""
    rate = miss_rate(xp, stride, working_set, cache)
    return cache.hit_cycles_per_word + rate * line_fill_cycles(cache)


# -- scalar unit --------------------------------------------------------------
def scalar_loop_pattern(xp, op):
    """``(stride, working-set bytes)`` a vector loop presents to a cache."""
    stride = xp.maximum(op.load_stride, op.store_stride)
    working_set = (
        (op.loads_per_element * op.load_stride + op.stores_per_element * op.store_stride)
        * op.length
        * 8.0
    )
    return stride, working_set


def scalar_loop_cycles(xp, op, scalar, dilation=1.0, executions=1.0):
    """A vector loop run as a scalar loop on a cache machine.

    Each element pays the slower of its flops and its cache-modelled
    references, loop overhead at the issue rate, and scalar intrinsic
    calls.  Indexed references are small-table lookups: resident, so a
    hit plus the address computation.  Defaults: one undilated execution.
    """
    words = op.loads_per_element + op.stores_per_element
    indexed = op.gather_loads_per_element + op.scatter_stores_per_element
    stride, working_set = scalar_loop_pattern(xp, op)
    cache = scalar.cache
    memory = (
        words * cache_cycles_per_word(xp, stride, working_set, cache)
        + indexed * 2.0 * cache.hit_cycles_per_word
    )
    flop = op.flops_per_element / scalar.flops_per_cycle
    loop = scalar.loop_overhead_instructions / scalar.issue_width
    calls = intrinsic_cycles(op, scalar.intrinsic_cycles_per_call, 1.0)
    per_element = xp.maximum(flop, memory) + loop + calls
    return op.length * per_element * dilation * executions


def scalar_op_cycles(op, scalar, executions=1.0):
    """A ScalarOp: issue, floating-point and memory time, summed — branchy,
    dependence-chained code defeats superscalar overlap."""
    issue = op.instructions / scalar.issue_width
    fp = op.flops / scalar.flops_per_cycle
    memory = op.memory_words * scalar.cache.hit_cycles_per_word
    return (issue + fp + memory) * executions


# -- derived rates ------------------------------------------------------------
def seconds(cycles, period_ns):
    """Wall-clock seconds of a cycle count at a clock period."""
    return cycles * (period_ns * NS)


def mflops(xp, flops, elapsed):
    """Sustained Mflops; 0 when no time elapsed."""
    zero = elapsed == 0.0
    return xp.where(zero, 0.0, flops / xp.where(zero, 1.0, elapsed) / MEGA)


def bandwidth_bytes_per_s(xp, words, elapsed):
    """Sustained data bandwidth of 64-bit words; 0 when no time elapsed."""
    zero = elapsed == 0.0
    return xp.where(zero, 0.0, (words * 8.0) / xp.where(zero, 1.0, elapsed))
