"""Scalar (superscalar) unit model.

Section 2.1: the SX-4 scalar unit is a superscalar RISC processor with
64 KB data and instruction caches that issues up to two instructions per
clock, with branch prediction and out-of-order execution.  All vector
instructions are also issued by this unit (most in two clocks), which is
why vector-loop startup ends up charged against the scalar side in real
codes — our model folds that into :class:`~repro.machine.vector_unit.VectorUnit`
startup and uses the scalar unit for genuinely unvectorised work:

* :class:`~repro.machine.operations.ScalarOp` descriptors (loop
  bookkeeping, diagnostics, recursion),
* whole :class:`~repro.machine.operations.VectorOp` loops on machines with
  no vector unit (the SPARC20 / RS6000 comparators), where each element is
  processed at superscalar rates through the cache model,
* scalar intrinsic calls (the workstation math library, at hundreds of
  cycles per call — the reason RADABS runs at ~13–17 Mflops on the
  workstations of Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.machine import costs
from repro.machine.cache import CacheModel
from repro.machine.costs import SCALAR
from repro.machine.operations import INTRINSICS, ScalarOp, VectorOp
from repro.perfmon.counters import declare_counters

__all__ = ["ScalarUnit"]

declare_counters(
    "scalar_unit",
    (
        "ex_cycles",  # cycles spent executing on the scalar unit
        "instructions",  # PROGINF "Inst. Count" (scalar issue slots)
        "flops",
        "flop_equivalents",
        "memory_words",
        "intrinsic_calls",  # scalar (libm-style) intrinsic calls
    ),
)


def _default_scalar_intrinsic_cycles() -> dict[str, float]:
    # Scalar math-library costs in cycles per call; typical of mid-1990s
    # libm implementations (polynomial kernels plus range reduction).
    return {
        "sqrt": 60.0,
        "exp": 120.0,
        "log": 130.0,
        "sin": 140.0,
        "pwr": 250.0,
        "div": 20.0,
    }


@dataclass
class ScalarUnit:
    """Issue-limited superscalar model with an attached data cache."""

    issue_width: float = 2.0
    flops_per_cycle: float = 1.0
    cache: CacheModel = field(default_factory=CacheModel)
    loop_overhead_instructions: float = 6.0
    intrinsic_cycles_per_call: Mapping[str, float] = field(
        default_factory=_default_scalar_intrinsic_cycles
    )

    def __post_init__(self) -> None:
        if self.issue_width <= 0:
            raise ValueError(f"issue width must be positive, got {self.issue_width}")
        if self.flops_per_cycle <= 0:
            raise ValueError(f"flop rate must be positive, got {self.flops_per_cycle}")
        if self.loop_overhead_instructions < 0:
            raise ValueError("loop overhead cannot be negative")
        missing = [f for f in INTRINSICS if f not in self.intrinsic_cycles_per_call]
        if missing:
            raise ValueError(f"scalar intrinsic cost table missing entries for {missing}")

    def scalar_op_cycles(self, op: ScalarOp) -> float:
        """Cycles for one execution of a ScalarOp (excluding ``count``)."""
        return costs.scalar_op_cycles(op, self)

    def vector_op_cycles(self, op: VectorOp) -> float:
        """Cycles for one execution of a VectorOp run as a scalar loop."""
        return costs.scalar_loop_cycles(SCALAR, op, self)

    # -- perfmon instrumentation --------------------------------------------
    def perfmon_scalar_counters(
        self, op: ScalarOp
    ) -> tuple[dict[str, float], dict[str, float]]:
        """(scalar_unit, cache) counter increments for a ScalarOp."""
        scalar = {
            "ex_cycles": self.scalar_op_cycles(op) * op.count,
            "instructions": op.instructions * op.count,
            "flops": op.raw_flops,
            "flop_equivalents": op.flop_equivalents,
            "memory_words": op.words_moved,
        }
        # Scalar references are register/cache-resident by construction.
        cache = self.cache.perfmon_counters(op.words_moved)
        return scalar, cache

    def perfmon_vector_counters(
        self, op: VectorOp
    ) -> tuple[dict[str, float], dict[str, float]]:
        """(scalar_unit, cache) increments for a VectorOp run as a
        scalar loop on a cache machine.

        Instruction accounting mirrors :meth:`vector_op_cycles`: per
        element, the flops plus the loop-bookkeeping overhead occupy
        issue slots; memory references go through the cache model with
        the loop's stride and working set.
        """
        elements = op.elements
        words_per_elem = op.loads_per_element + op.stores_per_element
        indexed_per_elem = op.gather_loads_per_element + op.scatter_stores_per_element
        stride, working_set = costs.scalar_loop_pattern(SCALAR, op)
        scalar = {
            "ex_cycles": self.vector_op_cycles(op) * op.count,
            "instructions": (op.flops_per_element + self.loop_overhead_instructions) * elements,
            "flops": op.raw_flops,
            "flop_equivalents": op.flop_equivalents,
            "memory_words": op.words_moved,
            "intrinsic_calls": sum(op.intrinsic_calls_total.values()),
        }
        cache = self.cache.perfmon_counters(
            words_per_elem * elements, stride, working_set
        )
        if indexed_per_elem > 0:
            # Small-table lookups: resident, so pure hits (see above).
            for name, value in self.cache.perfmon_counters(
                indexed_per_elem * elements
            ).items():
                cache[name] = cache.get(name, 0.0) + value
        return scalar, cache
