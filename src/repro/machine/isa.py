"""A functional vector-ISA simulator for the SX-4's vector unit.

The analytic model (:mod:`repro.machine.vector_unit`) prices operation
*descriptors*; this module goes one level deeper and actually *executes*
vector programs — the Section 2.1 machine made concrete:

* 64-bit scalar registers and vector registers of 256 elements (eight
  32-element pipeline chips ganged together),
* a vector length register (strip-mining writes it per strip),
* vector instructions: strided/indexed loads and stores, element-wise
  add/multiply/divide/logical ops, scalar-vector forms, and reductions,
* cycle accounting per instruction consistent with the analytic model:
  ``startup + ceil(vl / pipes)`` for arithmetic, the banked-memory path
  costs for loads/stores.

Programs are sequences of :class:`Instr`; :class:`VectorMachine.run`
executes them against a NumPy-backed memory image and returns the cycle
count, so tests can check *both* that a kernel computes the right answer
and that its simulated cycles agree with the analytic trace model — the
cross-validation that keeps the performance model honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.machine import costs
from repro.machine.memory import BankedMemory
from repro.machine.vector_unit import VectorUnit

__all__ = ["Instr", "VectorMachine", "assemble_copy", "assemble_daxpy", "assemble_gather"]

#: Opcodes grouped by execution resource.
_ARITH_BINARY: dict[str, Callable] = {
    "vadd": np.add,
    "vsub": np.subtract,
    "vmul": np.multiply,
    "vdiv": np.divide,
    "vand": lambda a, b: np.bitwise_and(a.astype(np.int64), b.astype(np.int64)).astype(float),
    "vor": lambda a, b: np.bitwise_or(a.astype(np.int64), b.astype(np.int64)).astype(float),
    "vmax": np.maximum,
    "vmin": np.minimum,
}
_ARITH_SCALAR: dict[str, Callable] = {
    "vadds": lambda v, s: v + s,
    "vmuls": lambda v, s: v * s,
}
_REDUCE: dict[str, Callable] = {
    "vsum": np.sum,
    "vmaxval": np.max,
}
_FLOPS = {"vadd": 1, "vsub": 1, "vmul": 1, "vdiv": 4, "vand": 0, "vor": 0,
          "vmax": 0, "vmin": 0, "vadds": 1, "vmuls": 1, "vsum": 1, "vmaxval": 0}


@dataclass(frozen=True)
class Instr:
    """One instruction: opcode plus operand fields.

    Field meaning by class:
      - ``setvl``:   imm = new vector length (1..max_vl)
      - ``lds``:     vd ← memory[imm + i·stride]      (strided load)
      - ``sts``:     memory[imm + i·stride] ← vs1     (strided store)
      - ``ldx``:     vd ← memory[imm + index_vector]  (gather; vs2 = index reg)
      - ``stx``:     memory[imm + index_vector] ← vs1 (scatter; vs2 = index reg)
      - arithmetic:  vd ← op(vs1, vs2)  /  vd ← op(vs1, scalar imm)
      - reductions:  sd ← op(vs1)  (result to a scalar register, sd=vd field)
    """

    op: str
    vd: int = 0
    vs1: int = 0
    vs2: int = 0
    imm: float = 0.0
    stride: int = 1


@dataclass
class VectorMachine:
    """Executable vector unit + memory image.

    ``memory`` is a flat float64 array (word-addressed, as the SX-4's
    benchmarks see it).  Cycle accounting reuses the analytic models so
    the two layers cannot drift apart silently.
    """

    memory_words: int = 1 << 20
    num_vregs: int = 8
    num_sregs: int = 8
    vector_unit: VectorUnit = field(default_factory=VectorUnit)
    memory_model: BankedMemory = field(default_factory=BankedMemory)

    def __post_init__(self) -> None:
        if self.memory_words < 1:
            raise ValueError("memory must hold at least one word")
        if self.num_vregs < 2 or self.num_sregs < 1:
            raise ValueError("need at least two vector and one scalar register")
        self.memory = np.zeros(self.memory_words, dtype=np.float64)
        self.max_vl = self.vector_unit.register_length
        self.vregs = np.zeros((self.num_vregs, self.max_vl), dtype=np.float64)
        self.sregs = np.zeros(self.num_sregs, dtype=np.float64)
        self.vl = self.max_vl
        self.cycles = 0.0
        self.instructions_retired = 0
        #: Chaining state: the pipeline-fill startup is paid once when
        #: the vector unit first kicks off; thereafter consecutive vector
        #: instructions chain and pay only issue + streaming time, with a
        #: small refill per strip-mine boundary (setvl) — the same
        #: accounting as the analytic VectorUnit model.
        self._pipeline_started = False

    # -- helpers ---------------------------------------------------------------
    def _check_vreg(self, r: int) -> None:
        if not 0 <= r < self.num_vregs:
            raise ValueError(f"vector register v{r} out of range")

    def _addresses(self, base: float, stride: int) -> np.ndarray:
        addr = int(base) + stride * np.arange(self.vl)
        if addr.min() < 0 or addr.max() >= self.memory_words:
            raise IndexError(
                f"address range {addr.min()}..{addr.max()} outside memory "
                f"of {self.memory_words} words"
            )
        return addr

    def _kickoff_cycles(self) -> float:
        """Pipeline-fill cost: full startup the first time, then chained."""
        if self._pipeline_started:
            return 0.0
        self._pipeline_started = True
        return self.vector_unit.startup_cycles

    def _mem_cycles(self, stride: int, indexed: bool, is_store: bool) -> float:
        width = costs.path_words_per_cycle(self.memory_model)
        issue = 2.0  # vector instructions issue in two clocks (Section 2.1)
        if indexed:
            data = self.vl * self.memory_model.gather_factor() / width
            index = self.vl * self.memory_model.index_words_per_element / width
            return issue + self._kickoff_cycles() + data + index
        factor = self.memory_model.stride_factor(stride)
        return issue + self._kickoff_cycles() + self.vl * factor / width

    def _arith_cycles(self, flops_per_element: int) -> float:
        pipes = self.vector_unit.pipes
        busy = math.ceil(self.vl / pipes) * max(1, flops_per_element)
        return 2.0 + self._kickoff_cycles() + busy

    # -- execution ---------------------------------------------------------------
    def execute(self, instr: Instr) -> None:
        op = instr.op
        if op == "setvl":
            new_vl = int(instr.imm)
            if not 1 <= new_vl <= self.max_vl:
                raise ValueError(f"vector length {new_vl} outside 1..{self.max_vl}")
            self.vl = new_vl
            # Issue, plus the strip-mine refill once the pipes are hot.
            self.cycles += 2.0 + (
                self.vector_unit.stripmine_cycles if self._pipeline_started else 0.0
            )
        elif op == "lds":
            self._check_vreg(instr.vd)
            addr = self._addresses(instr.imm, instr.stride)
            self.vregs[instr.vd, : self.vl] = self.memory[addr]
            self.cycles += self._mem_cycles(instr.stride, indexed=False, is_store=False)
        elif op == "sts":
            self._check_vreg(instr.vs1)
            addr = self._addresses(instr.imm, instr.stride)
            self.memory[addr] = self.vregs[instr.vs1, : self.vl]
            self.cycles += self._mem_cycles(instr.stride, indexed=False, is_store=True)
        elif op in ("ldx", "stx"):
            self._check_vreg(instr.vs2)
            index = self.vregs[instr.vs2, : self.vl].astype(np.int64)
            addr = int(instr.imm) + index
            if addr.min() < 0 or addr.max() >= self.memory_words:
                raise IndexError("indexed access outside memory")
            if op == "ldx":
                self._check_vreg(instr.vd)
                self.vregs[instr.vd, : self.vl] = self.memory[addr]
            else:
                self._check_vreg(instr.vs1)
                self.memory[addr] = self.vregs[instr.vs1, : self.vl]
            self.cycles += self._mem_cycles(1, indexed=True, is_store=op == "stx")
        elif op in _ARITH_BINARY:
            self._check_vreg(instr.vd)
            self._check_vreg(instr.vs1)
            self._check_vreg(instr.vs2)
            a = self.vregs[instr.vs1, : self.vl]
            b = self.vregs[instr.vs2, : self.vl]
            if op == "vdiv" and np.any(b == 0.0):
                raise ZeroDivisionError("vector divide by zero")
            self.vregs[instr.vd, : self.vl] = _ARITH_BINARY[op](a, b)
            self.cycles += self._arith_cycles(_FLOPS[op])
        elif op in _ARITH_SCALAR:
            self._check_vreg(instr.vd)
            self._check_vreg(instr.vs1)
            self.vregs[instr.vd, : self.vl] = _ARITH_SCALAR[op](
                self.vregs[instr.vs1, : self.vl], instr.imm
            )
            self.cycles += self._arith_cycles(_FLOPS[op])
        elif op in _REDUCE:
            self._check_vreg(instr.vs1)
            if not 0 <= instr.vd < self.num_sregs:
                raise ValueError(f"scalar register s{instr.vd} out of range")
            self.sregs[instr.vd] = _REDUCE[op](self.vregs[instr.vs1, : self.vl])
            # Reductions run a log-tree over the pipes after the stream.
            self.cycles += self._arith_cycles(_FLOPS[op]) + 2 * math.log2(
                max(2, self.vector_unit.pipes)
            )
        else:
            raise ValueError(f"unknown opcode {op!r}")
        self.instructions_retired += 1

    def run(self, program: list[Instr]) -> float:
        """Execute a program; returns total cycles consumed by it."""
        start = self.cycles
        for instr in program:
            self.execute(instr)
        return self.cycles - start


# -- assemblers for the benchmark kernels ----------------------------------------

def _stripmine(n: int, max_vl: int):
    offset = 0
    while offset < n:
        yield offset, min(max_vl, n - offset)
        offset += max_vl


def assemble_copy(src: int, dst: int, n: int, max_vl: int = 256) -> list[Instr]:
    """The NCAR COPY inner loop: dst[i] = src[i], strip-mined."""
    if n < 1:
        raise ValueError(f"need at least one element, got {n}")
    program: list[Instr] = []
    for offset, vl in _stripmine(n, max_vl):
        program.append(Instr("setvl", imm=vl))
        program.append(Instr("lds", vd=0, imm=src + offset, stride=1))
        program.append(Instr("sts", vs1=0, imm=dst + offset, stride=1))
    return program


def assemble_daxpy(
    x: int, y: int, n: int, alpha: float, max_vl: int = 256
) -> list[Instr]:
    """y[i] += alpha * x[i] — the LINPACK inner loop."""
    if n < 1:
        raise ValueError(f"need at least one element, got {n}")
    program: list[Instr] = []
    for offset, vl in _stripmine(n, max_vl):
        program.append(Instr("setvl", imm=vl))
        program.append(Instr("lds", vd=0, imm=x + offset, stride=1))
        program.append(Instr("lds", vd=1, imm=y + offset, stride=1))
        program.append(Instr("vmuls", vd=2, vs1=0, imm=alpha))
        program.append(Instr("vadd", vd=3, vs1=1, vs2=2))
        program.append(Instr("sts", vs1=3, imm=y + offset, stride=1))
    return program


def assemble_gather(
    src: int, index: int, dst: int, n: int, max_vl: int = 256
) -> list[Instr]:
    """The IA inner loop: dst[i] = src[indx[i]] (list-vector load)."""
    if n < 1:
        raise ValueError(f"need at least one element, got {n}")
    program: list[Instr] = []
    for offset, vl in _stripmine(n, max_vl):
        program.append(Instr("setvl", imm=vl))
        program.append(Instr("lds", vd=1, imm=index + offset, stride=1))
        program.append(Instr("ldx", vd=0, vs2=1, imm=src))
        program.append(Instr("sts", vs1=0, imm=dst + offset, stride=1))
    return program
