"""NAS Parallel Benchmark kernels (Section 3.2) — the CFD comparison.

"The NAS Parallel Benchmarks are designed to characterize the
computation and data movement of large scale computational fluid
dynamics (CFD) applications ... These benchmarks are unique in that they
are specified algorithmically rather than with computer code.  Although
there is significant commonality between CFD and numerical
climate/weather prediction, the differences are such that benchmarks
from the NAS suite did not characterize the computational load at NCAR."

Two of the five kernels are implemented from their algorithmic
specifications — enough to *measure* the paper's point:

* **EP (Embarrassingly Parallel)**: generate pseudorandom pairs with the
  NAS linear-congruential generator, accept those inside the unit disk,
  form Gaussian deviates by Marsaglia's polar method, and tally them
  into ten annular square-count bins.  Pure arithmetic, no memory
  structure — the anti-RADABS.
* **CG (Conjugate Gradient)**: estimate the smallest eigenvalue-shifted
  system solve via CG on a sparse SPD matrix — here the 9-point
  Helmholtz operator the ocean models use, which is the structured-grid
  analogue of NAS CG's sparse matvec.

The suite-level observation the tests assert: EP says nothing about
memory bandwidth (its model performance is independent of the memory
system), which is exactly why a suite of such kernels could not
characterise NCAR's bandwidth-limited workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.operations import Trace, VectorOp
from repro.machine.processor import Processor

__all__ = [
    "nas_random",
    "EPResult",
    "ep_kernel",
    "ep_trace",
    "ep_model_mflops",
    "cg_benchmark",
]

#: NAS LCG parameters: x_{k+1} = a·x_k mod 2^46.
_A = 5**13
_MOD = 2**46
_DEFAULT_SEED = 271828183


def nas_random(n: int, seed: int = _DEFAULT_SEED) -> np.ndarray:
    """The NAS pseudorandom sequence: n uniforms in (0, 1).

    Implemented exactly as specified (multiplicative LCG modulo 2^46)
    using Python integers for the recurrence, vectorised in blocks via
    the jump-ahead property a^k mod 2^46.
    """
    if n < 1:
        raise ValueError(f"need at least one deviate, got {n}")
    if not 0 < seed < _MOD or seed % 2 == 0:
        raise ValueError("seed must be an odd integer in (0, 2^46)")
    out = np.empty(n, dtype=np.float64)
    x = seed
    for i in range(n):
        x = (_A * x) % _MOD
        out[i] = x / _MOD
    return out


@dataclass(frozen=True)
class EPResult:
    """EP's verification quantities: sums and the annulus counts."""

    pairs_tested: int
    pairs_accepted: int
    sum_x: float
    sum_y: float
    counts: tuple[int, ...]

    @property
    def acceptance_rate(self) -> float:
        return self.pairs_accepted / max(1, self.pairs_tested)


def ep_kernel(pairs: int, seed: int = _DEFAULT_SEED) -> EPResult:
    """The EP benchmark: Gaussian deviates by the polar method, binned.

    For each accepted pair (x², y² with t = x²+y² ≤ 1) the Gaussian pair
    is (x·√(−2·ln t / t), y·√(−2·ln t / t)); the bin is
    ``floor(max(|X|, |Y|))``, capped at 9.
    """
    if pairs < 1:
        raise ValueError(f"need at least one pair, got {pairs}")
    uniforms = nas_random(2 * pairs)
    x = 2.0 * uniforms[0::2] - 1.0
    y = 2.0 * uniforms[1::2] - 1.0
    t = x * x + y * y
    accept = (t <= 1.0) & (t > 0.0)
    xa, ya, ta = x[accept], y[accept], t[accept]
    factor = np.sqrt(-2.0 * np.log(ta) / ta)
    gx, gy = xa * factor, ya * factor
    bins = np.minimum(np.floor(np.maximum(np.abs(gx), np.abs(gy))), 9).astype(int)
    counts = np.bincount(bins, minlength=10)
    return EPResult(
        pairs_tested=pairs,
        pairs_accepted=int(accept.sum()),
        sum_x=float(gx.sum()),
        sum_y=float(gy.sum()),
        counts=tuple(int(c) for c in counts[:10]),
    )


def ep_trace(pairs: int) -> Trace:
    """Machine-model description of EP: long vectors of pure arithmetic
    (two uniforms, the acceptance test, log/sqrt per accepted pair) with
    almost no memory traffic — the structural opposite of COPY/IA."""
    if pairs < 1:
        raise ValueError(f"need at least one pair, got {pairs}")
    length = min(pairs, 65536)
    count = max(1.0, pairs / length)
    return Trace(
        [
            VectorOp.make(
                "ep pair",
                length,
                count=count,
                flops_per_element=12.0,  # LCG updates, polar test, scalings
                loads_per_element=0.1,  # tallies only
                stores_per_element=0.1,
                intrinsics={"log": 0.79, "sqrt": 0.79},  # per accepted pair
            )
        ],
        name=f"NAS EP {pairs} pairs",
    )


def ep_model_mflops(processor: Processor, pairs: int = 1_000_000) -> float:
    """EP Mflops on a machine model (flop-equivalent accounting)."""
    trace = ep_trace(pairs)
    report = processor.execute(trace)
    return report.mflops


def cg_benchmark(nlat: int = 64, nlon: int = 96, seed: int = 0) -> dict[str, float]:
    """A NAS-CG-shaped benchmark on the ocean substrate's solver.

    Builds the SPD 9-point Helmholtz system, solves it with the POP
    conjugate-gradient solver, and reports iterations and residual —
    the functional face; NAS CG's performance story (sparse matvec,
    irregular access) is the IA benchmark's territory in this suite.
    """
    from repro.apps.pop.operators import NinePointStencil
    from repro.apps.pop.solver import conjugate_gradient

    stencil = NinePointStencil.helmholtz(
        nlat, nlon, dx=np.full(nlat, 1.0e5), dy=1.1e5, alpha=1.0e9
    )
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal((nlat, nlon))
    result = conjugate_gradient(stencil, rhs, tol=1e-10)
    if not result.converged:
        raise RuntimeError("CG failed to converge on the benchmark system")
    return {
        "iterations": float(result.iterations),
        "residual": result.residual_norm,
        "unknowns": float(nlat * nlon),
    }
