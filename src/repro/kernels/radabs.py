"""RADABS: the CCM2 radiation-physics kernel (Sections 3.3, 4.4, Table 1).

RADABS computes broadband radiative absorptivities between every pair of
model levels in a vertical column — the single most expensive subroutine
in CCM2 and "to NCAR's climate codes what LINPACK is to numerical linear
algebra".  Its defining characteristics, which both the functional kernel
and the trace builder preserve:

* embarrassingly parallel in the horizontal (one independent calculation
  per column, vectorised over the collapsed lat-lon axis),
* dominated by intrinsic calls — EXP (transmission), LOG (CO₂ band
  saturation), PWR (pressure scaling, Planck T⁴), SQRT (temperature path
  correction), SIN (zenith geometry),
* long multi-line arithmetic expressions between the intrinsics.

The paper reports RADABS in *Cray Y-MP equivalent Mflops* — operation
counts with library calls credited at Cray hardware-performance-monitor
weights — which is what :data:`repro.machine.operations.INTRINSIC_FLOP_EQUIV`
encodes.  Anchors: 865.9 Mflops on the SX-4/1, 178.1 on the Y-MP, 60.8 on
the J90, 16.5 on the RS6000/590, 12.8 on the SPARC20 (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.operations import ScalarOp, Trace, VectorOp
from repro.machine.processor import Processor

__all__ = [
    "RadiationColumns",
    "make_columns",
    "radabs_kernel",
    "INTRINSIC_MIX",
    "RAW_FLOPS_PER_ELEMENT",
    "GATHERED_LOADS_PER_ELEMENT",
    "SCALAR_BOOKKEEPING_INSTRUCTIONS",
    "build_trace",
    "build_scalar_trace",
    "model_mflops",
]

# Reference constants of the band model (loosely CCM2-flavoured).
_P0 = 1.0e5  # reference pressure [Pa]
_T0 = 250.0  # reference temperature [K]
_KW = 18.0  # water-vapour broadband absorption coefficient
_C1, _C2 = 0.065, 240.0  # CO2 logarithmic band parameters
_GRAVITY = 9.80616

#: Intrinsic calls per (level-pair, column) element, the mix the trace
#: builder hands to the machine model.  Calibrated against Table 1.
INTRINSIC_MIX = {"exp": 0.8, "log": 0.3, "pwr": 0.15, "sqrt": 0.2, "sin": 0.05}
#: Genuine adds/multiplies per element (the "numerous complex, multi-line
#: equations" around the intrinsics).
RAW_FLOPS_PER_ELEMENT = 40.0
#: Gathered words per element: band-model absorption-coefficient table
#: lookups indexed by pressure/temperature bin — indirect addressing,
#: like every broadband radiation code.
GATHERED_LOADS_PER_ELEMENT = 2.0


@dataclass
class RadiationColumns:
    """Input state: ``ncol`` independent columns of ``nlev`` layers.

    All arrays are (nlev, ncol); pressures increase downward.  For the
    benchmark the initial data is identical in every column (Section 4.4),
    which :func:`make_columns` reproduces by default.
    """

    pressure: np.ndarray  # layer pressure [Pa]
    dp: np.ndarray  # layer thickness [Pa]
    temperature: np.ndarray  # layer temperature [K]
    qv: np.ndarray  # water vapour mass mixing ratio [kg/kg]
    co2: float = 3.55e-4  # CO2 volume mixing ratio
    zenith: float = 0.5  # solar zenith angle [radians]

    def __post_init__(self) -> None:
        shapes = {a.shape for a in (self.pressure, self.dp, self.temperature, self.qv)}
        if len(shapes) != 1:
            raise ValueError(f"column arrays must share one shape, got {shapes}")
        if self.pressure.ndim != 2:
            raise ValueError("column arrays are (nlev, ncol)")
        if np.any(self.dp <= 0):
            raise ValueError("layer thicknesses must be positive")
        if np.any(self.temperature <= 0):
            raise ValueError("temperatures must be positive")

    @property
    def nlev(self) -> int:
        return self.pressure.shape[0]

    @property
    def ncol(self) -> int:
        return self.pressure.shape[1]


def make_columns(ncol: int, nlev: int = 18, identical: bool = True,
                 rng: np.random.Generator | None = None) -> RadiationColumns:
    """Benchmark input: a plausible tropical-ish sounding in every column.

    With ``identical=False`` small random perturbations distinguish the
    columns (used by tests to confirm column independence).
    """
    if ncol < 1 or nlev < 2:
        raise ValueError(f"need ncol >= 1 and nlev >= 2, got {ncol}, {nlev}")
    sigma = (np.arange(nlev, dtype=np.float64) + 0.5) / nlev  # 0 (top) -> 1
    pressure = (_P0 * sigma)[:, None].repeat(ncol, axis=1)
    dp = np.full((nlev, ncol), _P0 / nlev)
    temperature = (200.0 + 95.0 * sigma**1.2)[:, None].repeat(ncol, axis=1)
    qv = (1.0e-6 + 1.5e-2 * sigma**3)[:, None].repeat(ncol, axis=1)
    if not identical:
        rng = rng or np.random.default_rng(0)
        temperature = temperature * (1.0 + 0.01 * rng.standard_normal((nlev, ncol)))
        qv = qv * (1.0 + 0.1 * rng.standard_normal((nlev, ncol))).clip(0.5, 1.5)
    return RadiationColumns(pressure=pressure, dp=dp, temperature=temperature, qv=qv)


def radabs_kernel(cols: RadiationColumns) -> tuple[np.ndarray, np.ndarray]:
    """Compute the (nlev, nlev, ncol) absorptivity matrix and the
    (nlev, ncol) surface-to-level emissivity.

    ``absorptivity[k1, k2, :]`` is the broadband absorptivity of the gas
    path between layers k1 and k2 — symmetric, zero on the diagonal,
    in [0, 1), and monotone in the absorber amount (properties the test
    suite checks).  The loop nest is the benchmark's: a doubly-nested
    level-pair loop around arithmetic vectorised over the columns.
    """
    nlev, ncol = cols.nlev, cols.ncol
    # Absorber amounts per layer [kg/m^2], pressure-scaled (band-model
    # effective path) and temperature-corrected.
    u_layer = cols.qv * cols.dp / _GRAVITY
    scale = (cols.pressure / _P0) ** 0.6  # PWR intrinsic
    tfac = np.sqrt(_T0 / cols.temperature)  # SQRT intrinsic
    u_eff = u_layer * scale * tfac
    uc_layer = cols.co2 * cols.dp / _GRAVITY
    # Cumulative paths from the top (index 0) downward; cum[k] = path
    # through layers 0..k-1 so path(k1, k2) = cum[hi] - cum[lo].
    cum_w = np.concatenate([np.zeros((1, ncol)), np.cumsum(u_eff, axis=0)])
    cum_c = np.concatenate([np.zeros((1, ncol)), np.cumsum(uc_layer, axis=0)])
    planck = (cols.temperature / _T0) ** 4  # PWR intrinsic (Planck weight)
    mu = max(np.sin(cols.zenith), 0.05)  # SIN intrinsic (slant path)

    absorptivity = np.zeros((nlev, nlev, ncol))
    for k1 in range(nlev):
        for k2 in range(k1 + 1, nlev):
            path_w = (cum_w[k2 + 1] - cum_w[k1]) / mu
            path_c = (cum_c[k2 + 1] - cum_c[k1]) / mu
            a_h2o = 1.0 - np.exp(-_KW * path_w)  # EXP intrinsic
            a_co2 = _C1 * np.log1p(_C2 * path_c)  # LOG intrinsic
            weight = 0.5 * (planck[k1] + planck[k2])
            a = (a_h2o + a_co2 - a_h2o * a_co2) * weight / (1.0 + weight)
            absorptivity[k1, k2] = a
            absorptivity[k2, k1] = a
    # Emissivity of the path from each layer to the surface.
    path_w = (cum_w[nlev] - cum_w[np.arange(nlev)]) / mu
    emissivity = (1.0 - np.exp(-_KW * path_w)) * planck / (1.0 + planck)
    return absorptivity, emissivity


def build_trace(ncol: int, nlev: int = 18) -> Trace:
    """Machine-model description of one RADABS sweep over all columns.

    One vector op per level pair (the k1/k2 nest), vectorised over the
    collapsed horizontal axis, with the calibrated intrinsic mix.
    """
    if ncol < 1 or nlev < 2:
        raise ValueError(f"need ncol >= 1 and nlev >= 2, got {ncol}, {nlev}")
    pairs = nlev * (nlev - 1) // 2 + nlev  # pair loop plus emissivity pass
    return Trace(
        [
            VectorOp.make(
                "radabs level-pair",
                ncol,
                count=float(pairs),
                flops_per_element=RAW_FLOPS_PER_ELEMENT,
                loads_per_element=6.0,
                stores_per_element=2.0,
                gather_loads_per_element=GATHERED_LOADS_PER_ELEMENT,
                intrinsics=INTRINSIC_MIX,
            )
        ],
        name=f"RADABS ncol={ncol} nlev={nlev}",
    )


#: Scalar loop-control/addressing instructions per level pair per column in
#: the pre-rewrite coding style (index arithmetic, branch tests, scalar
#: temporaries the compiler could not hoist into vector registers).
SCALAR_BOOKKEEPING_INSTRUCTIONS = 60.0


def build_scalar_trace(ncol: int, nlev: int = 18) -> Trace:
    """The pre-Section-4.4 coding style of the same RADABS sweep.

    Section 4.4's worked example: before the rewrite, RADABS iterated the
    columns in an outer loop with the level-pair recurrences inside, so the
    compiler could vectorise only over the short vertical extent (``nlev``
    elements, far below the SX-4's half-performance length) while the
    per-pair bookkeeping ran on the scalar unit.  The rewrite collapsed
    the horizontal into long vectors — :func:`build_trace` — and is the
    paper's exemplar of its "vector ≫ scalar" coding-style rule.

    Total elements processed (and therefore flop-equivalents) match
    :func:`build_trace` exactly; only the *shape* of the work differs.
    The static analyzer flags this trace with VEC001 (short vectors) and
    VEC004 (scalar-dominated) and the vectorised one with neither.
    """
    if ncol < 1 or nlev < 2:
        raise ValueError(f"need ncol >= 1 and nlev >= 2, got {ncol}, {nlev}")
    pairs = nlev * (nlev - 1) // 2 + nlev
    # Same element count as the vectorised trace, in nlev-long slivers.
    executions = pairs * ncol / nlev
    return Trace(
        [
            VectorOp.make(
                "radabs level sliver",
                nlev,
                count=executions,
                flops_per_element=RAW_FLOPS_PER_ELEMENT,
                loads_per_element=6.0,
                stores_per_element=2.0,
                gather_loads_per_element=GATHERED_LOADS_PER_ELEMENT,
                intrinsics=INTRINSIC_MIX,
            ),
            ScalarOp(
                "radabs pair bookkeeping",
                instructions=SCALAR_BOOKKEEPING_INSTRUCTIONS,
                memory_words=4.0,
                count=float(pairs * ncol),
            ),
        ],
        name=f"RADABS (scalar style) ncol={ncol} nlev={nlev}",
    )


def model_mflops(processor: Processor, ncol: int = 8192, nlev: int = 18) -> float:
    """Cray-Y-MP-equivalent Mflops of RADABS on a machine model.

    The default 8192 columns is the T42 horizontal grid (64 × 128)
    collapsed, the production resolution the benchmark represents.
    """
    report = processor.execute(build_trace(ncol, nlev))
    return report.mflops
