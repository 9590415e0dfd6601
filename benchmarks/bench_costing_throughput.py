"""Costing throughput on a fresh machine: per-op path vs one-machine grid.

The workload is the one the suite actually runs: cost every registered
trace — the 13 NCAR kernels plus the three applications — on the
calibrated SX-4.  One ``python -m repro.suite`` makes ~1000 small
``Processor.execute`` calls, most of them the first sight of their
machine, trace and dilation, so this benchmark times costing on a
*fresh* machine each round and never a memo hit:

* ``per_op`` — :meth:`Processor.execute` over the 16 traces on a newly
  built SX-4, the path every single-machine costing takes;
* ``grid`` — :func:`cost_suite_trace_grid` of the stacked suite on a
  newly built one-machine :class:`MachineGrid`, the path sweeps take
  (there the machine axis is hundreds wide, not one).

The traces are built, and for the grid lowered and stacked, before the
timed rounds: that machine-independent work is reported separately as
the ``*_cold_s`` fields, measured once on freshly built traces.

Before timing, the exact parity gate: per-op vs grid on every registered
trace × the six canonical presets × dilations {1.0, 1.37}, every field
compared with ``==``.  The result goes to ``BENCH_engine.json``.

Standalone (writes the JSON report; exit 1 on parity drift or, with
``--baseline``, on a fresh-costing regression of either path)::

    python benchmarks/bench_costing_throughput.py \\
        --baseline BENCH_engine.json --max-slowdown 0.25

Under pytest the parity gate runs as an ordinary test::

    PYTHONPATH=src python -m pytest benchmarks/bench_costing_throughput.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.analysis.traces import TRACE_BUILDERS, build_registered_trace
from repro.machine.compiled import SuiteColumns
from repro.machine.grid import MachineGrid, cost_suite_trace_grid
from repro.machine.operations import Trace
from repro.machine.presets import canonical_machines, sx4_processor
from repro.machine.processor import Processor

__all__ = [
    "build_suite",
    "parity_machines",
    "check_parity",
    "measure_per_op",
    "measure_grid",
    "run_benchmark",
    "main",
]

#: Exactly-compared quantities, named as on ExecutionReport and GridTraceCost.
PARITY_FIELDS = ("cycles", "seconds", "mflops", "bandwidth_bytes_per_s")

#: Fresh-machine timings ``--baseline`` gates, with their report labels.
GATED_FIELDS = (("per_op_fresh_s_per_suite", "per-op"), ("grid_fresh_s_per_suite", "grid"))


def build_suite() -> list[tuple[str, Trace]]:
    """Every registered trace, in registry (paper) order."""
    return [(trace_id, build_registered_trace(trace_id)) for trace_id in TRACE_BUILDERS]


def parity_machines() -> list[Processor]:
    """The machines parity is asserted on: Table 1 plus both SX-4 clocks."""
    return list(canonical_machines().values())


def check_parity(
    suite: list[tuple[str, Trace]],
    machines: list[Processor],
    dilations: tuple[float, ...] = (1.0, 1.37),
) -> list[str]:
    """Exact per-op vs grid comparison; returns mismatch descriptions.

    Every machine's ``Processor.execute`` report against its column of
    the stacked suite costed on a grid of all the machines — every field
    compared with ``==``, never a tolerance.
    """
    mismatches: list[str] = []
    stacked = SuiteColumns.from_traces(suite)
    grid = MachineGrid.from_processors(machines)
    for dilation in dilations:
        costs = cost_suite_trace_grid(stacked, grid, dilation)
        for (trace_id, trace), cost in zip(suite, costs):
            for j, processor in enumerate(machines):
                report = processor.execute(trace, dilation)
                for field in PARITY_FIELDS:
                    per_op, from_grid = getattr(report, field), getattr(cost, field)[j]
                    if per_op != from_grid:
                        mismatches.append(
                            f"{processor.name} / {trace_id} / dilation {dilation}: "
                            f"{field} per-op={per_op!r} grid={from_grid!r}"
                        )
    return mismatches


def _best_of(rounds: int, once) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        once()
        best = min(best, time.perf_counter() - start)
    return best


def measure_per_op(suite: list[tuple[str, Trace]], rounds: int = 20) -> float:
    """Best-of-``rounds`` seconds to cost the suite on a newly built SX-4."""

    def once() -> None:
        processor = sx4_processor()
        for _, trace in suite:
            processor.execute(trace)

    return _best_of(rounds, once)


def measure_grid(stacked: SuiteColumns, rounds: int = 20) -> float:
    """Best-of-``rounds`` seconds to cost the stack on a newly built
    one-machine grid."""

    def once() -> None:
        cost_suite_trace_grid(stacked, MachineGrid.from_processors([sx4_processor()]))

    return _best_of(rounds, once)


def run_benchmark(rounds: int = 20) -> dict:
    """Parity gate + timing; returns the BENCH_engine.json payload."""
    suite = build_suite()
    mismatches = check_parity(suite, parity_machines())

    # Cold passes on freshly built traces: the machine-independent
    # accounting (and, for the grid, lowering and stacking) is paid here.
    cold_suite = build_suite()
    start = time.perf_counter()
    processor = sx4_processor()
    for _, trace in cold_suite:
        processor.execute(trace)
    per_op_cold_s = time.perf_counter() - start
    cold_suite = build_suite()
    start = time.perf_counter()
    cost_suite_trace_grid(
        SuiteColumns.from_traces(cold_suite), MachineGrid.from_processors([sx4_processor()])
    )
    grid_cold_s = time.perf_counter() - start

    per_op_s = measure_per_op(suite, rounds)
    grid_s = measure_grid(SuiteColumns.from_traces(suite), rounds)
    return {
        "schema_version": 3,
        "benchmark": "costing_throughput",
        "machine": processor.name,
        "workload": (
            "cost all registered traces once on a newly built machine per round "
            "(no memo hits); traces built and lowered before timing"
        ),
        "traces": len(suite),
        "ops": sum(len(trace) for _, trace in suite),
        "rounds": rounds,
        "per_op_fresh_s_per_suite": per_op_s,
        "grid_fresh_s_per_suite": grid_s,
        "per_op_cold_s": per_op_cold_s,
        "grid_cold_s": grid_cold_s,
        "parity": {
            "fields": list(PARITY_FIELDS),
            "paths": ["per_op", "grid"],
            "machines_checked": len(parity_machines()),
            "traces_checked": len(suite),
            "exact": not mismatches,
            "mismatches": mismatches,
        },
    }


def test_per_op_and_grid_agree_exactly():
    """Pytest face of the parity gate: zero drift on every machine/trace."""
    assert check_parity(build_suite(), parity_machines()) == []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark fresh-machine suite costing (per-op and grid); "
                    "write BENCH_engine.json."
    )
    parser.add_argument("--rounds", type=int, default=20,
                        help="timed rounds per path (best is kept)")
    parser.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                             / "BENCH_engine.json"),
                        help="report path (default: repo-root BENCH_engine.json)")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="committed BENCH_engine.json to regress against")
    parser.add_argument("--max-slowdown", type=float, default=0.25, metavar="F",
                        help="fail when per_op_fresh_s_per_suite or "
                             "grid_fresh_s_per_suite exceeds the baseline by more "
                             "than this fraction (default: 0.25)")
    args = parser.parse_args(argv if argv is not None else sys.argv[1:])

    payload = run_benchmark(rounds=args.rounds)
    Path(args.out).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    parity = payload["parity"]
    print(f"traces: {payload['traces']} ({payload['ops']} ops) on {payload['machine']}")
    print(f"per-op: {payload['per_op_fresh_s_per_suite'] * 1e3:8.3f} ms / suite, fresh "
          f"machine (cold first pass {payload['per_op_cold_s'] * 1e3:.3f} ms)")
    print(f"grid:   {payload['grid_fresh_s_per_suite'] * 1e3:8.3f} ms / suite, fresh "
          f"machine (cold lower + stack + cost {payload['grid_cold_s'] * 1e3:.3f} ms)")
    print(f"parity: {'exact' if parity['exact'] else 'DRIFT'} over "
          f"{parity['machines_checked']} machines x {parity['traces_checked']} traces")
    print(f"report: {args.out}")

    if not parity["exact"]:
        for line in parity["mismatches"][:20]:
            print(f"  parity drift: {line}", file=sys.stderr)
        return 1
    if args.baseline is not None:
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        failed = False
        for key, label in GATED_FIELDS:
            reference = float(baseline[key])
            slowdown = payload[key] / reference - 1.0
            print(f"baseline: {label} {reference * 1e3:8.3f} ms / suite ({args.baseline}); "
                  f"slowdown {slowdown:+.1%} (gate {args.max_slowdown:+.0%})")
            if slowdown > args.max_slowdown:
                print(f"error: fresh {label} costing regressed {slowdown:+.1%} vs "
                      f"baseline (allowed {args.max_slowdown:+.0%}): "
                      f"{payload[key] * 1e3:.3f} ms vs {reference * 1e3:.3f} ms",
                      file=sys.stderr)
                failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
