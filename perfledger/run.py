"""Run one ledger workload and print its metrics.

    python3 perfledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the script finds ``src/`` next to its
own directory).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones (untraced); with ``--trace 1`` the
per-layer ones, from a run whose first third is untraced (the base of
``trace_overhead_ratio``) and whose rest is traced.  The lines before it
state every metric with its unit and sample count, the simulated-output
fingerprint, and any failures.  Spans and the full record are written
under ``perfledger/.out/``.  Every timing is wall time less the time
the hypervisor stole (``perfledger/clock.py``).  Exit status: 0 when
every correctness check passed, 1 when one failed, 2 when the checkout
has no program to run.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fresh-interpreter set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: End-to-end metric -> unit.  Every workload reports all of them.
E2E_UNITS = {
    "nocache_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _setup_seconds(workload, work: Path) -> list[float]:
    """Fresh-interpreter set-up times, with the time stolen from them out."""
    from perfledger.clock import stolen_seconds, unstolen_share

    samples = []
    for i in range(SETUP_PROBES):
        out = work / f"setup-{i}.json"
        stolen = stolen_seconds()
        start = time.monotonic()
        subprocess.run([sys.executable, *workload.setup_probe(out)], check=True,
                       timeout=120, stdout=subprocess.DEVNULL)
        wall = time.monotonic() - start
        share = unstolen_share(wall, stolen_seconds() - stolen)
        samples.append((json.loads(out.read_text(encoding="utf-8"))["end"] - start) * share)
    shutil.rmtree(work / "probe", ignore_errors=True)
    return samples


def _run_cycles(workload, ledger, tracer, seconds: float) -> list[float]:
    """Run whole cycles until ``seconds`` have passed (at least one).

    Returns each cycle's wall time less the time stolen from it.  A cycle
    that raises counts as one failed operation; the loop goes on.
    """
    from perfledger.clock import stolen_seconds, unstolen_share

    walls: list[float] = []
    deadline = time.monotonic() + seconds
    while not walls or time.monotonic() < deadline:
        stolen = stolen_seconds()
        start = time.monotonic()
        try:
            workload.cycle(ledger, tracer)
        except Exception as exc:  # a program fault is a failed operation
            ledger.check(False, f"cycle raised {type(exc).__name__}: {exc}")
        wall = time.monotonic() - start
        share = unstolen_share(wall, stolen_seconds() - stolen)
        ledger.close_cycle(share)
        walls.append(wall * share)
    return walls


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload; returns the full record (metrics, samples, failures)."""
    from perfledger.tracer import Instrumentation, Tracer, layer_metrics
    from perfledger.workloads import WORKLOADS, Ledger

    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](ROOT, work, seed)
    setup = _setup_seconds(workload, work)
    tracer = Tracer() if trace else None
    workload.prepare(tracer)
    ledger = Ledger()
    record: dict = {"workload": name, "seed": seed, "seconds": seconds,
                    "setup_samples": setup}
    if not trace:
        walls = _run_cycles(workload, ledger, None, seconds)
    else:
        base = _run_cycles(workload, Ledger(), None, seconds / 3)
        instrumentation = Instrumentation(tracer)
        try:
            walls = _run_cycles(workload, ledger, tracer, seconds * 2 / 3)
        finally:
            instrumentation.remove()
        # The first untraced cycle also warms the process; leave it out.
        base = base[1:] or base
        overhead = statistics.median(walls) / statistics.median(base)
        record["layers"] = layer_metrics(tracer.spans, len(walls), overhead)
    record["fingerprint"] = workload.finish(ledger)
    who = resource.RUSAGE_CHILDREN if workload.rss_of_children else resource.RUSAGE_SELF
    samples = ledger.samples
    ops = sum(len(v) for v in samples.values())
    record["samples"] = {k: len(v) for k, v in samples.items()}
    record["sample_s"] = samples
    record["end_to_end"] = {
        # Means, not medians: the host switches between a fast and a
        # slow state for seconds at a time, so samples are bimodal and a
        # median jumps between the modes with the share of time spent in
        # each, where a mean moves in proportion to it.
        "nocache_s": _mean(samples["nocache"]),
        "cold_s": _mean(samples["cold"]),
        "warm_s": _mean(samples["warm"]),
        "ops_per_s": ops / sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "success_ratio": (ledger.attempted - ledger.failed) / max(ledger.attempted, 1),
    }
    # Recorded, not reported as metrics: on a shared host their run-to-run
    # spread exceeds any bound the benchmark may set.
    record["p50_s"] = {kind: _median(values) for kind, values in samples.items()}
    record["p90_s"] = {kind: _p90(values) for kind, values in samples.items()}
    record.update(attempted=ledger.attempted, failed=ledger.failed,
                  failures=ledger.failures, cycles=len(walls), cycle_walls=walls,
                  unstolen_share=ledger.unstolen)
    if tracer:
        record["spans"] = tracer.spans
    return record


def _counts(record: dict) -> dict[str, int]:
    """Sample count behind each end-to-end metric."""
    samples = record["samples"]
    counts = {f"{k}_s": n for k, n in samples.items()}
    counts.update({"ops_per_s": sum(samples.values()),
                   "setup_s": len(record["setup_samples"]),
                   "peak_rss_mb": 1, "success_ratio": record["attempted"]})
    return counts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfledger/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-regen", "service-mix", "design-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src' / 'repro'}; run from a "
              f"full checkout", file=sys.stderr)
        return 2
    from perfledger.tracer import LAYER_UNITS

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / "perfledger" / ".work" / stem
    shutil.rmtree(work, ignore_errors=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        values, units = record["layers"], LAYER_UNITS
        basis = f"per traced cycle, {record['cycles']} cycles"
        counts = dict.fromkeys(values, record["cycles"])
    else:
        values, units = record["end_to_end"], E2E_UNITS
        basis = "untraced"
        counts = _counts(record)
    out = ROOT / "perfledger" / ".out"
    out.mkdir(exist_ok=True)
    spans = record.pop("spans", None)
    if spans is not None:
        (out / f"{stem}-spans.json").write_text(json.dumps(spans), encoding="utf-8")
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {record['cycles']} cycles, {basis}")
    for name, value in values.items():
        print(f"  {name:34s} {value:14.6g} {units[name]:12s} n={counts[name]}")
    if not args.trace:
        for stat in ("p50", "p90"):
            line = ", ".join(f"{k} {v:.6g} s" for k, v in record[f"{stat}_s"].items())
            print(f"  {stat} (recorded, not a metric): {line}")
    stolen = 1.0 - statistics.median(record["unstolen_share"])
    print(f"host steal taken out of every timing: median {stolen:.1%} of a cycle")
    print(f"simulated-output fingerprint sha256:{record['fingerprint']}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    correct = record["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    raise SystemExit(main(sys.argv[1:]))
