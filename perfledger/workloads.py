"""The three workloads and the ledger their operations are timed into.

Every workload is a closed loop with one caller: it runs *cycles*, each
one pass over inputs generated from the seed, and times its operations
in three classes:

``nocache``
    the work done with no cache layer in the way;
``cold``
    the work done through the cache layer, which starts empty;
``warm``
    the same work served from what ``cold`` stored.

Each sample is the operation's wall time times the share of its cycle
the hypervisor did not steal (see :mod:`perfledger.clock`).
Correctness is checked on every operation; a mismatch is counted as a
failed operation and makes the run incorrect.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

from perfledger import inputs
from perfledger.tracer import END, INFO, Tracer

CLASSES = ("nocache", "cold", "warm")


class Ledger:
    """Timed samples, attempted/failed counts and failure messages."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {name: [] for name in CLASSES}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._cycle: list[tuple[str, float]] = []
        self.unstolen: list[float] = []

    def record(self, kind: str, seconds: float) -> None:
        """Time one operation of the cycle under way (filed by :meth:`close_cycle`)."""
        self._cycle.append((kind, seconds))

    def close_cycle(self, unstolen: float) -> None:
        """File the cycle's samples, scaled by the share of it not stolen."""
        for kind, seconds in self._cycle:
            self.samples[kind].append(seconds * unstolen)
        self._cycle.clear()
        self.unstolen.append(unstolen)

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; a failed check is a failed op."""
        self.attempted += 1
        if not ok:
            self.fail(message)
        return ok

    def fail(self, message: str) -> None:
        """Mark an operation already counted as attempted as failed."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    @contextmanager
    def op(self, kind: str, tracer: Tracer | None, job: str):
        """Time one operation; with a tracer, also as an ``op.<kind>`` span."""
        with tracer.span(f"op.{kind}", job) if tracer else nullcontext():
            start = time.monotonic()
            yield
            self.record(kind, time.monotonic() - start)


def _digest(*parts: bytes) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(hashlib.sha256(part).digest())
    return hasher.hexdigest()


# -- paper-regen ---------------------------------------------------------------
_SUMMARY = re.compile(rb"ALL SHAPE CHECKS PASS: (\d+)/(\d+) checks over (\d+) experiments")
_ENGINE = re.compile(r"engine: (\d+) experiments \S (\d+) cache hits, (\d+) executed")


class PaperRegen:
    """Fresh interpreters running the researcher's three commands."""

    name = "paper-regen"
    rss_of_children = True

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root, self.work, self.seed = root, work, seed
        self.child = str(root / "perfledger" / "child.py")
        self.cycles = 0
        self.reference: dict[str, str] | None = None
        self.pending: list[tuple[str, dict]] = []

    def prepare(self, tracer: Tracer | None) -> None:
        """Nothing is built in-process: every command is a fresh interpreter."""

    def setup_probe(self, out: Path) -> list[str]:
        return [self.child, "setup", "--out", str(out), "--workload", self.name]

    def _command(self, kind: str, cycle_dir: Path, ledger: Ledger, tracer: Tracer | None,
                 job: str) -> None:
        out = cycle_dir / f"{kind}.json"
        argv = [sys.executable, self.child, "suite", "--out", str(out)]
        if tracer:
            argv.append("--trace")
        argv += ["--", *inputs.REGEN_COMMANDS[kind]]
        klass = "nocache" if kind == "plain" else kind
        span = tracer.open(f"op.{klass}", job) if tracer else None
        start = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=cycle_dir, capture_output=True, timeout=170)
        finally:
            if tracer:
                tracer.close(span)
        try:
            result = json.loads(out.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            result = None
        if result is None or proc.returncode != 0:
            tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            ledger.check(False, f"{job}: exit {proc.returncode}: {' '.join(tail)}")
            return
        ledger.record(klass, result["end"] - start)
        if tracer:
            tracer.spans[span][END] = result["end"]
            tracer.spans[span][INFO] = {"process": True}
            tracer.adopt(result["spans"], span)
        summary = _SUMMARY.search(proc.stdout)
        ok = summary is not None and summary.group(1) == summary.group(2) == b"76"
        if kind != "plain":
            engine = _ENGINE.search(proc.stderr.decode(errors="replace"))
            want_hits = "0" if kind == "cold" else "18"
            ok = ok and engine is not None and engine.group(2) == want_hits
        if ledger.check(ok, f"{job}: shape checks or cache state wrong"):
            self.pending.append((job, result["hashes"]))
        if kind == "plain" and self.reference is None:
            self.reference = result["hashes"]

    def cycle(self, ledger: Ledger, tracer: Tracer | None) -> None:
        n, self.cycles = self.cycles, self.cycles + 1
        cycle_dir = self.work / f"cycle-{n}"
        cycle_dir.mkdir(parents=True)
        for kind in inputs.regen_order(self.seed, n):
            self._command(kind, cycle_dir, ledger, tracer, f"{kind}-{n}")
        shutil.rmtree(cycle_dir, ignore_errors=True)
        # Every cycle runs a plain command, so the reference exists now:
        # engine results must match it byte for byte (canonical_bytes).
        for job, hashes in self.pending:
            if hashes != self.reference:
                ledger.fail(f"{job}: results differ from the plain run")
        self.pending.clear()

    def finish(self, ledger: Ledger) -> str:
        reference = self.reference or {}
        return _digest(*(f"{k}={v}".encode() for k, v in sorted(reference.items())))


# -- service-mix ---------------------------------------------------------------
class ServiceMix:
    """One in-process ServiceApp per episode, driven by a seeded job mix.

    Each episode draws its jobs from the run's seed and its own number,
    so one run averages over many job mixes of the same make-up.
    """

    name = "service-mix"
    rss_of_children = False

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root, self.work, self.seed = root, work, seed
        self.cycles = 0
        self.reference: list[str] | None = None

    def setup_probe(self, out: Path) -> list[str]:
        return [str(self.root / "perfledger" / "child.py"), "setup", "--out", str(out),
                "--workload", self.name, "--root", str(self.work / "probe")]

    def prepare(self, tracer: Tracer | None) -> None:
        # Modules, not functions, are kept: the traced run wraps module
        # attributes, and a call must look them up to reach the wrapper.
        with tracer.span("import") if tracer else nullcontext():
            import repro.explore.engine
            import repro.service.app
            import repro.service.requests
            import repro.service.resolve
            import repro.suite.archive
            import repro.suite.runner
        self.explore = repro.explore.engine
        self.service = repro.service.app
        self.resolve = repro.service.resolve
        self.runner = repro.suite.runner
        self.archive = repro.suite.archive
        self.requests = repro.service.requests

    def _job(self, app, body: bytes, want: int) -> tuple[bool, bytes]:
        submitted = app.handle("POST", "/v1/jobs", body)
        if submitted.status != want:
            return False, submitted.body
        links = json.loads(submitted.body)["links"]
        if want == 202:
            app.run_pending()
        status = app.handle("GET", links["status"])
        result = app.handle("GET", links["result"])
        done = status.status == 200 and json.loads(status.body)["state"] == "done"
        return done and result.status == 200, result.body

    def _nocache(self, op: dict, result: bytes) -> bool:
        """Compute the job's work directly; True if the job returned it."""
        request = op["body"]
        payload = json.loads(result)
        if request["kind"] == "suite":
            report = self.runner.run_suite(request["suite"]["ids"])
            direct = [self.archive.experiment_to_dict(exp) for exp in report.experiments]
            return report.passed and json.dumps(direct, sort_keys=True) == json.dumps(
                payload["experiments"], sort_keys=True)
        outcome = self.explore.cost_suite_grid(self.resolve.resolve_sweep(request["sweep"]).build())
        machines = payload["machines"]
        return len(machines) == outcome.n_machines and all(
            m["suite_seconds"] == float(outcome.suite_seconds[i])
            and m["suite_mflops"] == float(outcome.suite_mflops[i])
            for i, m in enumerate(machines)
        )

    def cycle(self, ledger: Ledger, tracer: Tracer | None) -> None:
        n, self.cycles = self.cycles, self.cycles + 1
        ops = inputs.service_episode(self.seed, n)
        news = [op for op in ops if op["op"] != "hit"]
        job_ids = [self.requests.request_job_id(self.requests.validate_request(op["body"]))
                   for op in news]
        root = self.work / f"episode-{n}"
        app = self.service.ServiceApp(root)
        results: list[bytes] = []
        hashes: list[str] = []
        for i, op in enumerate(ops):
            if op["op"] == "hit":
                job = job_ids[op["of"]]
                body = json.dumps(news[op["of"]]["body"]).encode()
                with ledger.op("warm", tracer, job):
                    ok, result = self._job(app, body, 200)
                ledger.check(ok and result == results[op["of"]],
                             f"episode {n} op {i}: hit not served or differs "
                             f"from its miss")
                hashes.append(hashlib.sha256(result).hexdigest())
                continue
            job = job_ids[len(results)]
            body = json.dumps(op["body"]).encode()
            with ledger.op("cold", tracer, job):
                ok, result = self._job(app, body, 202)
            results.append(result)
            hashes.append(hashlib.sha256(result).hexdigest())
            if not ledger.check(ok, f"episode {n} op {i}: new job failed"):
                continue
            with ledger.op("nocache", tracer, job):
                same = self._nocache(op, result)
            ledger.check(same, f"episode {n} op {i}: job result differs "
                               f"from the direct computation")
        shutil.rmtree(root, ignore_errors=True)
        if self.reference is None:
            self.reference = hashes

    def finish(self, ledger: Ledger) -> str:
        """The first episode's result hashes (every run has episode 0)."""
        return _digest(*(h.encode() for h in self.reference or ()))


# -- design-sweep --------------------------------------------------------------
class DesignSweep:
    """A ~1000-machine sweep around sx4: no store, cold store, warm store."""

    name = "design-sweep"
    rss_of_children = False

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.root, self.work, self.seed = root, work, seed
        self.axes = inputs.design_sweep_axes(seed)
        self.cycles = 0
        self.reference: str | None = None
        self.first = None

    def setup_probe(self, out: Path) -> list[str]:
        return [str(self.root / "perfledger" / "child.py"), "setup", "--out", str(out),
                "--workload", self.name, "--root", str(self.work / "probe"),
                "--axes", json.dumps(self.axes)]

    def prepare(self, tracer: Tracer | None) -> None:
        with tracer.span("import") if tracer else nullcontext():
            import repro.engine.store
            import repro.explore.engine
            import repro.explore.pareto
            from repro.explore.sweep import Axis, ParameterSweep
        self.store = repro.engine.store
        self.explore = repro.explore.engine
        self.pareto = repro.explore.pareto
        self.sweep = ParameterSweep(
            "sx4",
            tuple(Axis(a["parameter"], tuple(a["values"])) for a in self.axes),
            include_presets=True,
        )

    @staticmethod
    def _bits(result) -> bytes:
        arrays = [result.suite_seconds, result.suite_mflops,
                  result.suite_bandwidth_bytes_per_s]
        arrays += [result.traces[t].cycles for t in result.trace_ids]
        return b"".join(a.tobytes() for a in arrays)

    def cycle(self, ledger: Ledger, tracer: Tracer | None) -> None:
        n, self.cycles = self.cycles, self.cycles + 1
        job = f"sweep-{n}"
        grid = self.sweep.build()
        store = self.store.ChunkStore(self.work / f"chunks-{n}")
        with ledger.op("nocache", tracer, job):
            plain = self.explore.cost_suite_grid(grid)
        with ledger.op("cold", tracer, job):
            cold = self.explore.cost_suite_grid(grid, store=store)
        with ledger.op("warm", tracer, job):
            warm = self.explore.cost_suite_grid(grid, store=store)
        front = self.pareto.pareto_points(warm, grid)
        shutil.rmtree(store.root, ignore_errors=True)
        chunks = -(-grid.n_machines // inputs.CHUNK_MACHINES)
        bits = self._bits(cold)
        ledger.check(cold.chunk_misses == chunks and warm.chunk_hits == chunks,
                     f"{job}: expected {chunks} cold misses and warm hits")
        ledger.check(self._bits(warm) == bits and self._bits(plain) == bits,
                     f"{job}: warm or store-less sweep differs from cold bit for bit")
        fingerprint = _digest(bits, json.dumps([p.index for p in front]).encode())
        if self.reference is None:
            self.reference, self.first = fingerprint, cold
        ledger.check(fingerprint == self.reference, f"{job}: differs from the first cycle")

    def finish(self, ledger: Ledger) -> str:
        """Check the embedded preset rows against ``Processor.execute``."""
        from repro.analysis.traces import build_registered_trace
        from repro.machine.presets import canonical_machines

        if self.first is None:
            return ""
        result = self.first
        for row, processor in enumerate(canonical_machines().values()):
            for trace_id in result.trace_ids:
                report = processor.execute(build_registered_trace(trace_id))
                ledger.check(
                    report.cycles == result.traces[trace_id].cycles[row],
                    f"preset {processor.name} trace {trace_id}: grid row differs "
                    f"from Processor.execute",
                )
        return self.reference or ""


WORKLOADS = {w.name: w for w in (PaperRegen, ServiceMix, DesignSweep)}
