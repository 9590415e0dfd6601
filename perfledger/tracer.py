"""Host spans around the program's layer boundaries.

The traced run wraps public functions of each layer (the table in
:func:`_hooks`) with wrappers that live here, never in ``src/``.  A
span records ``[name, start, end, parent, job, info]``: ``parent`` is
the index of the enclosing span (``-1`` at the root), ``job`` the
correlation id shared by every span of one job (the service job id or
the experiment id, inherited from the parent unless a layer sets its
own), ``info`` the layer's counts (bytes, hit, fresh...).  Spans stay
in memory and are written out when the run ends.

Timestamps come from ``time.monotonic``, which on Linux is one clock
for every process, so spans written by the fresh interpreters of
``paper-regen`` line up with the driver's own.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import sys
import time
import weakref
from contextlib import contextmanager
from pathlib import Path

NAME, START, END, PARENT, JOB, INFO = range(6)


class Tracer:
    """In-memory span recorder (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, job: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if job is None and parent >= 0:
            job = self.spans[parent][JOB]
        self.spans.append([name, time.monotonic(), 0.0, parent, job, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.monotonic()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while {popped} was innermost")

    @contextmanager
    def span(self, name: str, job: str | None = None):
        index = self.open(name, job)
        try:
            yield index
        finally:
            self.close(index)

    def adopt(self, spans: list[list], parent: int) -> None:
        """Graft spans recorded by another process under ``parent``."""
        offset = len(self.spans)
        job = self.spans[parent][JOB]
        for span in spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + offset
            if span[JOB] is None:
                span[JOB] = job
            self.spans.append(span)


# -- layer hooks -------------------------------------------------------------
class _Classifier:
    """Fresh-versus-memo, decided outside the program.

    A costing call is *fresh* the first time this process sees its
    machine parameters, trace (name and op count) and dilation; every
    later call with the same key is *memo*, whatever the program's own
    caches did.
    """

    def __init__(self) -> None:
        self.seen: set = set()
        self._machine_keys: dict[int, str] = {}

    def machine_key(self, processor) -> str:
        key = self._machine_keys.get(id(processor))
        if key is None:
            key = self._machine_keys[id(processor)] = repr(processor)
            weakref.finalize(processor, self._machine_keys.pop, id(processor), None)
        return key

    def fresh(self, key) -> bool:
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


def _size(path) -> int:
    try:
        return Path(path).stat().st_size
    except (OSError, TypeError):
        return 0


def _hooks(classify: _Classifier) -> list[tuple]:
    """(module, attribute, span name, job-of-args, info-of-call, when)."""

    def execute_info(result, processor, trace, memory_dilation=1.0, **_):
        key = (classify.machine_key(processor), trace.name, len(trace.ops),
               float(memory_dilation))
        return {"fresh": classify.fresh(key)}

    def suitebatch_info(result, processor, suite, memory_dilation=1.0, **_):
        key = (classify.machine_key(processor), tuple(suite.trace_names),
               float(memory_dilation))
        return {"fresh": classify.fresh(key)}

    def grid_info(result, suite, grid, *_, **__):
        return {"machine_traces": grid.n_machines * suite.n_traces}

    def closure_info(result, seeds, *_, **__):
        return {"seeds": "|".join(sorted(seeds))}

    def store_get_info(result, store, digest, **_):
        return {"bytes": _size(store.entry_path(digest)) if result is not None else 0}

    def put_info(result, *_, **__):
        return {"bytes": _size(result)}

    def chunk_get_info(result, *_, **__):
        return {"hit": result is not None}

    def submit_info(result, *_, **__):
        return {"hit": result.status == 200}

    def explore_chunk(store, namespace, *_, **__):
        return namespace == "explore"

    def first_arg_job(value, *_, **__):
        return value if isinstance(value, str) else None

    return [
        ("repro.analysis.traces", "build_registered_trace", "traces.build", None, None, None),
        ("repro.analysis.traces", "build_suite_columns", "traces.columns", None, None, None),
        ("repro.machine.compiled", "compile_trace", "machine.compile", None, None, None),
        ("repro.machine.processor", "Processor.execute", "machine.execute", None,
         execute_info, None),
        ("repro.machine.suitebatch", "cost_suite_batch", "machine.suitebatch", None,
         suitebatch_info, None),
        ("repro.machine.grid", "cost_suite_trace_grid", "machine.grid", None,
         grid_info, None),
        ("repro.engine.deps", "experiment_digest", "engine.digest", first_arg_job,
         None, None),
        ("repro.engine.deps", "dependency_closure", "engine.closure", None,
         closure_info, None),
        ("repro.engine.plan", "plan_suite", "engine.plan", None, None, None),
        ("repro.engine.store", "ResultStore.get", "engine.store.get", None,
         store_get_info, None),
        ("repro.engine.store", "ResultStore.put", "engine.store.put", None, put_info, None),
        ("repro.engine.store", "ChunkStore.get", "engine.chunk.get", None,
         chunk_get_info, explore_chunk),
        ("repro.engine.store", "ChunkStore.put", "engine.chunk.put", None, put_info,
         explore_chunk),
        ("repro.engine.executor", "execute_jobs", "engine.execute_jobs", None, None, None),
        ("repro.engine.executor", "run_engine", "engine.run", None, None, None),
        ("repro.service.app", "ServiceApp.submit", "service.submit", None,
         submit_info, None),
        ("repro.service.app", "ServiceApp.run_one", "service.run_one", None, None, None),
        ("repro.service.app", "ServiceApp.job_result", "service.result", None, None, None),
        ("repro.service.spool", "JobSpool.get", "service.spool.get", None, None, None),
        ("repro.service.spool", "JobSpool.put", "service.spool.put", None, None, None),
        ("repro.explore.sweep", "ParameterSweep.build", "explore.build", None, None, None),
        ("repro.explore.engine", "cost_suite_grid", "explore.cost_suite_grid", None,
         None, None),
        ("repro.explore.pareto", "pareto_points", "explore.pareto", None, None, None),
    ]


def _wrap(tracer: Tracer, fn, name: str, job_of, info_of, when, job: str | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if when is not None and not when(*args, **kwargs):
            return fn(*args, **kwargs)
        index = tracer.open(name, job if job_of is None else job_of(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if info_of is not None:
            tracer.spans[index][INFO] = info_of(result, *args, **kwargs)
        return result

    return wrapper


def _experiment_info(experiment) -> dict:
    return {
        "checks": len(experiment.checks),
        "passed": sum(bool(check.passed) for check in experiment.checks),
    }


class Instrumentation:
    """Installs the layer wrappers; :meth:`remove` restores the originals.

    Modules already imported are patched at once, including every
    ``repro`` module that imported a wrapped function by name.  Modules
    imported later are patched as soon as they finish executing, before
    any importer can bind the original.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.classify = _Classifier()
        self._restore: list[tuple] = []
        self._pending: dict[str, list[tuple]] = {}
        for hook in _hooks(self.classify):
            self._pending.setdefault(hook[0], []).append(hook)
        self._pending.setdefault("repro.suite.experiments", [])
        self._finder = _PatchOnImport(self)
        for module_name in list(self._pending):
            module = sys.modules.get(module_name)
            if module is not None:
                self._patch(module)
        sys.meta_path.insert(0, self._finder)

    def _patch(self, module) -> None:
        hooks = self._pending.pop(module.__name__, None)
        if hooks is None:
            return
        for _, attribute, name, job_of, info_of, when in hooks:
            owner_name, _, method = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                wrapper = _wrap(self.tracer, original, name, job_of, info_of, when)
                self._set(owner, method, wrapper)
                continue
            original = getattr(module, attribute)
            wrapper = _wrap(self.tracer, original, name, job_of, info_of, when)
            for holder in [m for key, m in sys.modules.items() if key.startswith("repro")]:
                if getattr(holder, attribute, None) is original:
                    self._set(holder, attribute, wrapper)
        if module.__name__ == "repro.suite.experiments":
            registry = module.EXPERIMENTS
            for exp_id, builder in list(registry.items()):
                registry[exp_id] = _wrap(
                    self.tracer, builder, "suite.experiments", None,
                    lambda result, *_: _experiment_info(result), None, job=exp_id,
                )
                self._restore.append((registry, exp_id, builder, "item"))

    def _set(self, owner, attribute: str, value) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute), "attr"))
        setattr(owner, attribute, value)

    def remove(self) -> None:
        if self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        for owner, key, original, kind in reversed(self._restore):
            if kind == "item":
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patches a hooked module right after its body executes."""

    def __init__(self, instrumentation: Instrumentation) -> None:
        self.instrumentation = instrumentation

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.instrumentation._pending:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            self.instrumentation._patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


# -- per-layer metrics ---------------------------------------------------------
#: Per-layer metric -> unit.  Times and counts are per cycle (one pass
#: over the workload's inputs, see run.py) except ``import.s``, which is
#: per process start, and the ratios.
LAYER_UNITS = {
    "import.s": "s",
    "traces.build.s": "s/cycle",
    "traces.build.calls": "count/cycle",
    "traces.columns.s": "s/cycle",
    "machine.compile.s": "s/cycle",
    "machine.compile.calls": "count/cycle",
    "machine.execute.fresh_s": "s/cycle",
    "machine.execute.fresh_calls": "count/cycle",
    "machine.execute.memo_s": "s/cycle",
    "machine.execute.memo_calls": "count/cycle",
    "machine.suitebatch.fresh_s": "s/cycle",
    "machine.suitebatch.memo_s": "s/cycle",
    "machine.suitebatch.calls": "count/cycle",
    "machine.grid.s": "s/cycle",
    "machine.grid.machine_traces": "count/cycle",
    "suite.experiments.self_s": "s/cycle",
    "suite.experiments.calls": "count/cycle",
    "suite.checks.passed": "count/cycle",
    "suite.checks.total": "count/cycle",
    "engine.digest.s": "s/cycle",
    "engine.digest.calls": "count/cycle",
    "engine.closure.s": "s/cycle",
    "engine.closure.calls": "count/cycle",
    "engine.closure.distinct_ratio": "ratio",
    "engine.plan.self_s": "s/cycle",
    "engine.store.get.s": "s/cycle",
    "engine.store.get.calls": "count/cycle",
    "engine.store.get.bytes": "bytes/cycle",
    "engine.store.put.s": "s/cycle",
    "engine.store.put.calls": "count/cycle",
    "engine.store.put.bytes": "bytes/cycle",
    "engine.chunk.get.s": "s/cycle",
    "engine.chunk.get.hits": "count/cycle",
    "engine.chunk.get.misses": "count/cycle",
    "engine.chunk.put.s": "s/cycle",
    "engine.chunk.put.bytes": "bytes/cycle",
    "engine.execute_jobs.self_s": "s/cycle",
    "engine.run.self_s": "s/cycle",
    "service.submit.self_s": "s/cycle",
    "service.submit.calls": "count/cycle",
    "service.run_one.self_s": "s/cycle",
    "service.result.s": "s/cycle",
    "service.spool.get.s": "s/cycle",
    "service.spool.get.calls": "count/cycle",
    "service.spool.put.s": "s/cycle",
    "service.spool.put.calls": "count/cycle",
    "service.hit_ratio": "ratio",
    "explore.build.s": "s/cycle",
    "explore.cost_suite_grid.self_s": "s/cycle",
    "explore.pareto.s": "s/cycle",
    "overhead_x": "x",
    "overhead.wall_s": "s/cycle",
    "overhead.kernel_s": "s/cycle",
    "trace_overhead_ratio": "ratio",
    "cycles": "count",
}

#: Costing on a fresh machine: the kernel time ``overhead_x`` divides by.
_KERNEL = ("machine.execute", "machine.suitebatch", "machine.grid")


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for child in sorted(children[index], key=lambda c: spans[c][START]):
            lo, hi = max(spans[child][START], reach), min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: list[list], cycles: int, trace_overhead: float) -> dict:
    """Per-layer metrics (name -> value) from a traced run's spans.

    Inclusive times sum only the outermost span of each name, so a
    layer that re-enters itself is not counted twice; self times sum
    over every span.  ``op.*`` spans are the workload's timed
    operations; an ``op.*`` span whose info says ``process`` is a whole
    fresh interpreter, and ``engine.closure.distinct_ratio`` counts
    distinct seed sets per process.
    """
    self_s = _self_times(spans)
    incl: dict[str, float] = {}
    selfsum: dict[str, float] = {}
    calls: dict[str, int] = {}
    info_sum: dict[tuple[str, str], float] = {}
    distinct: set = set()
    overhead_wall = overhead_kernel = 0.0
    for index, span in enumerate(spans):
        name, info = span[NAME], span[INFO] or {}
        duration = span[END] - span[START]
        nested, op, parent = False, -1, span[PARENT]
        if name.startswith("op."):
            op = index
        while parent >= 0:
            if spans[parent][NAME] == name:
                nested = True
            if spans[parent][NAME].startswith("op."):
                op = parent
            parent = spans[parent][PARENT]
        calls[name] = calls.get(name, 0) + 1
        selfsum[name] = selfsum.get(name, 0.0) + self_s[index]
        if not nested:
            incl[name] = incl.get(name, 0.0) + duration
        for key, value in info.items():
            if key == "fresh":
                key = "fresh" if value else "memo"
                info_sum[(name, key + "_s")] = info_sum.get((name, key + "_s"), 0.0) + duration
                value = 1
            elif key == "seeds":
                process = op if op >= 0 and (spans[op][INFO] or {}).get("process") else -1
                distinct.add((process, value))
                continue
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, (int, float)):
                info_sum[(name, key)] = info_sum.get((name, key), 0.0) + value
        if op >= 0 and spans[op][NAME] == "op.nocache":
            if name == "op.nocache":
                overhead_wall += duration
            elif name in _KERNEL and not nested and info.get("fresh", True):
                overhead_kernel += duration

    per = max(cycles, 1)

    def inc(name):
        return incl.get(name, 0.0) / per

    def own(name):
        return selfsum.get(name, 0.0) / per

    def count(name):
        return calls.get(name, 0) / per

    def info(name, key):
        return info_sum.get((name, key), 0.0) / per

    submits = calls.get("service.submit", 0)
    values = {
        "import.s": _ratio(incl.get("import", 0.0), calls.get("import", 0)),
        "traces.build.s": inc("traces.build"),
        "traces.build.calls": count("traces.build"),
        "traces.columns.s": inc("traces.columns"),
        "machine.compile.s": inc("machine.compile"),
        "machine.compile.calls": count("machine.compile"),
        "machine.execute.fresh_s": info("machine.execute", "fresh_s"),
        "machine.execute.fresh_calls": info("machine.execute", "fresh"),
        "machine.execute.memo_s": info("machine.execute", "memo_s"),
        "machine.execute.memo_calls": info("machine.execute", "memo"),
        "machine.suitebatch.fresh_s": info("machine.suitebatch", "fresh_s"),
        "machine.suitebatch.memo_s": info("machine.suitebatch", "memo_s"),
        "machine.suitebatch.calls": count("machine.suitebatch"),
        "machine.grid.s": inc("machine.grid"),
        "machine.grid.machine_traces": info("machine.grid", "machine_traces"),
        "suite.experiments.self_s": own("suite.experiments"),
        "suite.experiments.calls": count("suite.experiments"),
        "suite.checks.passed": info("suite.experiments", "passed"),
        "suite.checks.total": info("suite.experiments", "checks"),
        "engine.digest.s": inc("engine.digest"),
        "engine.digest.calls": count("engine.digest"),
        "engine.closure.s": inc("engine.closure"),
        "engine.closure.calls": count("engine.closure"),
        "engine.closure.distinct_ratio": _ratio(len(distinct), calls.get("engine.closure", 0)),
        "engine.plan.self_s": own("engine.plan"),
        "engine.store.get.s": inc("engine.store.get"),
        "engine.store.get.calls": count("engine.store.get"),
        "engine.store.get.bytes": info("engine.store.get", "bytes"),
        "engine.store.put.s": inc("engine.store.put"),
        "engine.store.put.calls": count("engine.store.put"),
        "engine.store.put.bytes": info("engine.store.put", "bytes"),
        "engine.chunk.get.s": inc("engine.chunk.get"),
        "engine.chunk.get.hits": info("engine.chunk.get", "hit"),
        "engine.chunk.get.misses": count("engine.chunk.get") - info("engine.chunk.get", "hit"),
        "engine.chunk.put.s": inc("engine.chunk.put"),
        "engine.chunk.put.bytes": info("engine.chunk.put", "bytes"),
        "engine.execute_jobs.self_s": own("engine.execute_jobs"),
        "engine.run.self_s": own("engine.run"),
        "service.submit.self_s": own("service.submit"),
        "service.submit.calls": count("service.submit"),
        "service.run_one.self_s": own("service.run_one"),
        "service.result.s": inc("service.result"),
        "service.spool.get.s": inc("service.spool.get"),
        "service.spool.get.calls": count("service.spool.get"),
        "service.spool.put.s": inc("service.spool.put"),
        "service.spool.put.calls": count("service.spool.put"),
        "service.hit_ratio": _ratio(info_sum.get(("service.submit", "hit"), 0.0), submits),
        "explore.build.s": inc("explore.build"),
        "explore.cost_suite_grid.self_s": own("explore.cost_suite_grid"),
        "explore.pareto.s": inc("explore.pareto"),
        "overhead_x": _ratio(overhead_wall, overhead_kernel),
        "overhead.wall_s": overhead_wall / per,
        "overhead.kernel_s": overhead_kernel / per,
        "trace_overhead_ratio": trace_overhead,
        "cycles": cycles,
    }
    return values
