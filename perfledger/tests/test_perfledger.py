"""The ledger's own tests, at a tiny size.

Run from the repository root: ``python -m pytest perfledger/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfledger import clock, inputs, run
from perfledger.workloads import WORKLOADS, Ledger
from perfledger.tracer import (
    END,
    LAYER_UNITS,
    PARENT,
    START,
    Instrumentation,
    Tracer,
    _self_times,
    layer_metrics,
)

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfledger/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# -- steal ----------------------------------------------------------------------
def test_samples_are_scaled_by_their_cycles_unstolen_share():
    assert clock.unstolen_share(2.0, 0.5) == 0.75
    assert clock.unstolen_share(0.005, 0.01) == 0.0  # a tick longer than the wall
    assert clock.unstolen_share(0.0, 0.0) == 1.0
    assert clock.stolen_seconds() >= 0.0
    ledger = Ledger()
    ledger.record("warm", 0.2)
    ledger.record("cold", 0.4)
    assert ledger.samples == {"nocache": [], "cold": [], "warm": []}
    ledger.close_cycle(0.5)
    ledger.record("warm", 0.2)
    ledger.close_cycle(1.0)
    assert ledger.samples == {"nocache": [], "cold": [0.2], "warm": [0.1, 0.2]}
    assert ledger.unstolen == [0.5, 1.0]


# -- inputs ---------------------------------------------------------------------
def test_same_seed_same_inputs_other_seed_other_inputs():
    for generate in (
        lambda seed: [inputs.regen_order(seed, cycle) for cycle in range(32)],
        lambda seed: inputs.service_episode(seed, 0),
        inputs.design_sweep_axes,
    ):
        assert generate(3) == generate(3)
        assert generate(3) != generate(4)


def test_inputs_have_the_stated_shape():
    for seed in range(20):
        points = 1
        for axis in inputs.design_sweep_axes(seed):
            points *= len(axis["values"])
        assert 980 <= points <= 1020 and (points + 6) % inputs.CHUNK_MACHINES
        episode = inputs.service_episode(seed, 1)
        assert episode != inputs.service_episode(seed, 2)
        news = 0
        kinds = []
        named: list[str] = []
        for op in episode:
            kinds.append(op["op"])
            if op["op"] == "hit":
                assert op["of"] < news
                continue
            news += 1
            body = op["body"]
            if op["op"] == "suite":
                assert 1 <= len(body["suite"]["ids"]) <= 4
                named += body["suite"]["ids"]
            else:
                sizes = [len(axis["values"]) for axis in body["sweep"]["axes"]]
                assert sizes[0] * sizes[1] * sizes[2] == 80
        jobs = inputs.SERVICE_EPISODE_JOBS
        assert len(episode) == jobs and kinds.count("hit") == jobs * 6 // 10
        assert kinds.count("suite") == jobs * 3 // 10 and kinds.count("sweep") == jobs // 10
        assert sorted(named) == sorted(inputs.EXPERIMENT_IDS * 2)
        news = [op for op in episode if op["op"] != "hit"]
        hits = [op["of"] for op in episode if op["op"] == "hit"]
        for i, op in enumerate(news):
            wide = len(op["body"].get("suite", {}).get("ids", ())) >= 3
            assert hits.count(i) == (2 if wide else 1)
        order = inputs.regen_order(seed, 0)
        assert order.index("cold") < order.index("warm")


# -- metrics --------------------------------------------------------------------
def test_benchmark_json_names_every_metric_with_its_unit():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = _cli(workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "simulated-output fingerprint sha256:" in proc.stdout


def test_traced_run_prints_every_layer_metric():
    proc = _cli("design-sweep", 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == LAYER_UNITS
    assert result["metrics"]["machine.grid.s"]["value"] > 0
    assert result["metrics"]["trace_overhead_ratio"]["value"] > 0


def test_fails_without_a_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfledger", tmp_path / "perfledger",
                    ignore=shutil.ignore_patterns(".out", ".work", "__pycache__"))
    proc = _cli("design-sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- correctness gates ----------------------------------------------------------
def test_injected_hit_mismatch_is_a_failure(monkeypatch, capsys):
    from repro.service.app import Response, ServiceApp

    reads: dict[str, int] = {}
    original = ServiceApp.job_result

    def corrupt_repeat_reads(self, job_id, tenant):
        response = original(self, job_id, tenant)
        reads[job_id] = reads.get(job_id, 0) + 1
        if reads[job_id] > 1:
            return Response(status=response.status, body=response.body + b" ")
        return response

    monkeypatch.setattr(ServiceApp, "job_result", corrupt_repeat_reads)
    code = run.main(["--workload", "service-mix", "--seed", "7", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["success_ratio"]["value"] < 1


def test_injected_chunk_mismatch_is_a_failure(monkeypatch, tmp_path):
    from repro.engine.store import ChunkStore

    original = ChunkStore.get

    def perturb(self, namespace, key):
        chunk = original(self, namespace, key)
        if chunk is not None and namespace == "explore":
            first = next(iter(chunk["traces"].values()))
            first["cycles"][0] += 1.0
        return chunk

    monkeypatch.setattr(ChunkStore, "get", perturb)
    record = run.measure("design-sweep", 7, 0.1, False, tmp_path)
    assert record["failed"] > 0
    assert any("bit for bit" in failure for failure in record["failures"])


# -- tracing --------------------------------------------------------------------
def test_self_time_excludes_children_and_never_exceeds_the_parent():
    spans = [
        ["a", 0.0, 10.0, -1, None, None],
        ["b", 1.0, 4.0, 0, None, None],
        ["c", 2.0, 3.0, 1, None, None],
        ["d", 5.0, 9.0, 0, None, None],
    ]
    assert _self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    metrics = layer_metrics(spans, 1, 1.0)
    assert set(metrics) == set(LAYER_UNITS)


def test_traced_spans_nest_within_their_parents(tmp_path):
    record = run.measure("design-sweep", 7, 0.1, True, tmp_path)
    spans = record["spans"]
    own = _self_times(spans)
    children_self = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children_self[span[PARENT]] += own[index]
    for index, span in enumerate(spans):
        assert children_self[index] <= span[END] - span[START] + 1e-9
    assert set(record["layers"]) == set(LAYER_UNITS)


def test_instrumentation_classifies_fresh_and_memo_and_restores():
    from repro.analysis.traces import build_registered_trace
    from repro.machine.presets import preset_processor
    from repro.machine.processor import Processor

    original = Processor.__dict__["execute"]
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    try:
        trace = build_registered_trace("radabs")
        preset_processor("sx4").execute(trace)
        preset_processor("sx4").execute(trace)  # same parameters: a memo call
    finally:
        instrumentation.remove()
    assert Processor.__dict__["execute"] is original
    executes = [s for s in tracer.spans if s[0] == "machine.execute"]
    assert [s[5]["fresh"] for s in executes] == [True, False]
    assert all(s[4] is None for s in executes)
