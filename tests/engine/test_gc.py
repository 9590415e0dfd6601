"""The one gc over a whole store root: results, sweep chunks, journals.

``engine gc`` and ``service gc`` run the same collection over the root
store and every tenant store under it.  Cache entries record the source
digest their key was derived from; an entry under any other digest can
never be addressed again and goes, while job journals stay until their
TTL sweep.
"""

import json

import pytest

from repro.engine.cli import main as engine_main
from repro.engine.deps import ExperimentDigest, source_digest, suite_digests
from repro.engine.store import ChunkStore, ResultStore
from repro.service.cli import main as service_main
from repro.service.spool import DONE, PENDING, JobRecord, JobSpool
from repro.service.tenants import tenant_store_root
from repro.suite.results import Experiment

OLD = "01de" * 16  # a source digest no current entry carries


def _experiment(exp_id):
    return Experiment(exp_id=exp_id, title="t", headers=["k"], rows=[["v"]])


def _stats(capsys, root):
    capsys.readouterr()
    assert engine_main(["stats", "--cache-dir", str(root), "--json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.fixture
def root(tmp_path):
    """A root store and one tenant store, each holding current and stale
    cache entries, plus journals that no gc may touch."""
    root = tmp_path / "cache"
    code = source_digest()
    current = suite_digests(["table2"])["table2"]
    stale = ExperimentDigest("table2", "9" * 64, code=OLD)
    for store_root in (root, tenant_store_root(root, "alice")):
        results = ResultStore(store_root)
        results.put(current, _experiment("table2"), 0.1)
        results.put(stale, _experiment("table2"), 0.1)
        chunks = ChunkStore(store_root)
        chunks.put("explore", "c" * 64, {"v": 1}, code=code)
        chunks.put("explore", "d" * 64, {"v": 2}, code=OLD)
    spool = JobSpool(root)
    for state, job_id in ((PENDING, "a" * 64), (DONE, "b" * 64)):
        spool.put(JobRecord(job_id=job_id, tenant="alice", state=state,
                            request={"kind": "suite", "suite": {"ids": []}}))
    return root


@pytest.mark.parametrize("cli", ["engine", "service"])
def test_gc_drops_stale_cache_entries_in_every_store(root, capsys, cli):
    before = _stats(capsys, root)
    assert (before["live"], before["stale"]) == (4, 4)
    assert before["by_namespace"] == {
        "explore": 2, "result-table2": 2, "svcjob-alice": 2,
        "tenants/alice/explore": 2, "tenants/alice/result-table2": 2,
    }
    main = engine_main if cli == "engine" else service_main
    assert main(["gc", "--cache-dir", str(root)]) == 0
    assert "gc: removed 4 entries" in capsys.readouterr().out

    after = _stats(capsys, root)
    assert (after["live"], after["stale"], after["corrupt"]) == (4, 0, 0)
    current = suite_digests(["table2"])["table2"]
    for store_root in (root, tenant_store_root(root, "alice")):
        assert ResultStore(store_root).entries() == [current]
        assert [e.key for e in ChunkStore(store_root).entries("explore")] == ["c" * 64]
    assert {r.job_id for r in JobSpool(root).records()} == {"a" * 64, "b" * 64}


def test_gc_quarantines_corrupt_journals_and_results_alike(root, capsys):
    tenant = ResultStore(tenant_store_root(root, "alice"))
    tenant.entry_path(suite_digests(["table2"])["table2"]).write_text("{torn")
    JobSpool(root).chunks.entry_path("svcjob-alice", "a" * 64).write_text("{torn")
    assert engine_main(["gc", "--cache-dir", str(root), "--dry-run"]) == 0
    assert "2 corrupt -> quarantine" in capsys.readouterr().out
    assert engine_main(["gc", "--cache-dir", str(root)]) == 0
    stats = _stats(capsys, root)
    assert (stats["corrupt"], stats["quarantined"], stats["stale"]) == (0, 2, 0)


@pytest.mark.parametrize("cli", ["engine", "service"])
def test_gc_dry_run_moves_no_file(root, capsys, cli):
    tenant = ResultStore(tenant_store_root(root, "alice"))
    tenant.entry_path(suite_digests(["table2"])["table2"]).write_text("{torn")
    JobSpool(root).chunks.entry_path("svcjob-alice", "a" * 64).write_text("{torn")
    main = engine_main if cli == "engine" else service_main
    assert main(["gc", "--cache-dir", str(root), "--dry-run"]) == 0
    assert "2 corrupt -> quarantine" in capsys.readouterr().out
    stats = _stats(capsys, root)
    assert (stats["corrupt"], stats["quarantined"], stats["stale"]) == (2, 0, 4)


def test_gc_collects_vectorization_lines_after_a_source_edit(tmp_path, monkeypatch, capsys):
    from repro.engine import deps
    from repro.suite.runner import main as suite_main

    monkeypatch.chdir(tmp_path)
    assert suite_main(["--engine", "table2"]) == 0
    before = _stats(capsys, tmp_path / ".repro-cache")
    assert before["by_namespace"] == {"result-table2": 1, "vectorization-table2": 1}
    assert (before["live"], before["stale"]) == (2, 0)

    edited = tuple(
        (name, b"\0" * 32 if name == "repro.kernels.rfft" else digest)
        for name, digest in deps._source_hashes()
    )
    monkeypatch.setattr(deps, "_source_hashes", lambda: edited)
    assert engine_main(["gc"]) == 0
    assert "gc: removed 2 entries" in capsys.readouterr().out
    assert _stats(capsys, tmp_path / ".repro-cache")["entries"] == 0
