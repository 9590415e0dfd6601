"""Tests for the one content-addressed store and its result face."""

import json
import multiprocessing

import pytest

from repro.engine.deps import ExperimentDigest
from repro.engine.store import ChunkStore, ResultStore, canonical_bytes, payload_checksum
from repro.suite.results import Experiment

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="concurrency tests fork writer processes",
)


#: Source digests standing in for the current code and an older one.
CODE = "c0de" * 16
OLD = "01de" * 16


def _digest(exp_id="table_x", key=None, code=CODE):
    return ExperimentDigest(exp_id=exp_id, key=key or ("a" * 64), code=code)


def _experiment(exp_id="table_x"):
    exp = Experiment(exp_id=exp_id, title="a test experiment",
                     headers=["k", "v"], rows=[["speed", 865.9]],
                     series={"curve": [(1.0, 2.0), (3.0, 4.0)]},
                     paper_values={"speed": 865.9, 7: "int-keyed"})
    exp.check("holds", True, detail="why")
    return exp


class _ResultFace:
    """One result entry, through the typed ResultStore face."""

    name = "result"

    def __init__(self, root):
        self.store = ResultStore(root)
        self.chunks = self.store.chunks

    def put(self):
        return self.store.put(_digest(), _experiment(), 0.0)

    def get(self):
        return self.store.get(_digest())


class _ChunkFace:
    """One explore chunk, straight through the ChunkStore."""

    name = "chunk"
    KEY = "b" * 64

    def __init__(self, root):
        self.store = self.chunks = ChunkStore(root)

    def put(self):
        return self.store.put("explore", self.KEY, {"v": 1})

    def get(self):
        return self.store.get("explore", self.KEY)


def _faces(tmp_path):
    """Both store faces, each over its own root: the integrity tests
    below run once per face (the file discipline is shared)."""
    return [face(tmp_path / face.name) for face in (_ResultFace, _ChunkFace)]


def _rewrite(path, edit):
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


class TestPutGet:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        digest = _digest()
        store.put(digest, _experiment(), elapsed_s=0.25)
        cached = store.get(digest)
        assert cached is not None
        assert cached.exp_id == "table_x"
        assert cached.elapsed_s == 0.25
        assert canonical_bytes(cached.experiment) == canonical_bytes(_experiment())

    def test_contains(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        assert not store.contains(digest)
        store.put(digest, _experiment(), 0.0)
        assert store.contains(digest)

    def test_miss_returns_none(self, tmp_path):
        assert ResultStore(tmp_path).get(_digest()) is None

    def test_mismatched_ids_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        try:
            store.put(_digest(exp_id="other"), _experiment(), 0.0)
        except ValueError:
            return
        raise AssertionError("expected ValueError")

    def test_atomic_write_leaves_no_staging(self, tmp_path):
        for face in _faces(tmp_path):
            face.put()
            assert list(face.chunks.tmp_dir.glob("*.tmp")) == [], face.name

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        store.entry_path(digest).write_text("{not json")
        assert store.get(digest) is None

    def test_wrong_schema_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        payload = json.loads(store.entry_path(digest).read_text())
        payload["schema"] = 999
        store.entry_path(digest).write_text(json.dumps(payload))
        assert store.get(digest) is None

    def test_entries_carry_a_verifiable_checksum(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        payload = json.loads(store.entry_path(digest).read_text())
        assert payload["checksum"] == payload_checksum(payload["chunk"])
        assert payload["code"] == CODE  # what gc compares with the current code


class TestQuarantine:
    def test_unparseable_entry_is_quarantined_on_read(self, tmp_path):
        for face in _faces(tmp_path):
            path = face.put()
            path.write_text("{not json")
            assert face.get() is None, face.name
            assert not path.exists(), face.name
            assert (face.chunks.quarantine_dir / path.name).exists(), face.name
            assert face.store.quarantine_log == [(path.name, "unparseable JSON")]

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        """A tampered payload that still parses is caught by integrity."""
        for face in _faces(tmp_path):
            path = face.put()
            _rewrite(path, lambda payload: payload["chunk"].update(v="tampered"))
            assert face.get() is None, face.name
            assert face.store.quarantine_log[0][1] == "checksum mismatch"

    def test_old_schema_is_a_miss_but_not_quarantined(self, tmp_path):
        for face in _faces(tmp_path):
            path = face.put()
            _rewrite(path, lambda payload: payload.update(schema=0))
            assert face.get() is None, face.name
            assert path.exists(), face.name  # left for overwrite
            assert face.store.quarantine_log == [], face.name

    def test_undeserializable_result_is_quarantined(self, tmp_path):
        # Valid envelope, checksum intact, but not an experiment payload:
        # the typed face rejects it and quarantines through the store.
        store = ResultStore(tmp_path)
        digest = _digest()
        store.chunks.put(store.namespace(digest.exp_id), digest.key, {"experiment": {}})
        assert store.get(digest) is None
        assert store.quarantine_log[0][1] == "payload does not deserialize"
        assert len(store.chunks.quarantined_entries()) == 1

    def test_stats_count_corrupt_and_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        good = _digest("exp.a", "1" * 64)
        bad = _digest("exp.a", "2" * 64)
        gone = _digest("exp.a", "3" * 64)
        for d in (good, bad, gone):
            store.put(d, _experiment("exp.a"), 0.0)
        store.entry_path(bad).write_text("{not json")
        store.entry_path(gone).write_text("{not json")
        store.get(gone)  # quarantined on the way out
        stats = store.chunks.stats(CODE)
        assert stats.entries == 2
        assert stats.corrupt == 1
        assert stats.quarantined == 1
        assert "1 corrupt" in stats.summary()
        assert "1 quarantined" in stats.summary()

    def test_gc_quarantines_corrupt_entries_even_when_live(self, tmp_path):
        store = ResultStore(tmp_path)
        live = _digest("exp.a", "1" * 64)
        store.put(live, _experiment("exp.a"), 0.0)
        store.entry_path(live).write_text("{not json")
        removed = store.chunks.gc(CODE)
        assert [e.corrupt for e in removed] == [True]
        assert not store.entry_path(live).exists()
        assert len(store.chunks.quarantined_entries()) == 1

    def test_fault_injector_hook_corrupts_a_fresh_write(self, tmp_path):
        from repro.faults.inject import FaultAction, FaultInjector

        store = ResultStore(tmp_path)
        store.fault_injector = FaultInjector(actions=(
            FaultAction(site="store_entry", exp_id="table_x", kind="corrupt"),
        ))
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        assert store.fault_injector.applied_counts() == {"store_entry": 1}
        assert store.get(digest) is None  # quarantined, not served
        assert len(store.chunks.quarantined_entries()) == 1

    def test_clear_empties_the_quarantine_too(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        store.entry_path(digest).write_text("{not json")
        store.get(digest)
        assert len(store.chunks.quarantined_entries()) == 1
        store.chunks.clear()
        assert store.chunks.quarantined_entries() == []


class TestSurvey:
    def test_entries_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        d1 = _digest("exp.a", "1" * 64)
        d2 = _digest("exp.a", "2" * 64, code=OLD)
        d3 = _digest("exp.b", "3" * 64)
        for d in (d1, d2, d3):
            store.put(d, _experiment(d.exp_id), 0.0)
        entries = store.entries()
        assert len(entries) == 3
        # Dots in experiment ids survive the filename encoding.
        assert {e.exp_id for e in entries} == {"exp.a", "exp.b"}
        assert sorted(entries, key=lambda d: d.key) == [d1, d2, d3]
        stats = store.chunks.stats(CODE)
        assert stats.entries == 3
        assert stats.by_namespace == {"result-exp.a": 2, "result-exp.b": 1}
        assert (stats.live, stats.stale) == (2, 1)
        assert stats.total_bytes > 0

    def test_empty_store(self, tmp_path):
        stats = ChunkStore(tmp_path / "nowhere").stats(CODE)
        assert stats.entries == 0
        assert (stats.live, stats.stale) == (0, 0)

    def test_journals_are_neither_live_nor_stale(self, tmp_path):
        store = ChunkStore(tmp_path)
        store.put("svcjob-public", "d" * 64, {"state": "done"})
        stats = store.stats(CODE)
        assert (stats.entries, stats.live, stats.stale) == (1, 0, 0)


class TestHygiene:
    def test_gc_drops_only_unaddressed(self, tmp_path):
        store = ResultStore(tmp_path)
        live = _digest("exp.a", "1" * 64)
        dead = _digest("exp.a", "2" * 64, code=OLD)
        store.put(live, _experiment("exp.a"), 0.0)
        store.put(dead, _experiment("exp.a"), 0.0)
        removed = store.chunks.gc(CODE)
        assert [e.key for e in removed] == [dead.key]
        assert store.contains(live)
        assert not store.contains(dead)

    def test_gc_dry_run_removes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        dead = _digest("exp.a", "2" * 64, code=OLD)
        store.put(dead, _experiment("exp.a"), 0.0)
        removed = store.chunks.gc(CODE, dry_run=True)
        assert len(removed) == 1
        assert store.contains(dead)

    def test_gc_never_drops_journals_or_other_schemas(self, tmp_path):
        store = ChunkStore(tmp_path)
        journal = store.put("svcjob-public", "d" * 64, {"state": "done"})
        foreign = store.put("explore", "e" * 64, {"v": 1}, code=OLD)
        _rewrite(foreign, lambda payload: payload.update(schema=2))
        stale = store.put("explore", "f" * 64, {"v": 2}, code=OLD)
        assert [e.path for e in store.gc(CODE)] == [stale]
        assert journal.exists() and foreign.exists() and not stale.exists()

    def test_gc_clears_staging_leftovers(self, tmp_path):
        store = ChunkStore(tmp_path)
        store.put("explore", "e" * 64, {"v": 1}, code=CODE)
        (store.tmp_dir / "explore.crashed.123.tmp").write_text("{")
        store.gc(CODE)
        assert list(store.tmp_dir.glob("*.tmp")) == []

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_digest(), _experiment(), 0.0)
        assert store.chunks.clear() == 1
        assert store.entries() == []


class TestCanonicalBytes:
    def test_round_trip_is_byte_identical(self, tmp_path):
        """The store's byte-identity contract, including int-keyed
        paper_values (the table7 shape that once broke it)."""
        store = ResultStore(tmp_path)
        digest = _digest()
        original = _experiment()
        store.put(digest, original, 0.0)
        assert canonical_bytes(store.get(digest).experiment) == canonical_bytes(original)

    def test_series_keep_their_order(self, tmp_path):
        """A hit renders the legend in build order, not sorted: figure8
        builds T42, T106, T170, and its chart markers follow that order."""
        store = ResultStore(tmp_path)
        digest = _digest()
        original = _experiment()
        original.series = {name: [(1.0, 2.0)] for name in ("T42", "T106", "T170")}
        store.put(digest, original, 0.0)
        assert list(store.get(digest).experiment.series) == ["T42", "T106", "T170"]


class TestChunkStore:
    KEY = "b" * 64

    def test_round_trip(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        chunk = {"trace_ids": ["hint"], "values": [1.0, 2.5, 0.1]}
        path = store.put("explore", self.KEY, chunk)
        assert path.name == f"explore.{self.KEY}.json"
        assert store.contains("explore", self.KEY)
        assert store.get("explore", self.KEY) == chunk

    def test_envelope_is_compact_and_keeps_key_order(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        chunk = {"z": 1, "a": {"y": 2, "b": 3}}
        path = store.put("explore", self.KEY, chunk, code=CODE)
        text = path.read_text(encoding="utf-8")
        assert "\n" not in text and ", " not in text
        back = store.get("explore", self.KEY)
        assert list(back) == ["z", "a"] and list(back["a"]) == ["y", "b"]
        # The checksum is over the canonical (sorted) form, so it does
        # not depend on the order the chunk was written in.
        assert json.loads(text)["checksum"] == payload_checksum({"a": {"b": 3, "y": 2}, "z": 1})

    def test_sorted_envelopes_still_read(self, tmp_path):
        """Entries written sorted and indented (the earlier layout) are
        the same schema and stay readable."""
        store = ChunkStore(tmp_path / "cache")
        chunk = {"values": [1.0, 2.0]}
        path = store.put("explore", self.KEY, chunk, code=CODE)
        envelope = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(envelope, indent=1, sort_keys=True), encoding="utf-8")
        assert store.get("explore", self.KEY) == chunk

    def test_floats_round_trip_bit_exactly(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        values = [0.1, 1e300, 5e-324, 1.0 / 3.0, 9.2e-9]
        store.put("explore", self.KEY, {"values": values})
        back = store.get("explore", self.KEY)["values"]
        assert all(a == b for a, b in zip(values, back))

    def test_miss_returns_none(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        assert store.get("explore", self.KEY) is None
        assert not store.contains("explore", self.KEY)

    def test_bad_addresses_rejected(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        for namespace, key in [("", self.KEY),
                               ("a/b", self.KEY), ("explore", "short"),
                               ("explore", "Z" * 64)]:
            try:
                store.entry_path(namespace, key)
            except ValueError:
                continue
            raise AssertionError(f"{namespace!r}/{key!r} accepted")

    def test_entries_and_clear(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        store.put("explore", "c" * 64, {"v": 1})
        store.put("other", "d" * 64, {"v": 2})
        entries = store.entries()
        assert [e.namespace for e in entries] == ["explore", "other"]
        assert store.clear() == 2
        assert store.entries() == []

    def test_dotted_namespaces_and_prefix_listing(self, tmp_path):
        # Result namespaces carry experiment ids, dots included.
        store = ChunkStore(tmp_path / "cache")
        store.put("result-sec4.7.3", "c" * 64, {"v": 1})
        store.put("result-sec4.7", "c" * 64, {"v": 2})
        store.put("explore", "d" * 64, {"v": 3})
        assert store.get("result-sec4.7.3", "c" * 64) == {"v": 1}
        assert {e.namespace for e in store.entries("result-")} == {
            "result-sec4.7", "result-sec4.7.3",
        }

    def test_delete(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        store.put("explore", self.KEY, {"v": 1})
        assert store.delete("explore", self.KEY)
        assert not store.delete("explore", self.KEY)
        assert store.entries() == []

    def test_code_is_optional_in_the_envelope(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        journal = json.loads(store.put("svcjob-t", "c" * 64, {"v": 1}).read_text())
        cache = json.loads(store.put("explore", "d" * 64, {"v": 1}, code=CODE).read_text())
        assert "code" not in journal and journal["schema"] == 1
        assert cache["code"] == CODE and cache["schema"] == 1


def _racing_writer(root, namespace, key, rounds, barrier):
    """Hammer one chunk address from a separate process (fork target)."""
    store = ChunkStore(root)
    barrier.wait()
    for i in range(rounds):
        store.put(namespace, key, {"value": 7, "round": i % 3})


class TestChunkStoreConcurrency:
    """Two processes racing the same chunk key must leave one valid
    entry: the atomic tmp/ + os.replace discipline means readers only
    ever see a complete payload, so nothing gets quarantined."""

    KEY = "e" * 64

    @needs_fork
    def test_racing_writers_one_valid_entry_no_quarantine(self, tmp_path):
        root = tmp_path / "cache"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(3)
        writers = [
            ctx.Process(
                target=_racing_writer,
                args=(root, "race", self.KEY, 200, barrier),
            )
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        store = ChunkStore(root)
        barrier.wait()  # release both writers together
        # read mid-race: every observed payload must be complete
        seen = 0
        while any(w.is_alive() for w in writers):
            chunk = store.get("race", self.KEY)
            if chunk is not None:
                assert chunk["value"] == 7
                seen += 1
        for writer in writers:
            writer.join()
            assert writer.exitcode == 0

        entries = store.entries()
        assert [(e.namespace, e.key) for e in entries] == [("race", self.KEY)]
        final = store.get("race", self.KEY)
        assert final is not None and final["value"] == 7
        assert store.quarantine_log == []
        assert not store.quarantine_dir.is_dir() or not any(
            store.quarantine_dir.iterdir()
        )

    @needs_fork
    def test_distinct_pids_never_collide_in_tmp(self, tmp_path):
        # The staging name embeds the pid, so concurrent writers never
        # truncate each other's in-flight file; after the dust settles
        # tmp/ holds no leftovers.
        root = tmp_path / "cache"
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        writer = ctx.Process(
            target=_racing_writer, args=(root, "race", self.KEY, 100, barrier)
        )
        writer.start()
        store = ChunkStore(root)
        barrier.wait()
        for i in range(100):
            store.put("race", self.KEY, {"value": 7, "round": i % 3})
        writer.join()
        assert writer.exitcode == 0
        assert list(store.tmp_dir.glob("*.tmp")) == []
        assert store.get("race", self.KEY)["value"] == 7
