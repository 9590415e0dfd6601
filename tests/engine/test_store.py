"""Tests for the content-addressed result store."""

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


def _digest(exp_id="table_x", key=None):
    return ExperimentDigest(exp_id=exp_id, key=key or ("a" * 64))


def _experiment(exp_id="table_x"):
    exp = Experiment(exp_id=exp_id, title="a test experiment",
                     headers=["k", "v"], rows=[["speed", 865.9]],
                     series={"curve": [(1.0, 2.0), (3.0, 4.0)]},
                     paper_values={"speed": 865.9, 7: "int-keyed"})
    exp.check("holds", True, detail="why")
    return exp


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
        store = ResultStore(tmp_path)
        store.put(_digest(), _experiment(), 0.0)
        assert list(store.tmp_dir.glob("*.tmp")) == []

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
        assert payload["checksum"] == payload_checksum(payload["experiment"])


class TestQuarantine:
    def test_unparseable_entry_is_quarantined_on_read(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        name = store.entry_path(digest).name
        store.entry_path(digest).write_text("{not json")
        assert store.get(digest) is None
        assert not store.entry_path(digest).exists()
        assert (store.quarantine_dir / name).exists()
        assert store.quarantine_log == [(name, "unparseable JSON")]

    def test_checksum_mismatch_is_quarantined(self, tmp_path):
        """A tampered payload that still parses is caught by integrity."""
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        payload = json.loads(store.entry_path(digest).read_text())
        payload["experiment"]["title"] = "tampered"
        store.entry_path(digest).write_text(json.dumps(payload))
        assert store.get(digest) is None
        assert store.quarantine_log[0][1] == "checksum mismatch"

    def test_old_schema_is_a_miss_but_not_quarantined(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        payload = json.loads(store.entry_path(digest).read_text())
        payload["schema"] = 1
        store.entry_path(digest).write_text(json.dumps(payload))
        assert store.get(digest) is None
        assert store.entry_path(digest).exists()  # left for overwrite
        assert store.quarantine_log == []

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
        stats = store.stats()
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
        removed = store.gc({"exp.a": live})
        assert [e.corrupt for e in removed] == [True]
        assert not store.entry_path(live).exists()
        assert len(store.quarantined_entries()) == 1

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
        assert len(store.quarantined_entries()) == 1

    def test_clear_empties_the_quarantine_too(self, tmp_path):
        store = ResultStore(tmp_path)
        digest = _digest()
        store.put(digest, _experiment(), 0.0)
        store.entry_path(digest).write_text("{not json")
        store.get(digest)
        assert len(store.quarantined_entries()) == 1
        store.clear()
        assert store.quarantined_entries() == []


class TestSurvey:
    def test_entries_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        d1 = _digest("exp.a", "1" * 64)
        d2 = _digest("exp.a", "2" * 64)
        d3 = _digest("exp.b", "3" * 64)
        for d in (d1, d2, d3):
            store.put(d, _experiment(d.exp_id), 0.0)
        entries = store.entries()
        assert len(entries) == 3
        # Dots in experiment ids survive the filename encoding.
        assert {e.exp_id for e in entries} == {"exp.a", "exp.b"}
        stats = store.stats({"exp.a": d1, "exp.b": d3})
        assert stats.entries == 3
        assert stats.by_experiment == {"exp.a": 2, "exp.b": 1}
        assert (stats.live, stats.stale) == (2, 1)
        assert stats.total_bytes > 0

    def test_empty_store(self, tmp_path):
        stats = ResultStore(tmp_path / "nowhere").stats()
        assert stats.entries == 0
        assert stats.live is None


class TestHygiene:
    def test_gc_drops_only_unaddressed(self, tmp_path):
        store = ResultStore(tmp_path)
        live = _digest("exp.a", "1" * 64)
        dead = _digest("exp.a", "2" * 64)
        store.put(live, _experiment("exp.a"), 0.0)
        store.put(dead, _experiment("exp.a"), 0.0)
        removed = store.gc({"exp.a": live})
        assert [e.key for e in removed] == [dead.key]
        assert store.contains(live)
        assert not store.contains(dead)

    def test_gc_dry_run_removes_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        dead = _digest("exp.a", "2" * 64)
        store.put(dead, _experiment("exp.a"), 0.0)
        removed = store.gc({}, dry_run=True)
        assert len(removed) == 1
        assert store.contains(dead)

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_digest(), _experiment(), 0.0)
        assert store.clear() == 1
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


class TestChunkStore:
    KEY = "b" * 64

    def test_round_trip(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        chunk = {"trace_ids": ["hint"], "values": [1.0, 2.5, 0.1]}
        path = store.put("explore", self.KEY, chunk)
        assert path.name == f"explore.{self.KEY}.json"
        assert store.contains("explore", self.KEY)
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
        for namespace, key in [("", self.KEY), ("a.b", self.KEY),
                               ("a/b", self.KEY), ("explore", "short"),
                               ("explore", "Z" * 64)]:
            try:
                store.entry_path(namespace, key)
            except ValueError:
                continue
            raise AssertionError(f"{namespace!r}/{key!r} accepted")

    def test_unparseable_json_quarantined(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        path = store.put("explore", self.KEY, {"v": 1})
        path.write_text("{ not json", encoding="utf-8")
        assert store.get("explore", self.KEY) is None
        assert not path.exists()
        assert (store.quarantine_dir / path.name).exists()
        assert store.quarantine_log[-1][1] == "unparseable JSON"

    def test_checksum_mismatch_quarantined(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        path = store.put("explore", self.KEY, {"v": 1})
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["chunk"]["v"] = 2  # tamper without re-checksumming
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get("explore", self.KEY) is None
        assert store.quarantine_log[-1][1] == "checksum mismatch"

    def test_old_schema_is_a_plain_miss(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        path = store.put("explore", self.KEY, {"v": 1})
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["schema"] = 0
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.get("explore", self.KEY) is None
        assert path.exists()  # not quarantined: recompute overwrites

    def test_entries_and_clear(self, tmp_path):
        store = ChunkStore(tmp_path / "cache")
        store.put("explore", "c" * 64, {"v": 1})
        store.put("other", "d" * 64, {"v": 2})
        entries = store.entries()
        assert [e.exp_id for e in entries] == ["explore", "other"]
        assert store.clear() == 2
        assert store.entries() == []

    def test_shares_root_layout_with_result_store(self, tmp_path):
        root = tmp_path / "cache"
        chunk_store = ChunkStore(root)
        result_store = ResultStore(root)
        assert chunk_store.quarantine_dir == result_store.quarantine_dir
        assert chunk_store.tmp_dir == result_store.tmp_dir


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
        assert [(e.exp_id, e.key) for e in entries] == [("race", self.KEY)]
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
