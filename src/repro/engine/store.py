"""Content-addressed result store for suite experiments.

Layout, under the store root (default ``.repro-cache/``)::

    results/<exp_id>.<sha256-key>.json    one entry per (experiment, digest)
    quarantine/                           corrupt entries, moved aside
    tmp/                                  staging for atomic writes

Entries are written to ``tmp/`` and moved into place with
:func:`os.replace`, so a reader never sees a torn file and two writers
racing on the same key both leave a complete entry.

Every entry carries a sha256 checksum of its canonical experiment
payload (schema 2).  An entry that fails integrity checking — torn
JSON, missing fields, checksum mismatch — is **quarantined**: moved
into ``quarantine/`` (keeping the evidence) and reported as a miss, so
the engine recomputes while :meth:`ResultStore.stats` still shows the
damage.  Entries from older schemas are plain misses, not corruption.

Payloads serialize through :mod:`repro.suite.archive`, the same
schema the run-archiving CLI uses; :func:`canonical_bytes` is the
byte-identity yardstick the determinism contract is asserted against
(serial, parallel, and cache-hit paths must all produce it verbatim).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.engine.deps import ExperimentDigest
from repro.perfmon.collector import record as perfmon_record
from repro.perfmon.counters import declare_counters
from repro.suite.archive import experiment_from_dict, experiment_to_dict
from repro.suite.results import Experiment

__all__ = [
    "DEFAULT_STORE_ROOT",
    "STORE_SCHEMA",
    "CHUNK_SCHEMA",
    "CachedResult",
    "StoreEntry",
    "StoreStats",
    "ResultStore",
    "ChunkStore",
    "canonical_bytes",
    "payload_checksum",
]

DEFAULT_STORE_ROOT = ".repro-cache"
STORE_SCHEMA = 2
CHUNK_SCHEMA = 1

declare_counters("fault", ("quarantined",))


def canonical_bytes(experiment: Experiment) -> bytes:
    """The canonical serialized form of a result, for byte-identity checks."""
    payload = experiment_to_dict(experiment)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def payload_checksum(experiment_payload: dict) -> str:
    """sha256 of an experiment payload's canonical JSON form.

    Computed over the serialized dict directly (not a model round-trip)
    so verification is a pure disk-integrity check.
    """
    canonical = json.dumps(
        experiment_payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


@dataclass(frozen=True)
class CachedResult:
    """One deserialized store hit."""

    exp_id: str
    key: str
    experiment: Experiment
    elapsed_s: float  # wall seconds the original execution took


@dataclass(frozen=True)
class StoreEntry:
    """One on-disk entry, without deserializing its payload."""

    exp_id: str
    key: str
    path: Path
    size_bytes: int
    corrupt: bool = False


@dataclass(frozen=True)
class StoreStats:
    """Aggregate view of the store, optionally against current digests."""

    entries: int
    total_bytes: int
    by_experiment: dict[str, int]
    live: int | None = None  # entries matching a current digest
    stale: int | None = None  # entries for known experiments, old digests
    corrupt: int = 0  # entries failing integrity checks, still in results/
    quarantined: int = 0  # entries already moved to quarantine/

    def summary(self) -> str:
        parts = [f"{self.entries} entries, {self.total_bytes} bytes"]
        if self.live is not None:
            parts.append(f"{self.live} live, {self.stale} stale")
        if self.corrupt:
            parts.append(f"{self.corrupt} corrupt")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        return "; ".join(parts)


class ResultStore:
    """Digest-keyed experiment results with atomic, crash-safe writes.

    ``fault_injector`` (normally None) is the hook the chaos harness
    uses to corrupt freshly written entries; see
    :mod:`repro.faults.inject`.  ``quarantine_log`` records every
    quarantine this instance performed as ``(file name, reason)``.
    """

    def __init__(self, root: str | Path = DEFAULT_STORE_ROOT) -> None:
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.quarantine_dir = self.root / "quarantine"
        self.tmp_dir = self.root / "tmp"
        self.fault_injector = None
        self.quarantine_log: list[tuple[str, str]] = []

    # ------------------------------------------------------------ paths
    def entry_path(self, digest: ExperimentDigest) -> Path:
        return self.results_dir / f"{digest.exp_id}.{digest.key}.json"

    def _ensure_layout(self) -> None:
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.tmp_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------ integrity
    @staticmethod
    def _payload_problem(payload: object) -> str | None:
        """Why a parsed schema-2 payload fails integrity, or None."""
        if not isinstance(payload, dict):
            return "payload is not an object"
        for key in ("exp_id", "key", "checksum", "experiment"):
            if key not in payload:
                return f"missing field {key!r}"
        if not isinstance(payload["experiment"], dict):
            return "experiment payload is not an object"
        if payload_checksum(payload["experiment"]) != payload["checksum"]:
            return "checksum mismatch"
        return None

    def _entry_problem(self, path: Path) -> str | None:
        """Why an on-disk entry is corrupt, or None (valid or old schema)."""
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None  # vanished under us: a miss, not corruption
        try:
            payload = json.loads(text)
        except ValueError:
            return "unparseable JSON"
        if isinstance(payload, dict) and payload.get("schema") != STORE_SCHEMA:
            return None  # older schema: a plain miss, never corrupt
        return self._payload_problem(payload)

    def _quarantine(self, path: Path, reason: str) -> Path | None:
        """Move a corrupt entry aside, keeping the evidence."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = self.quarantine_dir / path.name
        try:
            os.replace(path, target)
        except OSError:
            return None  # already gone (racing reader quarantined it)
        self.quarantine_log.append((path.name, reason))
        perfmon_record("fault", {"quarantined": 1.0})
        return target

    # ------------------------------------------------------------ access
    def contains(self, digest: ExperimentDigest) -> bool:
        return self.entry_path(digest).is_file()

    def get(self, digest: ExperimentDigest) -> CachedResult | None:
        """The cached result for a digest, or None (missing or corrupt).

        A corrupt entry is quarantined on the way out — it reads as a
        miss (the engine recomputes), but the evidence moves to
        ``quarantine/`` instead of being silently overwritten.
        """
        path = self.entry_path(digest)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            self._quarantine(path, "unparseable JSON")
            return None
        if isinstance(payload, dict) and payload.get("schema") != STORE_SCHEMA:
            return None  # older schema: recompute overwrites it in place
        problem = self._payload_problem(payload)
        if problem is not None:
            self._quarantine(path, problem)
            return None
        try:
            return CachedResult(
                exp_id=payload["exp_id"],
                key=payload["key"],
                experiment=experiment_from_dict(payload["experiment"]),
                elapsed_s=float(payload.get("elapsed_s", 0.0)),
            )
        except (ValueError, KeyError, TypeError):
            self._quarantine(path, "payload does not deserialize")
            return None

    def put(
        self, digest: ExperimentDigest, experiment: Experiment, elapsed_s: float
    ) -> Path:
        """Persist one result atomically; returns the entry path."""
        if experiment.exp_id != digest.exp_id:
            raise ValueError(
                f"digest is for {digest.exp_id!r} but the result is "
                f"{experiment.exp_id!r}"
            )
        self._ensure_layout()
        experiment_payload = experiment_to_dict(experiment)
        payload = {
            "schema": STORE_SCHEMA,
            "exp_id": digest.exp_id,
            "key": digest.key,
            "elapsed_s": elapsed_s,
            "checksum": payload_checksum(experiment_payload),
            "experiment": experiment_payload,
        }
        final = self.entry_path(digest)
        staging = self.tmp_dir / f"{digest.key}.{os.getpid()}.tmp"
        staging.write_text(
            json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8"
        )
        os.replace(staging, final)
        if self.fault_injector is not None:
            from repro.faults.inject import corrupt_file, fault_point

            action = fault_point("store_entry", self.fault_injector, digest.exp_id)
            if action is not None:
                corrupt_file(final)
        return final

    # ------------------------------------------------------------ survey
    def entries(self) -> list[StoreEntry]:
        """Every entry on disk, cheapest-first metadata only."""
        return self._scan(self.results_dir)

    def quarantined_entries(self) -> list[StoreEntry]:
        """What has been moved aside; all flagged corrupt."""
        return [
            dataclasses.replace(entry, corrupt=True)
            for entry in self._scan(self.quarantine_dir)
        ]

    def _scan(self, directory: Path) -> list[StoreEntry]:
        if not directory.is_dir():
            return []
        found = []
        for path in sorted(directory.glob("*.json")):
            stem = path.name[: -len(".json")]
            exp_id, _, key = stem.rpartition(".")
            if not exp_id or len(key) != 64:
                continue
            found.append(
                StoreEntry(exp_id=exp_id, key=key, path=path,
                           size_bytes=path.stat().st_size)
            )
        return found

    def stats(self, current: dict[str, ExperimentDigest] | None = None) -> StoreStats:
        """Store size, integrity, and liveness against current digests."""
        entries = self.entries()
        by_exp: dict[str, int] = {}
        corrupt = 0
        for entry in entries:
            by_exp[entry.exp_id] = by_exp.get(entry.exp_id, 0) + 1
            if self._entry_problem(entry.path) is not None:
                corrupt += 1
        live = stale = None
        if current is not None:
            live_keys = {d.key for d in current.values()}
            live = sum(e.key in live_keys for e in entries)
            stale = len(entries) - live
        return StoreStats(
            entries=len(entries),
            total_bytes=sum(e.size_bytes for e in entries),
            by_experiment=by_exp,
            live=live,
            stale=stale,
            corrupt=corrupt,
            quarantined=len(self.quarantined_entries()),
        )

    # ------------------------------------------------------------ hygiene
    def gc(
        self, current: dict[str, ExperimentDigest], dry_run: bool = False
    ) -> list[StoreEntry]:
        """Drop dead entries, quarantine corrupt ones; returns what went.

        Corrupt entries are quarantined even when their key is live —
        a live address holding damaged bytes is exactly what must not
        sit in the cache.  Returned entries carry ``corrupt=True`` when
        they went to quarantine rather than the bin.
        """
        live_keys = {d.key for d in current.values()}
        removed = []
        for entry in self.entries():
            problem = self._entry_problem(entry.path)
            if problem is not None:
                if not dry_run:
                    self._quarantine(entry.path, problem)
                removed.append(
                    StoreEntry(entry.exp_id, entry.key, entry.path,
                               entry.size_bytes, corrupt=True)
                )
                continue
            if entry.key in live_keys:
                continue
            if not dry_run:
                entry.path.unlink(missing_ok=True)
            removed.append(entry)
        if not dry_run and self.tmp_dir.is_dir():
            for leftover in self.tmp_dir.glob("*.tmp"):
                leftover.unlink(missing_ok=True)
        return removed

    def clear(self) -> int:
        """Remove every entry (quarantine included); returns results dropped."""
        entries = self.entries()
        for entry in entries:
            entry.path.unlink(missing_ok=True)
        for entry in self.quarantined_entries():
            entry.path.unlink(missing_ok=True)
        if self.tmp_dir.is_dir():
            for leftover in self.tmp_dir.glob("*.tmp"):
                leftover.unlink(missing_ok=True)
        return len(entries)


class ChunkStore:
    """Content-addressed JSON chunks, for callers keyed by a content hash.

    :class:`ResultStore` caches suite :class:`Experiment` payloads; this
    is the same store discipline — atomic ``tmp/`` + :func:`os.replace`
    writes, sha256 payload checksums verified on read, corrupt entries
    quarantined and reported as misses — for arbitrary JSON payloads
    whose key the caller derives itself (``repro.explore`` keys grid
    sweep chunks on source digests + grid fingerprint + trace ids).

    Layout, sharing the root with the result store::

        chunks/<namespace>.<sha256-key>.json
        quarantine/                            shared with ResultStore
        tmp/                                   shared with ResultStore
    """

    def __init__(self, root: str | Path = DEFAULT_STORE_ROOT) -> None:
        self.root = Path(root)
        self.chunks_dir = self.root / "chunks"
        self.quarantine_dir = self.root / "quarantine"
        self.tmp_dir = self.root / "tmp"
        self.quarantine_log: list[tuple[str, str]] = []

    # ------------------------------------------------------------ paths
    @staticmethod
    def _check_address(namespace: str, key: str) -> None:
        if not namespace or "." in namespace or "/" in namespace:
            raise ValueError(f"invalid chunk namespace {namespace!r}")
        if len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"chunk key must be 64 lowercase hex chars, got {key!r}")

    def entry_path(self, namespace: str, key: str) -> Path:
        self._check_address(namespace, key)
        return self.chunks_dir / f"{namespace}.{key}.json"

    # ------------------------------------------------------------ access
    def contains(self, namespace: str, key: str) -> bool:
        return self.entry_path(namespace, key).is_file()

    def _quarantine(self, path: Path, reason: str) -> None:
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            return  # already gone (racing reader quarantined it)
        self.quarantine_log.append((path.name, reason))
        perfmon_record("fault", {"quarantined": 1.0})

    def get(self, namespace: str, key: str) -> dict | None:
        """The chunk payload for a key, or None (missing or corrupt)."""
        path = self.entry_path(namespace, key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            self._quarantine(path, "unparseable JSON")
            return None
        if isinstance(payload, dict) and payload.get("schema") != CHUNK_SCHEMA:
            return None  # older schema: recompute overwrites it in place
        problem = None
        if not isinstance(payload, dict):
            problem = "payload is not an object"
        elif any(field not in payload for field in ("key", "checksum", "chunk")):
            problem = "missing field"
        elif not isinstance(payload["chunk"], dict):
            problem = "chunk payload is not an object"
        elif payload_checksum(payload["chunk"]) != payload["checksum"]:
            problem = "checksum mismatch"
        if problem is not None:
            self._quarantine(path, problem)
            return None
        return payload["chunk"]

    def put(self, namespace: str, key: str, chunk: dict) -> Path:
        """Persist one chunk atomically; returns the entry path."""
        final = self.entry_path(namespace, key)
        self.chunks_dir.mkdir(parents=True, exist_ok=True)
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema": CHUNK_SCHEMA,
            "namespace": namespace,
            "key": key,
            "checksum": payload_checksum(chunk),
            "chunk": chunk,
        }
        staging = self.tmp_dir / f"{namespace}.{key}.{os.getpid()}.tmp"
        staging.write_text(
            json.dumps(payload, indent=1, sort_keys=True), encoding="utf-8"
        )
        os.replace(staging, final)
        return final

    # ------------------------------------------------------------ survey
    def entries(self) -> list[StoreEntry]:
        """Every chunk on disk (``exp_id`` carries the namespace)."""
        if not self.chunks_dir.is_dir():
            return []
        found = []
        for path in sorted(self.chunks_dir.glob("*.json")):
            stem = path.name[: -len(".json")]
            namespace, _, key = stem.rpartition(".")
            if not namespace or len(key) != 64:
                continue
            found.append(
                StoreEntry(exp_id=namespace, key=key, path=path,
                           size_bytes=path.stat().st_size)
            )
        return found

    def clear(self) -> int:
        """Remove every chunk; returns how many were dropped."""
        entries = self.entries()
        for entry in entries:
            entry.path.unlink(missing_ok=True)
        return len(entries)
