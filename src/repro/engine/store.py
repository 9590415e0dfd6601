"""One content-addressed store: experiment results, sweep chunks, job journals.

Layout, under the store root (default ``.repro-cache/``)::

    chunks/<namespace>.<sha256-key>.json   one entry per (namespace, key)
    quarantine/                            corrupt entries, moved aside
    tmp/                                   staging for atomic writes
    tenants/<tenant>/                      a whole store per service tenant

Namespaces are ``result-<exp_id>`` (:class:`ResultStore`),
``vectorization-<exp_id>`` (the suite runner's rendered diagnostics, at
the result's key), ``explore`` (grid-sweep chunks) and
``svcjob-<tenant>``/``svclifecycle`` (service journals).  They may
contain dots (``result-sec4.7.3``): the 64-hex key splits off with
``rpartition(".")``.

:class:`ChunkStore` is the only class that touches store files.  Entries
are written to ``tmp/`` and moved into place with :func:`os.replace`, so
a reader never sees a torn file.  Every entry carries a sha256 checksum
of its canonical payload; an entry that fails integrity checking — torn
JSON, missing fields, checksum mismatch — is **quarantined** (moved into
``quarantine/``, keeping the evidence) and reads as a miss.  Entries of
another envelope schema are plain misses, not corruption.

Envelopes are written as compact JSON in insertion order, so a chunk
reads back with the key order it was written with; the checksum is over
the sorted canonical form, so it does not depend on that order.

Cache entries (results, diagnostics and sweep chunks) also record
``code``, the source digest their key was derived from, so the one gc
rule is local to each entry: :func:`collect_garbage` drops a cache
entry whose ``code`` is not the current
:func:`~repro.engine.deps.source_digest`.
Journals carry no ``code``; they expire through
:meth:`repro.service.spool.JobSpool.sweep_expired`.

:func:`canonical_bytes` is the byte-identity yardstick the determinism
contract is asserted against (serial, parallel, and cache-hit paths must
all produce it verbatim).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.engine.deps import ExperimentDigest, source_digest
from repro.perfmon.collector import record as perfmon_record
from repro.perfmon.counters import declare_counters
from repro.suite.archive import experiment_from_dict, experiment_to_dict
from repro.suite.results import Experiment

__all__ = [
    "DEFAULT_STORE_ROOT",
    "CHUNK_SCHEMA",
    "RESULT_NAMESPACE_PREFIX",
    "TENANTS_DIR",
    "CachedResult",
    "StoreEntry",
    "StoreStats",
    "ResultStore",
    "ChunkStore",
    "canonical_bytes",
    "collect_garbage",
    "payload_checksum",
    "store_roots",
    "survey",
]

DEFAULT_STORE_ROOT = ".repro-cache"
CHUNK_SCHEMA = 1
RESULT_NAMESPACE_PREFIX = "result-"
#: Subdirectory of a store root holding one whole store per tenant.
TENANTS_DIR = "tenants"

declare_counters("fault", ("quarantined",))


def canonical_bytes(experiment: Experiment) -> bytes:
    """The canonical serialized form of a result, for byte-identity checks."""
    payload = experiment_to_dict(experiment)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def payload_checksum(payload: dict) -> str:
    """sha256 of a payload's canonical JSON form.

    Computed over the serialized dict directly (not a model round-trip)
    so verification is a pure disk-integrity check.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


@dataclass(frozen=True)
class CachedResult:
    """One deserialized result-store hit."""

    exp_id: str
    key: str
    experiment: Experiment
    elapsed_s: float  # wall seconds the original execution took


@dataclass(frozen=True)
class StoreEntry:
    """One on-disk entry, without deserializing its payload."""

    namespace: str
    key: str
    path: Path
    size_bytes: int
    corrupt: bool = False


@dataclass(frozen=True)
class StoreStats:
    """Entry counts per namespace, integrity, and cache liveness."""

    entries: int
    total_bytes: int
    by_namespace: dict[str, int]
    live: int  # cache entries keyed on the current code
    stale: int  # cache entries keyed on other code: gc drops them
    corrupt: int  # entries failing integrity checks, still in chunks/
    quarantined: int  # entries already moved to quarantine/

    def summary(self) -> str:
        parts = [
            f"{self.entries} entries, {self.total_bytes} bytes",
            f"{self.live} live, {self.stale} stale",
        ]
        if self.corrupt:
            parts.append(f"{self.corrupt} corrupt")
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        return "; ".join(parts)


class ChunkStore:
    """Content-addressed JSON chunks: the one class that touches store files.

    Callers address a chunk by ``(namespace, key)``, the key being a
    64-hex content hash they derive themselves.  ``quarantine_log``
    records every quarantine this instance performed as
    ``(file name, reason)``.
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
        if not namespace or "/" in namespace:
            raise ValueError(f"invalid chunk namespace {namespace!r}")
        if len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"chunk key must be 64 lowercase hex chars, got {key!r}")

    def entry_path(self, namespace: str, key: str) -> Path:
        self._check_address(namespace, key)
        return self.chunks_dir / f"{namespace}.{key}.json"

    # ------------------------------------------------------------ integrity
    @staticmethod
    def _read(path: Path) -> tuple[dict | None, str | None]:
        """``(envelope, None)`` if valid, ``(None, reason)`` if corrupt.

        ``(None, None)`` is a plain miss: the file is gone, or it is an
        envelope of another schema.
        """
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None, None
        try:
            envelope = json.loads(text)
        except ValueError:
            return None, "unparseable JSON"
        if not isinstance(envelope, dict):
            return None, "payload is not an object"
        if envelope.get("schema") != CHUNK_SCHEMA:
            return None, None
        for field in ("key", "checksum", "chunk"):
            if field not in envelope:
                return None, f"missing field {field!r}"
        if not isinstance(envelope["chunk"], dict):
            return None, "chunk payload is not an object"
        if payload_checksum(envelope["chunk"]) != envelope["checksum"]:
            return None, "checksum mismatch"
        return envelope, None

    def _classify(self, path: Path, code: str) -> tuple[str | None, str | None]:
        """``(state, problem)``: ``"live"``/``"stale"`` against ``code`` for
        a cache entry, None for a journal or another schema; the problem
        if the entry is corrupt."""
        envelope, problem = self._read(path)
        if envelope is None or "code" not in envelope:
            return None, problem
        return ("live" if envelope["code"] == code else "stale"), None

    def quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside, keeping the evidence."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            return  # already gone (racing reader quarantined it)
        self.quarantine_log.append((path.name, reason))
        perfmon_record("fault", {"quarantined": 1.0})

    # ------------------------------------------------------------ access
    def contains(self, namespace: str, key: str) -> bool:
        return self.entry_path(namespace, key).is_file()

    def get(self, namespace: str, key: str, quarantine: bool = True) -> dict | None:
        """The chunk payload for a key, or None (missing or corrupt).

        A corrupt entry is quarantined on the way out: it reads as a
        miss (the caller recomputes), but the evidence moves to
        ``quarantine/`` instead of being silently overwritten.  With
        ``quarantine=False`` (a dry run) it reads as a miss and stays.
        """
        path = self.entry_path(namespace, key)
        envelope, problem = self._read(path)
        if problem is not None and quarantine:
            self.quarantine(path, problem)
        return None if envelope is None else envelope["chunk"]

    def put(self, namespace: str, key: str, chunk: dict, code: str | None = None) -> Path:
        """Persist one chunk atomically; returns the entry path.

        ``code`` marks a cache entry with the source digest its key was
        derived from (see :func:`collect_garbage`); journals omit it.
        """
        final = self.entry_path(namespace, key)
        self.chunks_dir.mkdir(parents=True, exist_ok=True)
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        envelope = {
            "schema": CHUNK_SCHEMA,
            "namespace": namespace,
            "key": key,
            "checksum": payload_checksum(chunk),
            "chunk": chunk,
        }
        if code is not None:
            envelope["code"] = code
        staging = self.tmp_dir / f"{namespace}.{key}.{os.getpid()}.tmp"
        # Compact and in insertion order: the checksum is over the sorted
        # canonical form, but readers see the chunk's own key order (a
        # result's series order is its legend order).
        staging.write_text(json.dumps(envelope, separators=(",", ":")), encoding="utf-8")
        os.replace(staging, final)
        return final

    def delete(self, namespace: str, key: str) -> bool:
        """Remove one entry; True if it was there."""
        try:
            self.entry_path(namespace, key).unlink()
        except FileNotFoundError:
            return False
        return True

    # ------------------------------------------------------------ survey
    @staticmethod
    def _scan(directory: Path, prefix: str = "") -> list[StoreEntry]:
        if not directory.is_dir():
            return []
        found = []
        for path in sorted(directory.glob(f"{prefix}*.json")):
            namespace, _, key = path.name[: -len(".json")].rpartition(".")
            if not namespace or len(key) != 64:
                continue
            found.append(
                StoreEntry(namespace=namespace, key=key, path=path,
                           size_bytes=path.stat().st_size)
            )
        return found

    def entries(self, prefix: str = "") -> list[StoreEntry]:
        """Every entry on disk whose namespace starts with ``prefix``."""
        return self._scan(self.chunks_dir, prefix)

    def quarantined_entries(self) -> list[StoreEntry]:
        """What has been moved aside; all flagged corrupt."""
        return [
            dataclasses.replace(entry, corrupt=True)
            for entry in self._scan(self.quarantine_dir)
        ]

    def stats(self, code: str) -> StoreStats:
        """Counts per namespace, integrity, and liveness against ``code``."""
        entries = self.entries()
        by_namespace = Counter(entry.namespace for entry in entries)
        states = Counter()
        for entry in entries:
            state, problem = self._classify(entry.path, code)
            states["corrupt" if problem else state] += 1
        return StoreStats(
            entries=len(entries),
            total_bytes=sum(e.size_bytes for e in entries),
            by_namespace=dict(by_namespace),
            live=states["live"],
            stale=states["stale"],
            corrupt=states["corrupt"],
            quarantined=len(self.quarantined_entries()),
        )

    # ------------------------------------------------------------ hygiene
    def gc(self, code: str, dry_run: bool = False) -> list[StoreEntry]:
        """Quarantine corrupt entries, drop stale cache entries; returns what went.

        Corrupt entries are quarantined in any namespace, even under a
        live key.  Returned entries carry ``corrupt=True`` when they
        went to quarantine rather than the bin.  Journals (no ``code``)
        are never dropped here.
        """
        removed = []
        for entry in self.entries():
            state, problem = self._classify(entry.path, code)
            if problem is not None:
                if not dry_run:
                    self.quarantine(entry.path, problem)
                removed.append(dataclasses.replace(entry, corrupt=True))
            elif state == "stale":
                if not dry_run:
                    entry.path.unlink(missing_ok=True)
                removed.append(entry)
        if not dry_run:
            self._clear_tmp()
        return removed

    def _clear_tmp(self) -> None:
        if self.tmp_dir.is_dir():
            for leftover in self.tmp_dir.glob("*.tmp"):
                leftover.unlink(missing_ok=True)

    def clear(self) -> int:
        """Remove every entry (quarantine included); returns entries dropped."""
        entries = self.entries()
        for entry in entries + self.quarantined_entries():
            entry.path.unlink(missing_ok=True)
        self._clear_tmp()
        return len(entries)


def store_roots(root: str | Path) -> list[Path]:
    """The store at ``root`` and every tenant store under it."""
    root = Path(root)
    tenants = root / TENANTS_DIR
    if not tenants.is_dir():
        return [root]
    return [root, *sorted(path for path in tenants.iterdir() if path.is_dir())]


def collect_garbage(root: str | Path, dry_run: bool = False) -> list[StoreEntry]:
    """The one gc: :meth:`ChunkStore.gc` against the current source
    digest, over the root store and every tenant store under ``root``."""
    code = source_digest()
    return [
        entry
        for store_root in store_roots(root)
        for entry in ChunkStore(store_root).gc(code, dry_run=dry_run)
    ]


def survey(root: str | Path) -> StoreStats:
    """:meth:`ChunkStore.stats` summed over every store under ``root``;
    tenant namespaces read ``tenants/<tenant>/<namespace>``."""
    code, root = source_digest(), Path(root)
    parts = {store_root: ChunkStore(store_root).stats(code) for store_root in store_roots(root)}
    totals = {
        name: sum(getattr(stats, name) for stats in parts.values())
        for name in ("entries", "total_bytes", "live", "stale", "corrupt", "quarantined")
    }
    by_namespace = {
        f"{store_root.relative_to(root).as_posix()}/{namespace}".removeprefix("./"): count
        for store_root, stats in parts.items()
        for namespace, count in stats.by_namespace.items()
    }
    return StoreStats(by_namespace=by_namespace, **totals)


class ResultStore:
    """Digest-keyed experiment results: a typed face over a :class:`ChunkStore`.

    Each result is the chunk ``{"elapsed_s", "experiment"}`` under the
    namespace ``result-<exp_id>`` and the digest's key, so
    :func:`~repro.engine.plan.plan_suite` tells *stale* from *miss* by
    names alone.  ``fault_injector`` (normally None) is the hook the
    chaos harness uses to corrupt freshly written entries; see
    :mod:`repro.faults.inject`.
    """

    def __init__(self, root: str | Path = DEFAULT_STORE_ROOT) -> None:
        self.chunks = ChunkStore(root)
        self.root = self.chunks.root
        self.fault_injector = None

    @property
    def quarantine_log(self) -> list[tuple[str, str]]:
        return self.chunks.quarantine_log

    @staticmethod
    def namespace(exp_id: str) -> str:
        return f"{RESULT_NAMESPACE_PREFIX}{exp_id}"

    def entry_path(self, digest: ExperimentDigest) -> Path:
        return self.chunks.entry_path(self.namespace(digest.exp_id), digest.key)

    def contains(self, digest: ExperimentDigest) -> bool:
        return self.chunks.contains(self.namespace(digest.exp_id), digest.key)

    def get(self, digest: ExperimentDigest) -> CachedResult | None:
        """The cached result for a digest, or None (missing or corrupt)."""
        chunk = self.chunks.get(self.namespace(digest.exp_id), digest.key)
        if chunk is None:
            return None
        try:
            return CachedResult(
                exp_id=digest.exp_id,
                key=digest.key,
                experiment=experiment_from_dict(chunk["experiment"]),
                elapsed_s=float(chunk.get("elapsed_s", 0.0)),
            )
        except (ValueError, KeyError, TypeError):
            self.chunks.quarantine(self.entry_path(digest), "payload does not deserialize")
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
        chunk = {"elapsed_s": elapsed_s, "experiment": experiment_to_dict(experiment)}
        final = self.chunks.put(
            self.namespace(digest.exp_id), digest.key, chunk, code=digest.code
        )
        if self.fault_injector is not None:
            from repro.faults.inject import corrupt_file, fault_point

            action = fault_point("store_entry", self.fault_injector, digest.exp_id)
            if action is not None:
                corrupt_file(final)
        return final

    def entries(self) -> list[ExperimentDigest]:
        """The address of every stored result, without reading any."""
        return [
            ExperimentDigest(entry.namespace[len(RESULT_NAMESPACE_PREFIX):], entry.key)
            for entry in self.chunks.entries(RESULT_NAMESPACE_PREFIX)
        ]
