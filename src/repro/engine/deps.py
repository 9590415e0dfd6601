"""Content-addressed experiment digests keyed on one package source digest.

The cache key for an experiment must change whenever its result could:
the engine never *runs* anything to decide staleness.  So the key is a
digest over

1. the experiment id,
2. the *source digest*: a sha256 over the sorted
   ``(module name, sha256(source))`` pairs of every ``.py`` file in the
   ``repro`` package — the machine presets and their clock periods
   included, since they live in :mod:`repro.machine.presets`, and
3. a digest schema version (folded into the source digest), so a change
   to the keying scheme itself invalidates every prior entry.

The source digest is deliberately coarse: any edit anywhere in the
package re-keys every experiment and every explore grid chunk (which
fold the same value into their own keys, see
:func:`repro.explore.engine.grid_chunk_key`).  The whole suite
recomputes in a fraction of a second, so tracing which experiment
imports which module would cost more than the recomputation it could
save.  The digest is computed lazily on first use and read from disk
once per process.
"""

from __future__ import annotations

import ast
import hashlib
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import repro
from repro.suite import EXPERIMENT_IDS, unknown_experiment_ids

__all__ = [
    "DIGEST_SCHEMA",
    "EXPERIMENTS_MODULE",
    "SERVICE_RESOLVE_MODULE",
    "ExperimentDigest",
    "builder_entry_points",
    "package_root",
    "module_path",
    "dependency_closure",
    "source_digest",
    "experiment_digest",
    "suite_digests",
]

#: Bump when the keying scheme changes: old cache entries become stale.
DIGEST_SCHEMA = 3

#: The module whose builder functions define the suite.
EXPERIMENTS_MODULE = "repro.suite.experiments"

#: The service's request-resolution registry; its resolvers join the
#: builder entry points so the effect analyzer holds the HTTP surface
#: to the same determinism contract as the experiment builders.
SERVICE_RESOLVE_MODULE = "repro.service.resolve"

_PACKAGE = "repro"


def package_root() -> Path:
    """Directory holding the installed ``repro`` package sources."""
    return Path(repro.__file__).resolve().parent


def module_path(dotted: str) -> Path | None:
    """File for a dotted ``repro.*`` module name, or None if no such module."""
    if dotted != _PACKAGE and not dotted.startswith(_PACKAGE + "."):
        return None
    parts = dotted.split(".")[1:]
    base = package_root().joinpath(*parts) if parts else package_root()
    if base.with_suffix(".py").is_file():
        return base.with_suffix(".py")
    init = base / "__init__.py"
    if init.is_file():
        return init
    return None


def dependency_closure(seeds: Iterable[str]) -> dict[str, Path]:
    """Module name -> source file for every module of the seed packages.

    A seed naming a package covers every ``.py`` file beneath its
    directory; a seed naming a plain module covers that file alone.
    Files are enumerated in sorted order, so the mapping never depends
    on the filesystem's.
    """
    root = package_root()
    closure: dict[str, Path] = {}
    for seed in seeds:
        path = module_path(seed)
        if path is None:
            continue
        files = sorted(path.parent.rglob("*.py")) if path.name == "__init__.py" else [path]
        for file in files:
            parts = file.relative_to(root).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            closure[".".join((_PACKAGE, *parts))] = file
    return closure


@lru_cache(maxsize=1)
def _source_hashes() -> tuple[tuple[str, bytes], ...]:
    """``(module, sha256(source))`` for every package module, sorted by name.

    Memoised: the package is read from disk at most once per process.
    """
    files = dependency_closure((_PACKAGE,))
    return tuple(
        (name, hashlib.sha256(files[name].read_bytes()).digest()) for name in sorted(files)
    )


def source_digest(sources: Mapping[str, bytes] | None = None) -> str:
    """Digest over the source of every module in the ``repro`` package.

    The one code fingerprint both caches fold into their keys: the
    :class:`~repro.engine.store.ResultStore` (through
    :func:`experiment_digest`) and the explore
    :class:`~repro.engine.store.ChunkStore`.  ``sources`` overrides the
    on-disk bytes per module name — the seam tests use to ask what an
    edit would re-key without touching the tree.
    """
    hashes = dict(_source_hashes())
    for name, blob in (sources or {}).items():
        hashes[name] = hashlib.sha256(blob).digest()
    hasher = hashlib.sha256(f"schema={DIGEST_SCHEMA}\x00".encode())
    for name in sorted(hashes):
        hasher.update(f"{name}\x00".encode() + hashes[name] + b"\x00")
    return hasher.hexdigest()


@lru_cache(maxsize=None)
def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def builder_entry_points() -> tuple[tuple[str, str, str], ...]:
    """``(exp_id, module, function)`` for every registered builder.

    Enumerated *statically* from the ``EXPERIMENTS`` dict literal in the
    experiments module — no builder runs, mirroring how the rest of this
    module treats staleness.  This is the contract surface the effect
    analyzer (:mod:`repro.analysis.effects`) checks: each entry point
    must be transitively deterministic (DET001–DET004) and, because the
    executor dispatches these same functions into pool workers, free of
    module-global mutation (DET005).
    """
    entries = list(_registry_entry_points(EXPERIMENTS_MODULE, "EXPERIMENTS"))
    entries.extend(
        (f"service:{kind}", module, func)
        for kind, module, func in _registry_entry_points(
            SERVICE_RESOLVE_MODULE, "JOB_RESOLVERS"
        )
    )
    return tuple(entries)


def _registry_entry_points(
    module: str, registry: str
) -> tuple[tuple[str, str, str], ...]:
    """Statically enumerate a module-level ``{str: function}`` dict literal.

    Returns ``(key, module, function)`` for every entry whose key is a
    string constant and whose value names a top-level function of the
    module.  An absent module yields no entries — the engine must keep
    working in trees that ship without the optional registries.
    """
    path = module_path(module)
    if path is None:
        return ()
    tree = _parse(path)
    functions = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    entries: list[tuple[str, str, str]] = []
    for node in tree.body:
        value: ast.expr | None = None
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == registry for t in node.targets
        ):
            value = node.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == registry
        ):
            value = node.value
        if not isinstance(value, ast.Dict):
            continue
        for key, builder in zip(value.keys, value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(builder, ast.Name)
                and builder.id in functions
            ):
                entries.append((key.value, module, builder.id))
    return tuple(entries)


@dataclass(frozen=True)
class ExperimentDigest:
    """The content-addressed identity of one experiment's result."""

    exp_id: str
    key: str  # sha256 hex over id + source digest
    #: The source digest ``key`` was derived from, kept for the store's gc.
    code: str | None = field(default=None, compare=False, repr=False)


def experiment_digest(
    exp_id: str, sources: Mapping[str, bytes] | None = None
) -> ExperimentDigest:
    """Digest for one registered experiment (``KeyError`` if unknown).

    ``sources`` flows through to :func:`source_digest`.
    """
    if unknown_experiment_ids([exp_id]):
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENT_IDS)}"
        )
    code = source_digest(sources)
    hasher = hashlib.sha256()
    hasher.update(f"exp_id={exp_id}\x00".encode())
    hasher.update(f"code={code}\x00".encode())
    return ExperimentDigest(exp_id=exp_id, key=hasher.hexdigest(), code=code)


def suite_digests(
    exp_ids: Iterable[str] | None = None,
    sources: Mapping[str, bytes] | None = None,
) -> dict[str, ExperimentDigest]:
    """Digests for the requested experiments (default: all, paper order)."""
    ids = list(EXPERIMENT_IDS) if exp_ids is None else list(exp_ids)
    return {exp_id: experiment_digest(exp_id, sources) for exp_id in ids}
