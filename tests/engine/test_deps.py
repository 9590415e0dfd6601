"""Tests for the package source digest and content-addressed digests."""

import os
import subprocess
import sys

import pytest

from repro.engine import deps
from repro.engine.deps import (
    EXPERIMENTS_MODULE,
    dependency_closure,
    experiment_digest,
    module_path,
    package_root,
    source_digest,
    suite_digests,
)
from repro.engine.store import ChunkStore
from repro.explore.engine import cost_suite_grid, grid_chunk_key
from repro.machine.grid import MachineGrid
from repro.machine.presets import canonical_machines
from repro.suite.experiments import EXPERIMENTS


@pytest.fixture(scope="module")
def grid():
    return MachineGrid.from_processors(list(canonical_machines().values()))


class TestModuleResolution:
    def test_module_and_package(self):
        assert module_path("repro.units").name == "units.py"
        assert module_path("repro.kernels").name == "__init__.py"

    def test_non_repro_names(self):
        assert module_path("numpy") is None
        assert module_path("os.path") is None
        assert module_path("repro.no_such_module") is None


class TestClosure:
    def test_seeds_and_their_imports_included(self):
        closure = dependency_closure(["repro"])
        assert "repro.kernels.rfft" in closure
        # rfft builds on the shared FFTPACK core and the machine model.
        assert "repro.kernels.fftpack" in closure
        assert "repro.machine.processor" in closure

    def test_package_seed_covers_every_source_file(self):
        closure = dependency_closure(["repro"])
        assert sorted(closure.values()) == sorted(package_root().rglob("*.py"))
        assert closure["repro"] == module_path("repro")
        assert closure["repro.kernels"] == module_path("repro.kernels")

    def test_module_seed_covers_only_itself(self):
        assert dependency_closure(["repro.units", "numpy"]) == {
            "repro.units": module_path("repro.units")
        }


class TestExperimentDependencies:
    def test_experiments_module_always_included(self):
        edit = {EXPERIMENTS_MODULE: b"# edited"}
        for exp_id in ("table1", "sec4.6", "figure8"):
            assert (
                experiment_digest(exp_id, sources=edit).key
                != experiment_digest(exp_id).key
            )

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            experiment_digest("nonsense")


class TestDigests:
    def test_digest_is_stable(self):
        assert experiment_digest("table1") == experiment_digest("table1")

    def test_digest_covers_experiment_id(self):
        assert experiment_digest("table1").key != experiment_digest("table2").key

    @pytest.mark.parametrize(
        "module",
        [
            "repro.kernels.rfft",
            "repro.machine.processor",
            "repro.kernels",
            EXPERIMENTS_MODULE,
            "repro.service.app",
        ],
    )
    def test_source_edit_rekeys_everything(self, module, grid, tmp_path,
                                           monkeypatch, fresh_digest):
        # Whatever the edit, both stores re-key: every experiment digest
        # and the explore chunk key fold in the same source digest.
        closure = dependency_closure(["repro"])
        assert module in closure
        blob = closure[module].read_bytes() + b"\n# edited\n"
        before = suite_digests()
        chunk_before = grid_chunk_key(grid, ("hint",), 1.0)
        edited = tmp_path / "edited.py"
        edited.write_bytes(blob)
        monkeypatch.setattr(
            deps, "dependency_closure", lambda seeds: {**closure, module: edited}
        )
        deps._source_hashes.cache_clear()
        after = suite_digests()
        for exp_id, digest in after.items():
            assert digest.key != before[exp_id].key
        assert grid_chunk_key(grid, ("hint",), 1.0) != chunk_before
        # The ``sources=`` seam sees the same edit the same way.
        monkeypatch.undo()
        deps._source_hashes.cache_clear()
        assert suite_digests(sources={module: blob}) == after

    def test_kernel_edit_rekeys_every_experiment(self):
        # An experiment that never imports the kernel re-keys too.
        edit = {"repro.kernels.rfft": b"# edited"}
        for exp_id, digest in suite_digests(sources=edit).items():
            assert digest.key != experiment_digest(exp_id).key

    def test_experiments_module_edit_changes_everything(self):
        edit = {EXPERIMENTS_MODULE: b"# edited"}
        for exp_id, digest in suite_digests(sources=edit).items():
            assert digest.key != experiment_digest(exp_id).key

    def test_suite_digests_cover_registry(self):
        digests = suite_digests()
        assert set(digests) == set(EXPERIMENTS)
        assert len({d.key for d in digests.values()}) == len(digests)

    def test_preset_clock_edit_changes_everything(self):
        # The clock constants live in repro.machine.presets, so the source
        # digest alone keys the machine configuration.
        edit = {"repro.machine.presets": b"BENCHMARK_CLOCK_NS = 8.0\n"}
        for exp_id, digest in suite_digests(sources=edit).items():
            assert digest.key != experiment_digest(exp_id).key

    def test_source_digest_is_stable_hex(self):
        assert source_digest() == source_digest()
        assert len(source_digest()) == 64
        assert source_digest({"repro.units": b"# edited"}) != source_digest()


class TestOncePerProcess:
    def test_package_read_once_for_both_stores(self, grid, tmp_path, monkeypatch,
                                               fresh_digest):
        calls = []
        real = deps.dependency_closure

        def counting(seeds):
            calls.append(tuple(seeds))
            return real(seeds)

        monkeypatch.setattr(deps, "dependency_closure", counting)
        suite_digests()
        suite_digests()
        store = ChunkStore(root=tmp_path)
        for _ in range(2):
            cost_suite_grid(grid, trace_ids=("hint",), store=store, chunk_machines=2)
        assert len(calls) <= 1

    def test_import_reads_no_sources(self):
        # Plain runs never key a cache: importing the suite, engine and
        # explore packages must not hash the package.
        code = (
            "import repro.suite, repro.engine, repro.explore\n"
            "from repro.engine import deps\n"
            "print(deps._source_hashes.cache_info().misses, "
            "deps._parse.cache_info().misses)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(package_root().parent)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        assert out.stdout.split() == ["0", "0"]


class TestBuilderEntryPoints:
    def test_covers_every_registered_experiment(self):
        from repro.engine.deps import builder_entry_points

        ids = {exp_id for exp_id, _, _ in builder_entry_points()}
        assert set(EXPERIMENTS) <= ids

    def test_service_resolvers_are_entry_points(self):
        # The service's request-resolution path is held to the same
        # determinism contract as the experiment builders (DET001-006).
        from repro.engine.deps import SERVICE_RESOLVE_MODULE, builder_entry_points

        service = {
            (exp_id, func)
            for exp_id, module, func in builder_entry_points()
            if module == SERVICE_RESOLVE_MODULE
        }
        assert service == {
            ("service:suite", "resolve_suite"),
            ("service:sweep", "resolve_sweep"),
        }

    def test_entries_name_real_functions(self):
        import importlib

        from repro.engine.deps import builder_entry_points

        for _exp_id, module, func in builder_entry_points():
            assert callable(getattr(importlib.import_module(module), func))
