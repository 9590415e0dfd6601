"""Tests for the whole-program effect analyzer (DET rule family)."""

import json
import textwrap

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.effects import (
    Effect,
    EffectContract,
    analyze_and_check,
    analyze_tree,
    check_contracts,
    default_contract,
    effect_chain,
    load_baseline,
    sarif_report,
    write_baseline,
)


def write_tree(root, files):
    """Materialize ``{relative path: source}`` under ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def make_pkg(tmp_path, files):
    pkg = tmp_path / "pkg"
    base = {"__init__.py": "", "helpers/__init__.py": ""}
    write_tree(pkg, {**base, **files})
    return pkg


#: The acceptance-criteria fixture: a registered builder whose clock
#: read hides two calls deep inside a helper module.
CLOCK_DEEP = {
    "helpers/timing.py": """
        import time


        def now():
            return time.perf_counter()
    """,
    "helpers/mid.py": """
        from pkg.helpers import timing


        def stamp():
            return timing.now()
    """,
    "builders.py": """
        from pkg.helpers import mid


        def build_a():
            return {"t": mid.stamp()}


        EXPERIMENTS = {"a": build_a}
    """,
}


def rule_ids(report):
    return [f.diagnostic.rule_id for f in report.findings]


class TestAcceptanceFixture:
    def test_clock_two_calls_deep_is_det001(self, tmp_path):
        pkg = make_pkg(tmp_path, CLOCK_DEEP)
        report = analyze_and_check(pkg)
        assert rule_ids(report) == ["DET001"]
        message = report.findings[0].diagnostic.message
        assert "pkg.builders.build_a" in message
        assert "pkg.helpers.mid.stamp" in message
        assert "pkg.helpers.timing.now" in message
        assert "time.perf_counter()" in message
        assert report.exit_code() == 2

    def test_chain_is_reconstructible(self, tmp_path):
        pkg = make_pkg(tmp_path, CLOCK_DEEP)
        program = analyze_tree(pkg)
        chain = effect_chain(program, "pkg.builders.build_a", Effect.READS_CLOCK)
        assert chain == [
            "pkg.builders.build_a",
            "pkg.helpers.mid.stamp",
            "pkg.helpers.timing.now",
        ]

    def test_pure_builder_is_clean(self, tmp_path):
        pkg = make_pkg(
            tmp_path,
            {
                "builders.py": """
                    def build_a():
                        return sum(range(10))


                    EXPERIMENTS = {"a": build_a}
                """,
            },
        )
        report = analyze_and_check(pkg)
        assert report.findings == []
        assert report.exit_code() == 0


class TestDeterminismRules:
    def _check(self, tmp_path, builder_body, helper=None):
        files = {
            "builders.py": textwrap.dedent(
                """
                from pkg.helpers import work


                def build_a():
                    return work.go()


                EXPERIMENTS = {"a": build_a}
                """
            ),
            "helpers/work.py": helper or builder_body,
        }
        return analyze_and_check(make_pkg(tmp_path, files))

    def test_entropy_from_import_is_det002(self, tmp_path):
        report = self._check(
            tmp_path,
            """
            from random import random


            def go():
                return random()
            """,
        )
        assert rule_ids(report) == ["DET002"]

    def test_unseeded_rng_factory_is_det002(self, tmp_path):
        report = self._check(
            tmp_path,
            """
            import random


            def go():
                rng = random.Random()
                return rng.random()
            """,
        )
        assert rule_ids(report) == ["DET002"]

    def test_seeded_rng_factory_is_clean(self, tmp_path):
        report = self._check(
            tmp_path,
            """
            import random


            def go():
                rng = random.Random(1234)
                return rng.random()
            """,
        )
        assert "DET002" not in rule_ids(report)

    def test_environment_read_is_det003(self, tmp_path):
        report = self._check(
            tmp_path,
            """
            import os


            def go():
                return os.environ.get("HOME", "")
            """,
        )
        assert rule_ids(report) == ["DET003"]

    def test_unsorted_listdir_is_det004(self, tmp_path):
        report = self._check(
            tmp_path,
            """
            import os


            def go():
                return [name for name in os.listdir(".")]
            """,
        )
        assert rule_ids(report) == ["DET004"]

    def test_sorted_listdir_is_clean(self, tmp_path):
        report = self._check(
            tmp_path,
            """
            import os


            def go():
                return sorted(os.listdir("."))
            """,
        )
        assert "DET004" not in rule_ids(report)

    def test_worker_global_mutation_is_det005(self, tmp_path):
        report = self._check(
            tmp_path,
            """
            SEEN = []


            def go():
                SEEN.append(1)
                return len(SEEN)
            """,
        )
        assert "DET005" in rule_ids(report)

    def test_local_shadows_module_name(self, tmp_path):
        # A function-local ``SEEN`` is not the module-level one: Python
        # scoping, not name matching, decides what is a global mutation.
        report = self._check(
            tmp_path,
            """
            SEEN = []


            def go():
                SEEN = []
                SEEN.append(1)
                return len(SEEN)
            """,
        )
        assert "DET005" not in rule_ids(report)

    def test_global_declared_rebind_is_det005(self, tmp_path):
        report = self._check(
            tmp_path,
            """
            COUNT = 0


            def go():
                global COUNT
                COUNT = COUNT + 1
                return COUNT
            """,
        )
        assert "DET005" in rule_ids(report)

    def test_digest_over_unsorted_dir_is_det006(self, tmp_path):
        pkg = make_pkg(
            tmp_path,
            {
                "keys.py": """
                    import hashlib
                    import os


                    def tree_key(path):
                        h = hashlib.sha256()
                        for name in os.listdir(path):
                            h.update(name.encode())
                        return h.hexdigest()
                """,
            },
        )
        report = analyze_and_check(pkg)
        assert "DET006" in rule_ids(report)

    def test_digest_over_sorted_dir_is_clean(self, tmp_path):
        pkg = make_pkg(
            tmp_path,
            {
                "keys.py": """
                    import hashlib
                    import os


                    def tree_key(path):
                        h = hashlib.sha256()
                        for name in sorted(os.listdir(path)):
                            h.update(name.encode())
                        return h.hexdigest()
                """,
            },
        )
        report = analyze_and_check(pkg)
        assert "DET006" not in rule_ids(report)

    def test_parse_failure_is_det000_error(self, tmp_path):
        pkg = make_pkg(tmp_path, {"broken.py": "def oops(:\n"})
        report = analyze_and_check(pkg)
        assert rule_ids(report) == ["DET000"]
        assert report.exit_code() == 2


class TestExemptions:
    def test_sink_line_skip_pragma_suppresses(self, tmp_path):
        files = dict(CLOCK_DEEP)
        files["helpers/timing.py"] = """
            import time


            def now():
                return time.perf_counter()  # repolint: skip
        """
        report = analyze_and_check(make_pkg(tmp_path, files))
        assert report.findings == []

    def test_module_exempt_pragma_suppresses_only_that_rule(self, tmp_path):
        files = dict(CLOCK_DEEP)
        files["helpers/timing.py"] = """
            # repolint: exempt=DET001 -- wall-clock stamps are advisory here
            import os
            import time


            def now():
                return time.perf_counter()


            def whoami():
                return os.environ["USER"]
        """
        files["builders.py"] = """
            from pkg.helpers import mid, timing


            def build_a():
                return {"t": mid.stamp(), "u": timing.whoami()}


            EXPERIMENTS = {"a": build_a}
        """
        report = analyze_and_check(make_pkg(tmp_path, files))
        assert rule_ids(report) == ["DET003"]  # DET001 exempted, DET003 not


class TestBaseline:
    def test_baseline_suppresses_known_findings(self, tmp_path):
        pkg = make_pkg(tmp_path, CLOCK_DEEP)
        first = analyze_and_check(pkg)
        assert first.exit_code() == 2
        baseline_path = tmp_path / "baseline.json"
        assert write_baseline(baseline_path, first) == 1
        baseline = load_baseline(baseline_path)
        second = analyze_and_check(pkg, baseline=baseline)
        assert second.findings == []
        assert second.suppressed == 1
        assert second.exit_code() == 0

    def test_stale_entry_is_det000_warning(self, tmp_path):
        pkg = make_pkg(
            tmp_path,
            {"builders.py": "def build_a():\n    return 1\n\n\nEXPERIMENTS = {'a': build_a}\n"},
        )
        report = analyze_and_check(pkg, baseline={"DET001 gone.function detail"})
        assert rule_ids(report) == ["DET000"]
        assert report.findings[0].diagnostic.severity is Severity.WARNING
        assert report.stale_baseline == ["DET001 gone.function detail"]
        assert report.exit_code() == 1

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.json") == set()

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99, "findings": []}', encoding="utf-8")
        with pytest.raises(ValueError, match="schema"):
            load_baseline(path)

    def test_fingerprints_stable_across_line_shifts(self, tmp_path):
        pkg = make_pkg(tmp_path, CLOCK_DEEP)
        first = analyze_and_check(pkg)
        shifted = dict(CLOCK_DEEP)
        shifted["helpers/timing.py"] = "# a new leading comment\n" + textwrap.dedent(
            CLOCK_DEEP["helpers/timing.py"]
        )
        pkg2 = make_pkg(tmp_path / "two", shifted)
        second = analyze_and_check(pkg2)
        assert first.findings[0].fingerprint == second.findings[0].fingerprint


class TestContracts:
    def test_default_contract_discovers_registry(self, tmp_path):
        pkg = make_pkg(tmp_path, CLOCK_DEEP)
        program = analyze_tree(pkg)
        contract = default_contract(program)
        assert "pkg.builders.build_a" in contract.deterministic_roots
        assert "pkg.builders.build_a" in contract.worker_roots

    def test_explicit_contract_overrides_discovery(self, tmp_path):
        pkg = make_pkg(tmp_path, CLOCK_DEEP)
        program = analyze_tree(pkg)
        report = check_contracts(
            program, contract=EffectContract(deterministic_roots=(), worker_roots=())
        )
        assert report.findings == []

    def test_effects_do_not_leak_between_siblings(self, tmp_path):
        pkg = make_pkg(
            tmp_path,
            {
                **CLOCK_DEEP,
                "builders.py": """
                    from pkg.helpers import mid


                    def build_a():
                        return {"t": mid.stamp()}


                    def build_b():
                        return 42


                    EXPERIMENTS = {"a": build_a, "b": build_b}
                """,
            },
        )
        program = analyze_tree(pkg)
        assert Effect.READS_CLOCK in program.effects_of("pkg.builders.build_a")
        assert program.effects_of("pkg.builders.build_b") == set()


class TestRepoTree:
    def test_head_tree_has_no_unbaselined_det_errors(self):
        # The ISSUE acceptance criterion: the real tree analyzes clean
        # against the checked-in baseline.
        from repro.analysis.repolint import repo_root

        root = repo_root()
        baseline = load_baseline(root / ".repro-effects-baseline.json")
        report = analyze_and_check(root / "src" / "repro", baseline=baseline)
        assert report.errors == [], [str(f.diagnostic) for f in report.errors]

    def test_builder_entry_points_are_in_default_contract(self):
        from repro.analysis.repolint import repo_root
        from repro.engine.deps import builder_entry_points

        program = analyze_tree(repo_root() / "src" / "repro")
        contract = default_contract(program)
        for _exp_id, module, func in builder_entry_points():
            assert f"{module}.{func}" in contract.deterministic_roots
            assert f"{module}.{func}" in contract.worker_roots

    def test_worker_entry_is_a_worker_root(self):
        from repro.analysis.repolint import repo_root

        program = analyze_tree(repo_root() / "src" / "repro")
        contract = default_contract(program)
        assert "repro.engine.executor._execute_job" in contract.worker_roots

    def test_both_cache_keys_are_deterministic_roots(self):
        from repro.analysis.repolint import repo_root

        program = analyze_tree(repo_root() / "src" / "repro")
        roots = default_contract(program).deterministic_roots
        assert "repro.engine.deps.experiment_digest" in roots
        assert "repro.explore.engine.grid_chunk_key" in roots


class TestSarif:
    def test_sarif_shape_and_rules(self, tmp_path):
        pkg = make_pkg(tmp_path, CLOCK_DEEP)
        report = analyze_and_check(pkg)
        payload = sarif_report(report)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        results = run["results"]
        assert len(results) == 1
        assert results[0]["ruleId"] == "DET001"
        assert results[0]["level"] == "error"
        declared = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert "DET001" in declared
