"""Tests for the chaos harness and the faults CLI."""

import json

from repro.faults.chaos import QUICK_EXPERIMENTS, run_chaos
from repro.faults.cli import main
from repro.suite.experiments import EXPERIMENTS

#: A deliberately tiny subset so the harness runs in test time; the CI
#: chaos-smoke job runs the real --quick subset.
TINY_IDS = ("table1", "table2")


class TestRunChaos:
    def test_passes_and_is_deterministic(self, tmp_path):
        """One seeded run holds every invariant, and a second run with
        the same seed produces a byte-identical report (the acceptance
        criterion CI diffs)."""
        first = run_chaos(seed=1996, quick=True, exp_ids=TINY_IDS,
                          workdir=tmp_path / "a")
        assert first.passed, first.summary()
        check_names = {check.name for check in first.checks}
        assert {
            "clean_run_succeeds",
            "every_job_completes_within_retry_budget",
            "chaos_archives_byte_identical",
            "fault_counters_match_injector",
            "attempts_match_plan",
            "corrupt_entries_quarantined",
            "corrupt_entries_recomputed",
            "recovered_archives_byte_identical",
            "degraded_costing_parity_bit_exact",
            "recovery_bit_identical_ccm2",
            "ccm2_mass_conserved",
            "nqs_requeued_jobs_all_finish",
            "service_deadline_expires_before_start",
            "service_watchdog_requeues_wedged_job",
            "service_stale_epoch_write_fenced",
            "service_worker_fault_supervised",
            "service_drain_checkpoints_and_journals",
            "service_drain_rejects_with_retry_after",
            "service_restart_resumes_checkpointed_job",
            "service_archives_byte_identical",
        } <= check_names
        second = run_chaos(seed=1996, quick=True, exp_ids=TINY_IDS,
                           workdir=tmp_path / "b")
        as_json = lambda r: json.dumps(r.to_dict(), sort_keys=True)  # noqa: E731
        assert as_json(first) == as_json(second)

    def test_quick_subset_ids_are_real(self):
        assert set(QUICK_EXPERIMENTS) <= set(EXPERIMENTS)

    def test_report_carries_no_wall_clock(self, tmp_path):
        report = run_chaos(seed=3, quick=True, exp_ids=("table1",),
                           workdir=tmp_path)
        payload = json.dumps(report.to_dict())
        assert "elapsed" not in payload
        assert "wall_s" not in payload


class TestFaultsCli:
    def test_plan_subcommand_prints_actions(self, capsys):
        assert main(["plan", "--seed", "7", "--ids", "table1", "table2"]) == 0
        out = capsys.readouterr().out
        assert "fault plan (seed 7)" in out

    def test_plan_json_round_trips(self, capsys):
        assert main(["plan", "--seed", "7", "--ids", "table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 7
        assert isinstance(payload["actions"], list)

    def test_unknown_ids_exit_2(self, capsys):
        assert main(["plan", "--seed", "1", "--ids", "nonsense"]) == 2
        assert main(["chaos", "--seed", "1", "--ids", "nonsense"]) == 2
