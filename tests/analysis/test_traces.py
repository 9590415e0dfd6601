"""Tests for the trace-analyzer registry and suite integration."""

import pytest

from repro.analysis import traces
from repro.analysis.traces import (
    EXPERIMENT_TRACE_IDS,
    MAX_FINDINGS_PER_RULE,
    TRACE_BUILDERS,
    analyze_benchmark,
    analyze_trace,
    build_registered_trace,
)
from repro.machine.operations import Trace, VectorOp
from repro.machine.presets import sun_sparc20, sx4_processor
from repro.suite.experiments import EXPERIMENTS
from repro.suite.runner import vectorization_lines


@pytest.fixture(scope="module")
def sx4():
    return sx4_processor()


class TestRegistry:
    @pytest.mark.parametrize("trace_id", sorted(TRACE_BUILDERS))
    def test_every_id_builds_and_analyzes(self, trace_id, sx4):
        trace = build_registered_trace(trace_id)
        assert isinstance(trace, Trace)
        assert len(trace) > 0
        report = analyze_benchmark(trace_id, sx4)
        assert report.subject == trace.name

    def test_unknown_id_is_a_key_error(self):
        with pytest.raises(KeyError, match="unknown benchmark id"):
            build_registered_trace("no-such-benchmark")

    def test_descriptions_are_non_empty(self):
        for trace_id, (description, _) in TRACE_BUILDERS.items():
            assert description.strip(), trace_id


class TestRadabsContrast:
    """The PR's acceptance criterion: Section 4.4 before/after, as lint."""

    def test_vectorized_radabs_is_clean(self, sx4):
        assert analyze_benchmark("radabs", sx4).clean

    def test_scalar_radabs_is_diagnosed(self, sx4):
        report = analyze_benchmark("radabs-scalar", sx4)
        rules = {d.rule_id for d in report}
        assert "VEC004" in rules  # scalar-dominated: the paper's rule broken
        assert "VEC001" in rules  # short inner loops
        worst = max(d.predicted_impact or 0.0 for d in report)
        assert worst > 2.0  # the rewrite bought a multiple, not a percent


class TestAggregation:
    def test_rule_floods_collapse_to_one_finding(self, sx4):
        ops = [
            VectorOp(f"short {i}", length=16, flops_per_element=2.0,
                     loads_per_element=1.0)
            for i in range(MAX_FINDINGS_PER_RULE + 2)
        ]
        report = analyze_trace(Trace(ops, name="flood"), sx4)
        vec001 = report.by_rule("VEC001")
        assert len(vec001) == 1
        assert f"[{len(ops)} ops" in vec001[0].message
        assert vec001[0].location == f"ops[0..{len(ops) - 1}]"

    def test_few_findings_stay_individual(self, sx4):
        ops = [
            VectorOp(f"short {i}", length=16, flops_per_element=2.0,
                     loads_per_element=1.0)
            for i in range(MAX_FINDINGS_PER_RULE)
        ]
        report = analyze_trace(Trace(ops, name="sparse"), sx4)
        assert len(report.by_rule("VEC001")) == MAX_FINDINGS_PER_RULE


def test_analysis_requires_a_vector_machine():
    trace = Trace([VectorOp("v", length=1024, flops_per_element=1.0)])
    with pytest.raises(ValueError, match="vector machine"):
        analyze_trace(trace, sun_sparc20())


class TestSuiteIntegration:
    def test_experiment_ids_exist_in_the_suite(self):
        assert set(EXPERIMENT_TRACE_IDS) <= set(EXPERIMENTS)

    def test_experiment_traces_exist_in_the_registry(self):
        for exp_id, trace_ids in EXPERIMENT_TRACE_IDS.items():
            assert set(trace_ids) <= set(TRACE_BUILDERS), exp_id

    def test_sec44_summarises_both_coding_styles(self):
        scalar, vector = vectorization_lines("sec4.4")
        assert scalar.startswith("vectorization: radabs-scalar: VEC")
        assert vector == "vectorization: radabs: clean"

    def test_traceless_experiment_has_no_summaries(self):
        assert vectorization_lines("sec2") == []

    def test_each_trace_is_analyzed_once_per_process(self, monkeypatch):
        built = []
        real = traces.build_registered_trace
        monkeypatch.setattr(
            traces, "build_registered_trace", lambda t: built.append(t) or real(t)
        )
        traces.trace_summary_line.cache_clear()
        for exp_id in ("sec3", "table2", "table4", "figure8"):
            vectorization_lines(exp_id)
        assert sorted(built) == ["ccm2", "linpack", "nas-ep", "stream"]
