"""The NCAR Benchmark Suite harness: experiments, rendering, runner.

``experiments``
    One function per paper table/figure (and per untabulated headline
    result), each returning an :class:`~repro.suite.results.Experiment`
    carrying the regenerated rows/series, the paper's reference values
    where the text gives them, and the shape checks that define a
    successful reproduction.
``tables`` / ``figures``
    ASCII rendering of tables and line charts (plus CSV export) — the
    harness prints "the same rows/series the paper reports".
``runner``
    ``run_suite()`` executes every experiment and produces a summary
    report; ``python -m repro.suite.runner`` is the command-line entry.

Only the leaf modules are imported here.  ``experiments`` pulls in
numpy, every kernel and every application, so it is imported only when
a builder actually runs: a run answered from the result store names
its experiments through :data:`EXPERIMENT_IDS` instead.
"""

from repro.suite.results import Experiment, ShapeCheck
from repro.suite.tables import render_table
from repro.suite.figures import render_ascii_chart, series_to_csv

__all__ = [
    "EXPERIMENT_IDS",
    "Experiment",
    "ShapeCheck",
    "render_table",
    "render_ascii_chart",
    "series_to_csv",
    "unknown_experiment_ids",
]

#: Every experiment id in paper order: the keys of
#: :data:`repro.suite.experiments.EXPERIMENTS`, written out so that
#: naming an experiment imports no builder (a test pins the two equal).
EXPERIMENT_IDS = (
    "sec2",
    "sec3",
    "table1",
    "table2",
    "sec4.1",
    "figure5",
    "figure6",
    "figure7",
    "table3",
    "sec4.4",
    "sec4.5",
    "sec4.6",
    "table4",
    "figure8",
    "table5",
    "table6",
    "table7",
    "sec4.7.3",
)


def unknown_experiment_ids(exp_ids) -> list[str]:
    """The ids among ``exp_ids`` that name no registered builder.

    An id outside :data:`EXPERIMENT_IDS` is looked up in the builder
    registry itself — only on this error path is it imported.
    """
    unlisted = [exp_id for exp_id in exp_ids if exp_id not in EXPERIMENT_IDS]
    if not unlisted:
        return []
    from repro.suite.experiments import EXPERIMENTS

    return [exp_id for exp_id in unlisted if exp_id not in EXPERIMENTS]
