"""Experiment harness.

One runner per table/figure of the paper's evaluation (see DESIGN.md's
experiment index), a scheme factory shared by all of them
(:mod:`repro.scenario.schemes`), a parallel cell-execution engine
(:mod:`repro.harness.runner`) every simulation campaign goes through —
one :class:`~repro.scenario.config.ScenarioConfig` per cell — and a CLI
(``killi-experiment``) that prints the regenerated rows/series next to
the paper's numbers recorded in EXPERIMENTS.md, plus
``killi-experiment scenario run|validate|list`` for committed scenario
files.
"""

from repro.harness.experiments import (
    EXPERIMENTS,
    fig1_cell_pfail,
    fig2_line_distribution,
    fig4_fig5_performance,
    fig6_coverage,
    run_experiment,
    table4_strong_ecc,
    table5_area,
    table6_power,
    table7_olsc,
)
from repro.harness.journal import CellFailure, RunJournal
from repro.metrics import METRICS
from repro.harness.results import PerfPoint, PerformanceMatrix
from repro.harness.runner import (
    CampaignError,
    CellResult,
    make_scheme,
    run_cell,
    run_cells,
    scheme_names,
)

__all__ = [
    "CampaignError",
    "CellFailure",
    "RunJournal",
    "METRICS",
    "EXPERIMENTS",
    "run_experiment",
    "make_scheme",
    "scheme_names",
    "fig1_cell_pfail",
    "fig2_line_distribution",
    "fig4_fig5_performance",
    "fig6_coverage",
    "table4_strong_ecc",
    "table5_area",
    "table6_power",
    "table7_olsc",
    "PerfPoint",
    "PerformanceMatrix",
    "CellResult",
    "run_cell",
    "run_cells",
]
