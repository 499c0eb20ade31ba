"""Experiment harness: scenario engine, parameter sweeps and reporting."""

from .engine import (
    CAPACITY_GRID,
    CHURN_GRID,
    MIXED_TRAFFIC_GRID,
    FIGURE9_GRIDS,
    GRAPH_MICROBENCH_GRID,
    LARGE_N_GRID,
    PRODUCTION_CELL_GRID,
    REGISTRY,
    Scenario,
    ScenarioRegistry,
    TRANSACTIONAL_GRID,
    WIDE_GRAPH_GRID,
    figure9_grid,
    run_scenario,
)
from .harness import (
    FIGURE9_BASELINE,
    algorithm_comparison_table,
    capacity_table,
    churn_table,
    mixed_traffic_table,
    figure10_series,
    figure13_series,
    graph_microbench_table,
    large_n_table,
    lemma1_check,
    message_complexity_table,
    sweep_figure12_tmmax,
    sweep_figure12_tres,
    sweep_figure9,
    wide_graph_table,
)
from .reporting import (
    format_table,
    linear_fit,
    paper_reference_figure12,
    paper_reference_figure9,
    series,
)
from .scenarios import (
    EXPERIMENT1_ITERATIONS,
    ExperimentResult,
    build_churn,
    build_experiment1,
    build_experiment2,
    build_wide_graph,
    run_churn,
    run_complexity_scenario,
    run_experiment1,
    run_experiment2,
    run_graph_microbench,
    run_wide_graph,
)

__all__ = [
    "algorithm_comparison_table",
    "build_churn",
    "build_experiment1",
    "build_experiment2",
    "build_wide_graph",
    "CAPACITY_GRID",
    "capacity_table",
    "CHURN_GRID",
    "churn_table",
    "collect_resolution_baseline",
    "collect_workload_baseline",
    "EXPERIMENT1_ITERATIONS",
    "ExperimentResult",
    "figure9_grid",
    "figure10_series",
    "figure13_series",
    "FIGURE9_BASELINE",
    "FIGURE9_GRIDS",
    "format_table",
    "GRAPH_MICROBENCH_GRID",
    "graph_microbench_table",
    "LARGE_N_GRID",
    "large_n_table",
    "lemma1_check",
    "linear_fit",
    "message_complexity_table",
    "MIXED_TRAFFIC_GRID",
    "mixed_traffic_table",
    "paper_reference_figure12",
    "paper_reference_figure9",
    "REGISTRY",
    "run_churn",
    "run_complexity_scenario",
    "run_experiment1",
    "run_experiment2",
    "run_graph_microbench",
    "run_scenario",
    "run_wide_graph",
    "Scenario",
    "ScenarioRegistry",
    "series",
    "sweep_figure12_tmmax",
    "sweep_figure12_tres",
    "sweep_figure9",
    "WIDE_GRAPH_GRID",
    "wide_graph_table",
    "write_resolution_baseline",
    "write_workload_baseline",
]


def __getattr__(name: str):
    # The ``*_baseline`` writers load on first access, so that
    # ``python -m repro.bench.baseline`` does not run an already-imported
    # module.
    if name in __all__ and name.endswith("_baseline"):
        from . import baseline
        return getattr(baseline, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
