"""Parameter-sweep harness reproducing the paper's tables and figures.

Each function returns a list of row dictionaries matching the columns of the
corresponding table in the paper, so that the benchmark suite (and the
EXPERIMENTS.md report) can print them side by side with the published
numbers.

The sweeps themselves are thin façades over the declarative scenario engine
(:mod:`repro.bench.engine`): each figure is a registered scenario, and the
functions here only assemble the figure's grid and hand it to
:func:`~repro.bench.engine.run_scenario`.  Pass ``parallel=True`` to fan a
sweep out over a process pool; the rows are identical either way.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..analysis.bounds import (
    TimingParameters,
    lemma1_completion_bound,
    messages_all_exceptions,
    messages_single_exception,
    romanovsky96_messages,
    signalling_messages_simple,
    signalling_messages_worst_case,
    theorem2_worst_case_messages,
)
from ..workload.scenarios import saturation_knee
from .engine import (
    CAPACITY_GRID,
    CHURN_GRID,
    EXPLORE_CHUNK_SIZE,
    EXPLORE_SEED,
    MIXED_TRAFFIC_GRID,
    FIGURE9_BASELINE,
    GRAPH_MICROBENCH_GRID,
    LARGE_N_GRID,
    FIGURE12_FIXED_TMMAX,
    FIGURE12_FIXED_TRES,
    FIGURE12_TMMAX_GRID,
    FIGURE12_TRES_GRID,
    WIDE_GRAPH_GRID,
    figure9_grid,
    run_scenario,
)
from .scenarios import (
    EXPERIMENT1_ITERATIONS,
    run_complexity_scenario,
    run_experiment1,
)


# ----------------------------------------------------------------------
# Figures 9 and 10: sensitivity of the total execution time
# ----------------------------------------------------------------------
def sweep_figure9(varying: str,
                  values: Optional[Sequence[float]] = None,
                  iterations: int = EXPERIMENT1_ITERATIONS,
                  algorithm: str = "ours",
                  parallel: bool = False) -> List[Dict[str, float]]:
    """Sweep one of the three parameters of the Figure 9 experiment.

    ``varying`` is ``"t_msg"`` (message passing), ``"t_abort"`` (abortion)
    or ``"t_resolution"`` (resolution).  The other two parameters stay at
    the baseline values.  Returns rows with the swept value and the total
    execution time, mirroring the two columns of the corresponding Figure 9
    sub-table.
    """
    points = figure9_grid(varying, values, iterations, algorithm)
    return run_scenario("figure9", points=points, parallel=parallel)


def figure10_series(iterations: int = EXPERIMENT1_ITERATIONS,
                    algorithm: str = "ours",
                    parallel: bool = False) -> Dict[str, List[Dict[str, float]]]:
    """All three Figure 10 series (total time vs each swept parameter)."""
    return {
        "varying_tmmax": sweep_figure9("t_msg", iterations=iterations,
                                       algorithm=algorithm, parallel=parallel),
        "varying_tabo": sweep_figure9("t_abort", iterations=iterations,
                                      algorithm=algorithm, parallel=parallel),
        "varying_treso": sweep_figure9("t_resolution", iterations=iterations,
                                       algorithm=algorithm, parallel=parallel),
    }


# ----------------------------------------------------------------------
# Figures 12 and 13: comparison with the Campbell–Randell algorithm
# ----------------------------------------------------------------------
def sweep_figure12_tmmax(values: Optional[Sequence[float]] = None,
                         t_resolution: float = FIGURE12_FIXED_TRES,
                         iterations: int = 1,
                         parallel: bool = False) -> List[Dict[str, float]]:
    """Figure 12 left half: vary ``Tmmax`` at fixed ``Tres``."""
    grid = list(values) if values is not None else list(FIGURE12_TMMAX_GRID)
    points = [{"t_msg": t_msg, "t_resolution": t_resolution,
               "iterations": iterations} for t_msg in grid]
    return run_scenario("figure12_tmmax", points=points, parallel=parallel)


def sweep_figure12_tres(values: Optional[Sequence[float]] = None,
                        t_msg: float = FIGURE12_FIXED_TMMAX,
                        iterations: int = 1,
                        parallel: bool = False) -> List[Dict[str, float]]:
    """Figure 12 right half: vary ``Tres`` at fixed ``Tmmax``."""
    grid = list(values) if values is not None else list(FIGURE12_TRES_GRID)
    points = [{"t_res": t_res, "t_msg": t_msg, "iterations": iterations}
              for t_res in grid]
    return run_scenario("figure12_tres", points=points, parallel=parallel)


def figure13_series(iterations: int = 1,
                    parallel: bool = False) -> Dict[str, List[Dict[str, float]]]:
    """Both Figure 13 plots: (a) varying Tmmax, (b) varying Tres."""
    return {
        "varying_tmmax": sweep_figure12_tmmax(iterations=iterations,
                                              parallel=parallel),
        "varying_tres": sweep_figure12_tres(iterations=iterations,
                                            parallel=parallel),
    }


# ----------------------------------------------------------------------
# New workloads: large-N complexity sweep and multi-action churn
# ----------------------------------------------------------------------
def large_n_table(thread_counts: Optional[Iterable[int]] = None,
                  algorithm: str = "ours",
                  parallel: bool = False) -> List[Dict[str, float]]:
    """Message-complexity sweep far beyond the paper's N ≤ 6 (up to 64)."""
    if thread_counts is None:
        thread_counts = [point["n_threads"] for point in LARGE_N_GRID]
    points = [{"n_threads": n, "algorithm": algorithm} for n in thread_counts]
    return run_scenario("large_n", points=points, parallel=parallel)


def explore_table(budget: int = 200, seed: int = EXPLORE_SEED,
                  target: str = "nested_abort",
                  chunk_size: int = EXPLORE_CHUNK_SIZE,
                  parallel: bool = False) -> List[Dict[str, object]]:
    """Fault-space exploration sweep: one row per chunk of seeded plans.

    Every row reports the chunk's case count, failure count, violations
    and a digest over its canonical traces; a clean sweep has
    ``failures == 0`` everywhere.  The sweep is a pure function of
    ``(target, seed, budget)``, so the parallel and sequential paths
    return byte-identical rows.
    """
    points = [{"target": target, "seed": seed, "start": start,
               "stop": min(start + chunk_size, budget)}
              for start in range(0, budget, chunk_size)]
    return run_scenario("explore", points=points, parallel=parallel)


def churn_table(group_counts: Optional[Iterable[int]] = None,
                iterations: int = 2,
                parallel: bool = False) -> List[Dict[str, float]]:
    """Throughput of many unrelated concurrent actions on one network."""
    if group_counts is None:
        group_counts = [point["n_groups"] for point in CHURN_GRID]
    points = [{"n_groups": n, "iterations": iterations}
              for n in group_counts]
    return run_scenario("churn", points=points, parallel=parallel)


def capacity_table(offered_loads: Optional[Iterable[float]] = None,
                   n_instances: int = 200,
                   parallel: bool = False,
                   **options) -> List[Dict[str, object]]:
    """Capacity curve: one row per offered load over the shared pool.

    Feed the rows to :func:`repro.workload.scenarios.saturation_knee` to
    locate the saturation knee (the baseline writer does, committing the
    verdict next to the curve in ``BENCH_workload.json``).
    """
    if offered_loads is None:
        offered_loads = [point["offered_load"] for point in CAPACITY_GRID]
    points = [{"offered_load": load, "n_instances": n_instances, **options}
              for load in offered_loads]
    return run_scenario("capacity", points=points, parallel=parallel)


def mixed_traffic_table(seeds: Optional[Iterable[int]] = None,
                        n_instances: int = 200,
                        parallel: bool = False,
                        **options) -> List[Dict[str, object]]:
    """Mixed-traffic soak rows: heterogeneous mix + noise, oracle-checked.

    Every row's ``violations`` list must be empty; a non-empty list is a
    protocol bug surfaced by concurrent-instance traffic.
    """
    if seeds is None:
        seeds = [point["seed"] for point in MIXED_TRAFFIC_GRID]
    points = [{"seed": seed, "n_instances": n_instances, **options}
              for seed in seeds]
    return run_scenario("mixed_traffic", points=points, parallel=parallel)


def wide_graph_table(thread_counts: Optional[Iterable[int]] = None,
                     n_primitives: int = 12, max_level: int = 3,
                     iterations: int = 2,
                     parallel: bool = False) -> List[Dict[str, object]]:
    """Resolution-heavy all-raise storms over a wide truncated graph."""
    if thread_counts is None:
        thread_counts = [point["n_threads"] for point in WIDE_GRAPH_GRID]
    points = [{"n_threads": n, "n_primitives": n_primitives,
               "max_level": max_level, "iterations": iterations}
              for n in thread_counts]
    return run_scenario("wide_graph", points=points, parallel=parallel)


def graph_microbench_table(points: Optional[Iterable[Dict[str, int]]] = None,
                           parallel: bool = False) -> List[Dict[str, object]]:
    """Compiled-graph resolution microbenchmark rows (wall-clock timings)."""
    if points is None:
        points = [dict(point) for point in GRAPH_MICROBENCH_GRID]
    return run_scenario("graph_microbench", points=list(points),
                        parallel=parallel)


# ----------------------------------------------------------------------
# Message-complexity tables (Section 3.2.3 / Theorem 2 / Section 3.4)
# ----------------------------------------------------------------------
def message_complexity_table(thread_counts: Iterable[int] = (2, 3, 4, 5, 6),
                             algorithm: str = "ours") -> List[Dict[str, float]]:
    """Measured vs analytic resolution-message counts.

    For each N: one-exception and all-N-exception runs, compared with the
    paper's ``(N+1)(N−1)`` enumeration and Theorem 2's ``n_max(N²−1)``
    worst case.
    """
    rows = []
    for n in thread_counts:
        single = run_complexity_scenario(n, 1, algorithm=algorithm)
        all_exc = run_complexity_scenario(n, n, algorithm=algorithm)
        rows.append({
            "n_threads": n,
            "measured_single": single["resolution_messages"],
            "measured_all": all_exc["resolution_messages"],
            "paper_single": messages_single_exception(n),
            "paper_all": messages_all_exceptions(n),
            "theorem2_bound": theorem2_worst_case_messages(n, 1),
            "signalling_single": single["signalling_messages"],
            "signalling_paper": signalling_messages_simple(n),
            "resolution_calls": all_exc["resolution_calls"],
        })
    return rows


def algorithm_comparison_table(thread_counts: Iterable[int] = (3, 4, 5)) \
        -> List[Dict[str, float]]:
    """All-raise message counts for the three algorithms, per N."""
    rows = []
    for n in thread_counts:
        ours = run_complexity_scenario(n, n, algorithm="ours")
        cr = run_complexity_scenario(n, n, algorithm="campbell-randell")
        r96 = run_complexity_scenario(n, n, algorithm="romanovsky96")
        rows.append({
            "n_threads": n,
            "ours_messages": ours["resolution_messages"],
            "cr_messages": cr["resolution_messages"],
            "r96_messages": r96["resolution_messages"],
            "ours_resolution_calls": ours["resolution_calls"],
            "cr_resolution_calls": cr["resolution_calls"],
            "r96_resolution_calls": r96["resolution_calls"],
            "theorem2_bound": theorem2_worst_case_messages(n, 1),
            "r96_paper": romanovsky96_messages(n),
        })
    return rows


# ----------------------------------------------------------------------
# Lemma 1 time bound
# ----------------------------------------------------------------------
def lemma1_check(t_msg: float = 0.2, t_abort: float = 0.1,
                 t_resolution: float = 0.3,
                 handler_time: float = 0.5) -> Dict[str, float]:
    """Compare a measured single-iteration completion time with Lemma 1.

    The experiment-1 scenario has one nesting level (``n_max`` = 1); the
    measured per-iteration time (minus the normal-computation prefix) must
    stay below the analytic bound.
    """
    result = run_experiment1(t_msg, t_abort, t_resolution, iterations=1)
    params = TimingParameters(t_msg_max=t_msg, t_resolution=t_resolution,
                              t_abort=t_abort, t_handler_max=handler_time,
                              max_nesting=1)
    return {
        "measured_total": result.total_time,
        "bound": lemma1_completion_bound(params),
        "protocol_messages": result.protocol_messages,
    }
