"""Experiment modules — importing this package registers them all."""

from repro.bench.experiments import (
    cluster_fleet,
    edpc_pipeline,
    fig7_lossless_breakdown,
    fig8_raw_times,
    fig9_lossy_breakdown,
    fig10_pt2pt,
    fig11_bcast,
    obs_telemetry,
    sched_pipeline,
    select_crossover,
    serve_gateway,
    stream_fabric,
    table4_datasets,
    table5_ratios,
)
from repro.bench.harness import EXPERIMENTS, ExperimentResult

__all__ = [
    "run_experiment",
    "cluster_fleet",
    "edpc_pipeline",
    "fig7_lossless_breakdown",
    "fig8_raw_times",
    "fig9_lossy_breakdown",
    "fig10_pt2pt",
    "fig11_bcast",
    "obs_telemetry",
    "sched_pipeline",
    "select_crossover",
    "serve_gateway",
    "stream_fabric",
    "table4_datasets",
    "table5_ratios",
]


def run_experiment(name: str, **kwargs) -> ExperimentResult:
    """Run a registered experiment by id (e.g. ``"fig8"``)."""
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    return fn(**kwargs)
