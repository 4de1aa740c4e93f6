"""Shared benchmark configuration.

Each driver regenerates one paper artifact via
:func:`repro.bench.experiments.run_experiment`, measures it under
pytest-benchmark (single round — the simulation is deterministic, so
repeated rounds only re-measure Python overhead), and asserts the
paper-shape headline bands.

``--repro-bytes`` controls the synthetic payload budget (default:
the per-experiment defaults, 64–96 KiB).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--repro-bytes",
        type=int,
        default=None,
        help="synthetic payload budget per dataset for experiment benches",
    )


@pytest.fixture(scope="session")
def actual_bytes(request):
    return request.config.getoption("--repro-bytes")


@pytest.fixture(scope="session")
def experiment_kwargs(actual_bytes):
    return {} if actual_bytes is None else {"actual_bytes": actual_bytes}


def run_once(benchmark, fn, *args, **kwargs):
    """Benchmark a deterministic, expensive callable with one round."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
