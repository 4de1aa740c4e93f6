"""Shared experiment infrastructure.

The experiments all follow one pattern: build a fresh simulation, run
the operation(s) under a PEDAL/naive/raw configuration, and record the
simulated clock plus the real compression artifacts.  This module
provides the single-op drivers and the experiment registry; the
per-figure modules assemble them into the paper's grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable

from repro.core.api import PedalContext
from repro.core.baseline import NaiveCompressor
from repro.datasets import Dataset, get_dataset
from repro.dpu.device import make_device
from repro.plan.designs import CompressionDesign, design as lookup_design
from repro.sim import Environment, TimeBreakdown

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "run_experiment",
    "register_experiment",
    "generate_payload",
    "run_pedal_roundtrip",
    "run_naive_roundtrip",
    "DEFAULT_ACTUAL_BYTES",
]

# Actual byte budget per dataset for real compression during benches.
# Kept modest: the pure-Python codecs are the real cost; ratios for
# these data classes converge well below this size.
DEFAULT_ACTUAL_BYTES = 96 * 1024


@dataclass
class ExperimentResult:
    """Output of one experiment: printable rows + headline checks."""

    experiment: str
    title: str
    columns: list[str]
    rows: list[dict] = field(default_factory=list)
    headlines: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        from repro.bench.reporting import format_table

        parts = [format_table(self.rows, self.columns, title=self.title)]
        if self.headlines:
            parts.append("")
            parts.append("Headline factors:")
            for key, value in self.headlines.items():
                parts.append(f"  {key}: {value:.4g}")
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def as_dict(self) -> dict:
        """JSON-ready form (``repro.bench --json``): rows + metadata."""
        return {
            "experiment": self.experiment,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "headlines": dict(self.headlines),
            "notes": list(self.notes),
        }


@lru_cache(maxsize=64)
def generate_payload(dataset_key: str, actual_bytes: int) -> Any:
    """Cached deterministic payload for (dataset, size)."""
    return get_dataset(dataset_key).generate(actual_bytes)


@dataclass
class RoundtripRecord:
    """Measured compress+decompress pair on one device."""

    compress_breakdown: TimeBreakdown
    decompress_breakdown: TimeBreakdown
    compress_seconds: float
    decompress_seconds: float
    ratio: float
    original_bytes: int
    compressed_bytes: int
    init_seconds: float  # PEDAL_init cost (0 for naive: charged per op)


def _drive(env: Environment, generator) -> Any:
    proc = env.process(generator)
    return env.run(until=proc)


def run_pedal_roundtrip(
    device_kind: str,
    design_spec: "str | CompressionDesign",
    dataset: "str | Dataset",
    sim_bytes: float | None = None,
    actual_bytes: int = DEFAULT_ACTUAL_BYTES,
) -> RoundtripRecord:
    """One PEDAL compress+decompress of a dataset on a fresh device."""
    dsg = lookup_design(design_spec)
    ds = get_dataset(dataset) if isinstance(dataset, str) else dataset
    payload = generate_payload(ds.key, actual_bytes)
    nominal = ds.nominal_bytes if sim_bytes is None else sim_bytes

    env = Environment()
    device = make_device(env, device_kind)
    ctx = PedalContext(device)
    init_breakdown = _drive(env, ctx.init())

    t0 = env.now
    comp = _drive(env, ctx.compress(payload, dsg, nominal))
    t1 = env.now
    dec = _drive(env, ctx.decompress(comp.message, dsg.placement, nominal))
    t2 = env.now
    return RoundtripRecord(
        compress_breakdown=comp.breakdown,
        decompress_breakdown=dec.breakdown,
        compress_seconds=t1 - t0,
        decompress_seconds=t2 - t1,
        ratio=comp.ratio,
        original_bytes=comp.original_bytes,
        compressed_bytes=comp.compressed_bytes,
        init_seconds=init_breakdown.total(),
    )


def run_naive_roundtrip(
    device_kind: str,
    design_spec: "str | CompressionDesign",
    dataset: "str | Dataset",
    sim_bytes: float | None = None,
    actual_bytes: int = DEFAULT_ACTUAL_BYTES,
) -> RoundtripRecord:
    """One naive (non-PEDAL) compress+decompress — the Fig. 7 flow."""
    dsg = lookup_design(design_spec)
    ds = get_dataset(dataset) if isinstance(dataset, str) else dataset
    payload = generate_payload(ds.key, actual_bytes)
    nominal = ds.nominal_bytes if sim_bytes is None else sim_bytes

    env = Environment()
    device = make_device(env, device_kind)
    naive = NaiveCompressor(device)
    t0 = env.now
    comp = _drive(env, naive.compress(payload, dsg, nominal))
    t1 = env.now
    dec = _drive(env, naive.decompress(comp.message, dsg.placement, nominal))
    t2 = env.now
    return RoundtripRecord(
        compress_breakdown=comp.breakdown,
        decompress_breakdown=dec.breakdown,
        compress_seconds=t1 - t0,
        decompress_seconds=t2 - t1,
        ratio=comp.ratio,
        original_bytes=comp.original_bytes,
        compressed_bytes=comp.compressed_bytes,
        init_seconds=0.0,
    )


# ---------------------------------------------------------------------------
# Experiment registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {}


def register_experiment(name: str):
    """Decorator: register an experiment entry point."""

    def wrap(fn: Callable[..., ExperimentResult]):
        EXPERIMENTS[name] = fn
        return fn

    return wrap


def run_experiment(name: str, **kwargs) -> ExperimentResult:
    """Run a registered experiment by id (e.g. ``"fig8"``)."""
    # Import the experiment modules lazily so registration happens on use.
    from repro.bench import experiments  # noqa: F401

    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    return fn(**kwargs)
