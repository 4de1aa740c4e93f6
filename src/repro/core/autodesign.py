"""Automatic design selection.

Paper §III-D: "PEDAL can automatically detect the hardware capability of
the BlueField series to determine supported compression designs, and
intelligently fall back to SoC-based compression designs."  This module
goes one step further (paper §VI future work) and *chooses* a design for
a message, given the device, the data kind, and the message size, by
minimising the cost model's predicted compress+transfer+decompress time.

The chooser is deliberately simple and fully explainable: it evaluates
each candidate design's predicted pipeline time by summing the charge
plan the simulator executes (:mod:`repro.plan.charges`), assuming a caller-supplied expected
compression ratio (measurable from a data sample via
:func:`estimate_ratio`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dpu.device import BlueFieldDPU
from repro.dpu.specs import Direction
from repro.plan.charges import op_plan, plan_seconds
from repro.plan.designs import LOSSLESS_DESIGNS, LOSSY_DESIGNS, CompressionDesign

__all__ = ["DesignChoice", "choose_design", "estimate_ratio", "predict_pipeline_time"]


@dataclass(frozen=True)
class DesignChoice:
    """A ranked design with its predicted end-to-end time."""

    design: CompressionDesign
    predicted_seconds: float
    compress_seconds: float
    transfer_seconds: float
    decompress_seconds: float


def estimate_ratio(data: bytes, sample_bytes: int = 16384) -> float:
    """Cheap ratio estimate: LZ4-compress a prefix sample.

    LZ4 is the fastest codec in the suite; its ratio correlates with
    the others' well enough for design ranking.
    """
    sample = data[:sample_bytes]
    if not sample:
        return 1.0
    from repro.algorithms.lz4 import lz4_block_compress

    compressed = lz4_block_compress(bytes(sample))
    return max(len(sample) / max(len(compressed), 1), 1.0)


def predict_pipeline_time(
    sender: BlueFieldDPU,
    receiver: BlueFieldDPU,
    design: CompressionDesign,
    sim_bytes: float,
    expected_ratio: float,
) -> DesignChoice:
    """Predicted compress -> wire -> decompress time for one message."""
    # Each side's steady-state (set-up hoisted) charge plan under Table
    # III resolution; SZ3's lossless stage at its nominal payload share.
    compress = plan_seconds(op_plan(
        sender, design.algo, design.placement, Direction.COMPRESS, sim_bytes))
    decompress = plan_seconds(op_plan(
        receiver, design.algo, design.placement, Direction.DECOMPRESS,
        sim_bytes))
    bandwidth = min(
        sender.spec.nic.bytes_per_second, receiver.spec.nic.bytes_per_second
    )
    latency = max(
        sender.spec.nic.base_latency_s, receiver.spec.nic.base_latency_s
    )
    transfer = latency + (sim_bytes / max(expected_ratio, 1e-9)) / bandwidth
    return DesignChoice(
        design=design,
        predicted_seconds=compress + transfer + decompress,
        compress_seconds=compress,
        transfer_seconds=transfer,
        decompress_seconds=decompress,
    )


def choose_design(
    sender: BlueFieldDPU,
    receiver: BlueFieldDPU,
    sim_bytes: float,
    expected_ratio: float = 2.5,
    lossy: bool = False,
    include_raw: bool = True,
) -> list[DesignChoice]:
    """Rank candidate designs (fastest first) for one message.

    With ``include_raw``, an uncompressed pseudo-choice (``design`` is
    None-like: a SoC design with ratio 1) is represented by comparing
    against the plain wire time — if no design beats it, callers should
    skip compression entirely (PEDAL's eager-path behaviour).
    """
    candidates = LOSSY_DESIGNS if lossy else LOSSLESS_DESIGNS
    ranked = sorted(
        (
            predict_pipeline_time(sender, receiver, d, sim_bytes, expected_ratio)
            for d in candidates
        ),
        key=lambda choice: choice.predicted_seconds,
    )
    if include_raw:
        bandwidth = min(
            sender.spec.nic.bytes_per_second, receiver.spec.nic.bytes_per_second
        )
        latency = max(
            sender.spec.nic.base_latency_s, receiver.spec.nic.base_latency_s
        )
        raw_seconds = latency + sim_bytes / bandwidth
        ranked = [c for c in ranked if c.predicted_seconds < raw_seconds] or ranked[:1]
    return ranked
