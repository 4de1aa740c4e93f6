"""The per-device plan table: served entries are the uncached build.

``repro.plan.charges.plan_entry`` keeps one entry per (algo, placement,
direction, hoisted, engine_ok) key on each device, and ``op_plan`` /
``job_plan`` price those entries.  These tests pin that the table only
ever hands back what the uncached builder would (the full nested stage
tuple, fallbacks included), that it grows with keys and not sizes, that
``resolve`` still counts a fallback per call, and that the selector's
committed crossovers (BENCH_PR5.json) do not move by a bit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.core.api import PedalContext
from repro.dpu.device import make_device
from repro.dpu.specs import Algo, Direction
from repro.plan.charges import (
    build_entry,
    build_job_plan,
    job_plan,
    op_plan,
    plan_entry,
)
from repro.plan.designs import CompressionDesign, Placement
from repro.plan.header import PedalHeader
from repro.plan.registry import resolve
from repro.select import PathSelector
from repro.sim import Environment
from tests.conftest import drive

ROOT = Path(__file__).resolve().parents[2]
SIZES = (0.0, 1.0, 512.0, 1234.5, 64e3, 5.1e6, 10e6)
STAGES = (None, 3000.5)
FLAGS = ((True, True), (True, False), (False, True), (False, False))


@pytest.mark.parametrize("kind", ["bf2", "bf3"])
@pytest.mark.parametrize("algo", list(Algo), ids=lambda a: a.value)
def test_table_plan_equals_uncached_build(kind, algo):
    device = make_device(Environment(), kind)
    for placement in Placement:
        for direction in Direction:
            for hoisted, engine_ok in FLAGS:
                key = (algo, placement, direction, hoisted, engine_ok)
                entry = plan_entry(device, *key)
                fresh = build_entry(device, *key)
                assert entry is plan_entry(device, *key)
                assert entry[:-1] == fresh[:-1]   # all but the builder
                assert entry.design == CompressionDesign(algo, placement)
                assert entry.header == PedalHeader.for_algo(algo).encode()
                for n in SIZES:
                    for stage in STAGES:
                        assert op_plan(device, algo, placement, direction, n,
                                       stage, hoisted, engine_ok) \
                            == fresh.plan(n, stage)
        for direction in Direction:
            fresh = build_job_plan(device, algo, direction)
            for engine_bytes in SIZES:
                for soc_bytes in SIZES:
                    assert job_plan(device, algo, direction, engine_bytes,
                                    soc_bytes) == fresh(engine_bytes, soc_bytes)


def test_table_grows_with_keys_not_sizes(bf2):
    op_plan(bf2, Algo.SZ3, Placement.CENGINE, Direction.COMPRESS, 1.0)
    job_plan(bf2, Algo.DEFLATE, Direction.DECOMPRESS, 1.0, 1.0)
    size = len(bf2.plans)
    for i in range(1000):
        n = 1.0 + i * 4099.5
        op_plan(bf2, Algo.SZ3, Placement.CENGINE, Direction.COMPRESS, n,
                n / 7.0)
        job_plan(bf2, Algo.DEFLATE, Direction.DECOMPRESS, n / 3.0, n)
    assert len(bf2.plans) == size


def test_fallback_still_counted_once_per_op(env, bf3):
    """BF-3 has no compression engine: every C-Engine compress is a
    Table III fallback, served from one table entry but counted per op
    (and per direct ``resolve`` call)."""
    ctx = PedalContext(bf3)
    drive(env, ctx.init())
    with obs.collecting() as metrics:
        for _ in range(5):
            drive(env, ctx.compress(b"x" * 512, "C-Engine_DEFLATE", 5.1e6))
        assert metrics.counter("pedal.fallback_soc").value == 5.0
        resolve(bf3, CompressionDesign(Algo.LZ4, Placement.CENGINE))
        resolve(bf3, CompressionDesign(Algo.LZ4, Placement.SOC))
        assert metrics.counter("pedal.fallback_soc").value == 6.0


def test_bench_pr5_crossovers_are_bit_identical():
    headlines = json.loads((ROOT / "BENCH_PR5.json").read_text())["headlines"]
    for kind, direction in (("bf2", Direction.COMPRESS),
                            ("bf2", Direction.DECOMPRESS),
                            ("bf3", Direction.DECOMPRESS)):
        selector = PathSelector(make_device(Environment(), kind))
        assert selector.crossover_bytes(Algo.DEFLATE, direction) == headlines[
            f"select_crossover_{kind}_{direction.value}_bytes"]
