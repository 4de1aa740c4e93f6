"""Regression gates over the streaming-rendezvous trajectory
(BENCH_PR10.json).

Same two layers as the other committed trajectories:

* **Bands** — streaming must be no worse than whole-message rendezvous
  at 4 MiB on the gated SoC DEFLATE design, strictly better at 16 MiB
  and on the 4-rank bcast, and byte-identical everywhere.
* **Exact trajectory** — the sweep is pure sim clock, so a fresh
  ``regress.collect("stream")`` must reproduce the committed file
  bit-for-bit.
"""

from __future__ import annotations

import pytest

from repro.bench import regress
from tests.bench.reports import assert_reproduced, committed, fresh


@pytest.fixture(scope="module")
def committed_stream_report():
    return committed("stream")


def test_fresh_numbers_pass_bands():
    assert regress.gate("stream", fresh("stream")) == []


def test_committed_report_passes_bands(committed_stream_report):
    assert regress.gate("stream", committed_stream_report) == []


def test_committed_report_schema(committed_stream_report):
    assert committed_stream_report["config"]["gate_design"] == "SoC_DEFLATE"


def test_trajectory_is_reproduced_exactly():
    assert_reproduced("stream")


def test_streaming_wins_are_material(committed_stream_report):
    """The headline overlap win on the gated SoC design is a multiple,
    not a rounding artifact (recorded ~4.26x at every size)."""
    headlines = committed_stream_report["headlines"]
    assert headlines["stream_vs_whole_latency_16mib"] > 2.0
    assert headlines["stream_byte_identical"] == 1.0


def test_cengine_rows_present_but_ungated(committed_stream_report):
    """Per-chunk engine-job overhead makes chunked C-Engine streaming
    chunk-size sensitive; the sweep records it without gating it."""
    designs = {row["design"] for row in committed_stream_report["rows"]}
    assert designs == {"SoC_DEFLATE", "C-Engine_DEFLATE"}
    gated_keys = set(regress.STREAM_BANDS)
    assert not any("c-engine" in key.lower() for key in gated_keys)
