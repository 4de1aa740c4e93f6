"""Regression gates over the committed fleet-cluster trajectory
(``BENCH_PR9.json``).

Same two-layer discipline as the other trajectory files:

* **Bands** — the tentpole's shape claims (goodput saturates instead of
  collapsing at 100x the PR 4 offered load, per-shard pending never
  exceeds the shard admission budget, the mid-run whole-worker kill
  recovers >= 90 % of the pre-kill completion rate, both admission
  layers drain to zero) must hold in the committed file and when the
  sweep is recomputed from scratch.
* **Exact trajectory** — every number, including the BLAKE2b routing
  digests over shard lookups / batch dispatches / failover re-picks /
  shard-map heals, is a pure function of the seed and the cost model,
  so a fresh ``regress.collect("cluster")`` must reproduce the
  committed report bit-for-bit.  Any routing, admission, or
  failover change shows up as a diff here and requires regenerating the
  file (``python benchmarks/regress.py``) in the same PR.
"""

from __future__ import annotations

import pytest

from repro.bench import regress
from tests.bench.reports import assert_reproduced, committed, fresh


@pytest.fixture(scope="module")
def committed_cluster_report():
    return committed("cluster")


def test_fresh_numbers_pass_bands():
    assert regress.gate("cluster", fresh("cluster")) == []


def test_committed_report_passes_bands(committed_cluster_report):
    assert regress.gate("cluster", committed_cluster_report) == []


def test_committed_report_schema(committed_cluster_report):
    assert len(committed_cluster_report["curve"]) == len(
        committed_cluster_report["config"]["loads_req_s"]
    )


def test_trajectory_is_reproduced_exactly():
    """Bit-for-bit: headlines, every curve record, the failover record,
    and — via the digests inside each record — every routing decision."""
    assert_reproduced("cluster")


def test_routing_digests_are_pinned(committed_cluster_report):
    """The committed file actually carries a digest per run — the exact
    gate above is only as strong as the fields in the report."""
    records = committed_cluster_report["curve"] + [
        committed_cluster_report["failover"]
    ]
    for rec in records:
        digest = rec["routing_digest"]
        assert isinstance(digest, str) and len(digest) == 32
        int(digest, 16)  # hex-decodes


def test_goodput_saturates_not_collapses(committed_cluster_report):
    """Redundant with the bands, but spelled out against the raw curve:
    goodput at each successive load never drops below 90 % of the
    previous point, and sheds (not queue growth) absorb the overload."""
    curve = committed_cluster_report["curve"]
    goodputs = [r["goodput_bytes_s"] for r in curve]
    for prev, cur in zip(goodputs, goodputs[1:]):
        assert cur >= 0.9 * prev
    overload = curve[-1]
    assert overload["shed_global"] + overload["shed_shard"] > 0
    assert overload["max_shard_pending"] <= (
        committed_cluster_report["config"]["shard_max_pending"]
    )


def test_failover_record_shape(committed_cluster_report):
    fo = committed_cluster_report["failover"]
    assert fo["killed_workers"] == ["bf2-0"]
    assert fo["failovers"] >= 1
    assert fo["recovery_ratio"] >= 0.9
    assert fo["pending_after_drain"] == 0
    # One worker died but its shard survived on replicas: no heal.
    assert fo["epoch"] == 0
    # The kill's latency spike tripped the deterministic alert stream.
    assert fo["slo_alerts"] >= 1
