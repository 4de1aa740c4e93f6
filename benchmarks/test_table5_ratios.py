"""Regenerate Table V at the tuned 256 KiB budget and assert fidelity.

The measured DEFLATE/SZ3 ratios must land within 15% of the paper's
values with the paper's ordering preserved (this is the experiment
whose numbers are *real* measurements, not cost-model outputs).
"""

import pytest
from conftest import run_once

from repro.bench.experiments.table5_ratios import PAPER_LOSSLESS, PAPER_LOSSY
from repro.bench.experiments import run_experiment

TUNED_BYTES = 256 * 1024


def test_table5(benchmark, actual_bytes):
    budget = actual_bytes or TUNED_BYTES
    if budget < TUNED_BYTES:
        pytest.skip(
            f"Table V fidelity bands are calibrated at {TUNED_BYTES} bytes; "
            f"--repro-bytes={budget} is too small to be representative"
        )
    result = run_once(benchmark, run_experiment, "table5", actual_bytes=budget)

    lossless = {r["dataset"]: r for r in result.rows if "DEFLATE" in r and r.get("DEFLATE")}
    lossy = {r["dataset"]: r for r in result.rows if "SZ3" in r and r.get("SZ3")}

    # Within-15% bands at the tuned budget.
    for key, paper in PAPER_LOSSLESS.items():
        assert lossless[key]["DEFLATE"] == pytest.approx(paper["DEFLATE"], rel=0.15)
    for key, paper in PAPER_LOSSY.items():
        assert lossy[key]["SZ3"] == pytest.approx(paper["SZ3"], rel=0.15)

    # Ordering preserved (DEFLATE column).
    measured_order = sorted(lossless, key=lambda k: lossless[k]["DEFLATE"])
    paper_order = sorted(PAPER_LOSSLESS, key=lambda k: PAPER_LOSSLESS[k]["DEFLATE"])
    assert measured_order == paper_order

    # zlib ratios equal DEFLATE at table precision; LZ4 trails DEFLATE.
    for key, row in lossless.items():
        assert row["zlib"] == pytest.approx(row["DEFLATE"], rel=0.01)
        assert row["LZ4"] < row["DEFLATE"]
