"""Regenerate Fig. 8 and assert the calibrated headline factors.

Paper claims re-checked (all from §V-C1):
* 101.8x / 11.2x — BF2 C-Engine vs SoC, DEFLATE at 5.1 MB;
* 84.6x / 20x — BF2 C-Engine vs SoC, zlib at 48.85 MB;
* 1.78x / 1.28x — BF3 vs BF2 C-Engine DEFLATE decompression.
"""

import pytest
from conftest import run_once

from repro.bench.experiments import run_experiment


def test_fig8(benchmark, experiment_kwargs):
    result = run_once(benchmark, run_experiment, "fig8", **experiment_kwargs)
    h = result.headlines

    assert h["bf2_deflate_xml_compress_speedup (paper 101.8)"] == pytest.approx(
        101.8, rel=0.05
    )
    assert h["bf2_deflate_xml_decompress_speedup (paper 11.2)"] == pytest.approx(
        11.2, rel=0.05
    )
    assert h["bf2_zlib_mozilla_compress_speedup (paper 84.6)"] == pytest.approx(
        84.6, rel=0.05
    )
    assert h["bf2_zlib_mozilla_decompress_speedup (paper 20)"] == pytest.approx(
        20.0, rel=0.05
    )
    assert h["bf3_vs_bf2_cengine_deflate_decomp_5MB (paper 1.78)"] == pytest.approx(
        1.78, rel=0.05
    )
    assert h["bf3_vs_bf2_cengine_deflate_decomp_49MB (paper 1.28)"] == pytest.approx(
        1.28, rel=0.05
    )

    # Insight 3: the C-Engine (where native) always beats the SoC.
    for row in result.rows:
        if row["device"] == "bf2" and row["design"] == "C-Engine_DEFLATE":
            soc = next(
                r
                for r in result.rows
                if r["device"] == "bf2"
                and r["design"] == "SoC_DEFLATE"
                and r["dataset"] == row["dataset"]
            )
            assert row["compress_s"] < soc["compress_s"]
            assert row["decompress_s"] < soc["decompress_s"]
