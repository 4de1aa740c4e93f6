"""Table V — compression ratios of the PEDAL designs.

(a) DEFLATE / LZ4 / zlib over the five lossless datasets;
(b) SZ3 and SZ3(C-Engine) over the three EXAALT datasets at the paper's
1e-4 error bound.  These are *real* ratios measured by running the
from-scratch codecs over the synthetic corpora — no cost model involved.
"""

from __future__ import annotations

from repro.algorithms.deflate import deflate_compress
from repro.algorithms.lz4 import lz4_compress
from repro.algorithms.sz3 import SZ3Compressor, SZ3Config
from repro.algorithms.zlib_format import zlib_compress
from repro.bench.harness import (
    DEFAULT_ACTUAL_BYTES,
    ExperimentResult,
    generate_payload,
    register_experiment,
)
from repro.datasets import lossless_datasets, lossy_datasets
from repro.plan.sz3_hybrid import hybrid_sz3_compress

__all__ = ["run", "PAPER_LOSSLESS", "PAPER_LOSSY"]

# Table V(a)/(b) values from the paper, for side-by-side display.
PAPER_LOSSLESS = {
    "obs_error": {"DEFLATE": 1.469, "LZ4": 1.204, "zlib": 1.469},
    "silesia/mozilla": {"DEFLATE": 2.683, "LZ4": 2.319, "zlib": 2.683},
    "silesia/mr": {"DEFLATE": 2.712, "LZ4": 2.348, "zlib": 2.712},
    "silesia/samba": {"DEFLATE": 3.963, "LZ4": 3.517, "zlib": 3.963},
    "silesia/xml": {"DEFLATE": 7.769, "LZ4": 6.933, "zlib": 7.769},
}
PAPER_LOSSY = {
    "exaalt-dataset1": {"SZ3": 2.941, "SZ3(C-Engine)": 2.940},
    "exaalt-dataset3": {"SZ3": 5.745, "SZ3(C-Engine)": 5.844},
    "exaalt-dataset2": {"SZ3": 5.378, "SZ3(C-Engine)": 4.971},
}

COLUMNS = [
    "dataset",
    "DEFLATE",
    "paper_DEFLATE",
    "LZ4",
    "paper_LZ4",
    "zlib",
    "paper_zlib",
    "SZ3",
    "paper_SZ3",
    "SZ3(C-Engine)",
    "paper_SZ3(C-Engine)",
]


@register_experiment("table5")
def run(actual_bytes: int = DEFAULT_ACTUAL_BYTES) -> ExperimentResult:
    result = ExperimentResult(
        experiment="table5",
        title="Table V: compression ratios (measured vs paper)",
        columns=COLUMNS,
    )
    for ds in lossless_datasets():
        data = generate_payload(ds.key, actual_bytes)
        n = len(data)
        paper = PAPER_LOSSLESS[ds.key]
        result.rows.append(
            {
                "dataset": ds.key,
                "DEFLATE": n / len(deflate_compress(data)),
                "paper_DEFLATE": paper["DEFLATE"],
                "LZ4": n / len(lz4_compress(data)),
                "paper_LZ4": paper["LZ4"],
                "zlib": n / len(zlib_compress(data)),
                "paper_zlib": paper["zlib"],
            }
        )
    config = SZ3Config(error_bound=1e-4)
    for ds in lossy_datasets():
        array = generate_payload(ds.key, actual_bytes)
        n = array.nbytes
        paper = PAPER_LOSSY[ds.key]
        soc_stream = SZ3Compressor(config).compress(array)
        ce_stream = hybrid_sz3_compress(array, config).stream
        result.rows.append(
            {
                "dataset": ds.key,
                "SZ3": n / len(soc_stream),
                "paper_SZ3": paper["SZ3"],
                "SZ3(C-Engine)": n / len(ce_stream),
                "paper_SZ3(C-Engine)": paper["SZ3(C-Engine)"],
            }
        )

    # Headline: maximum relative deviation from the paper's DEFLATE column.
    worst = 0.0
    for row in result.rows:
        if "DEFLATE" in row and row.get("DEFLATE"):
            worst = max(
                worst,
                abs(row["DEFLATE"] - row["paper_DEFLATE"]) / row["paper_DEFLATE"],
            )
    result.headlines["max_deflate_ratio_rel_error"] = worst
    result.notes.append(
        "zlib == DEFLATE + 6 wrapper bytes, hence identical ratios at "
        "table precision (as in the paper)"
    )
    return result
