#!/usr/bin/env python3
"""Scientific lossy-compression pipeline (the paper's intro workload).

An HPC application producing molecular-dynamics snapshots wants to ship
them off-node with bounded error.  This example walks SZ3's modular
pipeline stage by stage (preprocess -> predict -> quantise -> encode ->
lossless backend), compares predictors and backends, verifies the error
bound, and then shows PEDAL's hybrid trick: rerouting only the lossless
stage to the BlueField-2 C-Engine (paper Fig. 4).

Run:  python examples/scientific_lossy_pipeline.py
"""

import numpy as np

from repro.algorithms.sz3 import SZ3Compressor, SZ3Config, sz3_decompress
from repro.datasets import get_dataset
from repro.dpu.calibration import CAL_BF2
from repro.dpu.specs import Algo, Direction
from repro.plan.sz3_hybrid import hybrid_sz3_compress


def main() -> None:
    # Three MD snapshots of increasing temperature (== decreasing
    # compressibility), as in the paper's EXAALT suite.
    budget = 256 * 1024
    snapshots = {
        key: get_dataset(key).generate(budget)
        for key in ("exaalt-dataset1", "exaalt-dataset2", "exaalt-dataset3")
    }

    print("== predictor / backend comparison (error bound 1e-4) ==")
    print(f"{'dataset':17s} {'predictor':9s} {'backend':9s} {'ratio':>7s} {'max err':>10s}")
    for key, field in snapshots.items():
        for predictor in ("lorenzo", "interp"):
            for backend in ("zstdlite", "deflate", "lz4"):
                cfg = SZ3Config(
                    error_bound=1e-4, predictor=predictor, backend=backend
                )
                stream = SZ3Compressor(cfg).compress(field)
                recon = sz3_decompress(stream)
                err = np.abs(
                    recon.astype(np.float64) - field.astype(np.float64)
                ).max()
                assert err <= 1e-4 + 1e-6, "error bound violated!"
                print(
                    f"{key:17s} {predictor:9s} {backend:9s} "
                    f"{field.nbytes / len(stream):7.2f} {err:10.2e}"
                )

    print("\n== stage anatomy of one compression ==")
    field = snapshots["exaalt-dataset1"]
    compressor = SZ3Compressor(SZ3Config(error_bound=1e-4))
    compressor.compress(field)
    sizes = compressor.last_stage_sizes
    print(f"input           : {sizes.input_bytes:8d} bytes")
    print(f"entropy payload : {sizes.entropy_payload_bytes:8d} bytes "
          f"(after predict+quantise+Huffman)")
    print(f"backend blob    : {sizes.backend_blob_bytes:8d} bytes "
          f"(after the lossless stage)")
    print(f"final stream    : {sizes.stream_bytes:8d} bytes")

    print("\n== PEDAL's hybrid: offload the lossless stage ==")
    hybrid = hybrid_sz3_compress(field, SZ3Config(error_bound=1e-4))
    # What the simulated BF2 charges for the offloaded stage vs on-SoC:
    stage = hybrid.sizes.entropy_payload_bytes
    on_soc = stage / CAL_BF2.sz3_backend_deflate_throughput
    on_engine = CAL_BF2.cengine_time(Algo.DEFLATE, Direction.COMPRESS, stage)
    print(f"lossless stage over {stage} bytes:")
    print(f"  on SoC cores : {on_soc * 1e3:7.3f} ms (simulated)")
    print(f"  on C-Engine  : {on_engine * 1e3:7.3f} ms (simulated)")
    print(f"  ratio (hybrid stream): {field.nbytes / len(hybrid.stream):.2f} "
          f"— Table V(b)'s 'SZ3(C-Engine)' column")


if __name__ == "__main__":
    main()
