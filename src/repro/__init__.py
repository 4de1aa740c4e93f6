"""PEDAL reproduction — DPU-accelerated lossy & lossless compression.

A from-scratch reproduction of *"Accelerating Lossy and Lossless
Compression on Emerging BlueField DPU Architectures"* (IPDPS 2024):
real codecs (DEFLATE / zlib / LZ4 / SZ3) over a calibrated simulation
of the BlueField-2/3 SoC + C-Engine + DOCA + InfiniBand stack, with the
PEDAL unified compression library and its MPICH co-design on top.

Top-level convenience re-exports cover the main entry points; each
subpackage's docstring maps its internals:

>>> from repro import Environment, make_device, PedalContext
>>> env = Environment()
>>> ctx = PedalContext(make_device(env, "bf2"))

Subpackages
-----------
``repro.algorithms``  from-scratch codecs,
``repro.sim``         discrete-event kernel,
``repro.dpu``         BlueField hardware model + calibration,
``repro.doca``        DOCA-shaped SDK simulation,
``repro.core``        the PEDAL library itself,
``repro.mpi``         simulated MPICH with the PEDAL shim,
``repro.serve``       multi-DPU serving gateway (batching + backpressure),
``repro.stream``      chunked streaming container + feed/flush codecs,
``repro.datasets``    synthetic Table IV corpora,
``repro.bench``       experiment harness for every table/figure.
"""

from repro.algorithms.deflate import deflate_compress, deflate_decompress
from repro.algorithms.lz4 import lz4_compress, lz4_decompress
from repro.algorithms.sz3 import SZ3Config, sz3_compress, sz3_decompress
from repro.algorithms.zlib_format import zlib_compress, zlib_decompress
from repro.core import ALL_DESIGNS, CompressionDesign, PedalContext, design
from repro.cluster import ClusterConfig, ServeCluster
from repro.dpu import BLUEFIELD2, BLUEFIELD3, make_device
from repro.errors import ReproError
from repro.mpi import CommConfig, CommMode, RankContext, run_mpi
from repro.serve import ServeConfig, ServeGateway, ServeRequest
from repro.sim import Environment
from repro.stream import (
    Compressor,
    Decompressor,
    StreamConfig,
    stream_compress,
    stream_decompress,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_DESIGNS",
    "BLUEFIELD2",
    "BLUEFIELD3",
    "CommConfig",
    "CommMode",
    "CompressionDesign",
    "Compressor",
    "Decompressor",
    "Environment",
    "PedalContext",
    "RankContext",
    "ClusterConfig",
    "ReproError",
    "SZ3Config",
    "ServeCluster",
    "ServeConfig",
    "ServeGateway",
    "ServeRequest",
    "StreamConfig",
    "__version__",
    "deflate_compress",
    "deflate_decompress",
    "design",
    "lz4_compress",
    "lz4_decompress",
    "make_device",
    "run_mpi",
    "stream_compress",
    "stream_decompress",
    "sz3_compress",
    "sz3_decompress",
    "zlib_compress",
    "zlib_decompress",
]
