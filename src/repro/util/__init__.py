"""Low-level utilities shared by the codecs and the simulator.

Contents
--------
:mod:`repro.util.bitio`
    LSB-first bit-stream reader/writer used by DEFLATE and the SZ3 Huffman
    stage, with numpy-vectorised bulk code packing.
:mod:`repro.util.checksums`
    From-scratch, table-driven CRC-32 (IEEE 802.3) and vectorised Adler-32.
:mod:`repro.util.xxhash32`
    xxHash32 used by the LZ4 frame format.
:mod:`repro.util.framing`
    The bounded field reader every one-shot container decoder reads
    through, plus the shared checksum and output-cap checks.
:mod:`repro.util.stats`
    Byte histograms and Shannon-entropy estimators used by dataset
    generators and block-type heuristics.
"""

from repro.util.bitio import BitReader, BitWriter
from repro.util.checksums import adler32, crc32
from repro.util.stats import byte_entropy, byte_histogram
from repro.util.xxhash32 import xxh32

__all__ = [
    "BitReader",
    "BitWriter",
    "adler32",
    "byte_entropy",
    "byte_histogram",
    "crc32",
    "xxh32",
]
