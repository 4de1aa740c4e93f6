"""Hybrid zlib: DEFLATE payload on the C-Engine, header/trailer on the SoC.

The paper's Fig. 3 pipeline::

    init_data_env -> prepare_data_buffer -> data_compressing (C-Engine)
                  -> zlib_header + zlib_trailer (SoC) -> assemble

The *data* produced is byte-identical to a plain zlib stream (the split
is an execution-placement concern, not a format change), so a receiver
needs no knowledge of where the sender ran each piece.  This module
performs the real codec work stage by stage and reports the stage byte
counts; :mod:`repro.core.api` charges the simulated hardware
accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.deflate import DeflateConfig, deflate_compress, deflate_decompress
from repro.algorithms.zlib_format import (
    assemble_zlib_stream,
    build_zlib_header,
    build_zlib_trailer,
    split_zlib_stream,
)
from repro.util.checksums import adler32
from repro.util.framing import verify

__all__ = ["ZlibStageSizes", "hybrid_zlib_compress", "hybrid_zlib_decompress"]


@dataclass(frozen=True)
class ZlibStageSizes:
    """Byte counts of the two hybrid stages."""

    deflate_payload_bytes: int  # C-Engine stage output
    checksum_bytes: int  # SoC stage input (adler32 over the raw data)


def hybrid_zlib_compress(
    data: bytes, config: DeflateConfig | None = None
) -> tuple[bytes, ZlibStageSizes]:
    """Stage-split zlib compression; returns (stream, stage sizes)."""
    # C-Engine stage: the raw DEFLATE payload.
    payload = deflate_compress(data, config)
    # SoC stage: 2-byte header + adler32 trailer over the raw data.
    header = build_zlib_header()
    trailer = build_zlib_trailer(data)
    stream = assemble_zlib_stream(payload, header, trailer)
    return stream, ZlibStageSizes(
        deflate_payload_bytes=len(payload), checksum_bytes=len(data)
    )


def hybrid_zlib_decompress(
    stream: bytes, max_output: int | None = None
) -> tuple[bytes, ZlibStageSizes]:
    """Stage-split zlib decompression; returns (data, stage sizes).
    ``max_output`` caps the inflated length."""
    # SoC stage (header side): parse/validate RFC 1950 framing.
    payload, stored = split_zlib_stream(stream)
    # C-Engine stage: inflate the DEFLATE payload.
    data = deflate_decompress(payload, max_output)
    # SoC stage (trailer side): adler32 verification.
    verify("adler32", stored, adler32(data))
    return data, ZlibStageSizes(
        deflate_payload_bytes=len(payload), checksum_bytes=len(data)
    )
