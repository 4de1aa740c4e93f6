"""Streaming compression for the fabric path (ZipLine-style).

A chunked, self-describing container (RST1) plus incremental
``Compressor``/``Decompressor`` objects with ``feed``/``flush``
semantics and bounded internal state.  Their engine — one
``FrameWriter``, one ``FrameReader`` — is also what MPI rendezvous
(:mod:`repro.mpi.streaming`) and the serving gateway
(:mod:`repro.serve.streaming`) run, so a stream compressed anywhere in
the system decodes anywhere else.
"""

from repro.stream.api import (
    DEFAULT_CHUNK_BYTES,
    Compressor,
    Decompressor,
    FrameReader,
    FrameWriter,
    StreamConfig,
    chunk_codec,
    stream_compress,
    stream_decompress,
)
from repro.stream.container import (
    ALGO_BY_ID,
    ALGO_IDS,
    FRAME_DATA,
    FRAME_END,
    FRAME_HEADER_BYTES,
    MAGIC,
    STREAM_HEADER_BYTES,
    VERSION,
    Frame,
    FrameParser,
    StreamHeader,
    encode_data_frame,
    encode_end_frame,
    encode_stream_header,
)

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "Compressor",
    "Decompressor",
    "FrameReader",
    "FrameWriter",
    "StreamConfig",
    "chunk_codec",
    "stream_compress",
    "stream_decompress",
    "ALGO_BY_ID",
    "ALGO_IDS",
    "FRAME_DATA",
    "FRAME_END",
    "FRAME_HEADER_BYTES",
    "MAGIC",
    "STREAM_HEADER_BYTES",
    "VERSION",
    "Frame",
    "FrameParser",
    "StreamHeader",
    "encode_data_frame",
    "encode_end_frame",
    "encode_stream_header",
]
