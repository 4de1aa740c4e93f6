"""The RST1 streaming engine: writer, reader, ``Compressor``/``Decompressor``.

ZipLine-style incremental compression for the fabric path: callers
``feed`` arbitrary byte slices and receive container bytes back as
soon as whole chunks are available, then ``flush`` to emit the final
partial chunk plus the mandatory end frame.  Internal state is bounded
by one chunk on both sides — a compressor buffers at most
``chunk_bytes`` of raw input, a decompressor at most one frame.

This module is the only code that writes or checks RST1.
:class:`FrameWriter` and :class:`FrameReader` do not know where the
chunk codec runs: ``Compressor``/``Decompressor`` are them plus the
local codec, :mod:`repro.serve.streaming` plus gateway tickets.

Flush ordering under a zero-length final chunk is part of the
contract: ``flush()`` after an empty (or absent) ``feed`` still emits
a well-formed header + terminator, and zero-length data frames are
never produced.  ``stream_compress``/``stream_decompress`` are the
one-shot conveniences; feeding the same bytes at any split points
yields the identical container.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.dpu.specs import Algo
from repro.errors import (
    CodecError,
    StreamChecksumError,
    StreamCorruptError,
    StreamError,
    StreamStateError,
    StreamTruncatedError,
)
from repro.plan.codecs import CodecConfig, byte_codec
from repro.stream.container import (
    ALGO_IDS,
    Frame,
    FrameParser,
    encode_data_frame,
    encode_end_frame,
    encode_stream_header,
)
from repro.util.framing import cap

__all__ = [
    "DEFAULT_CHUNK_BYTES",
    "StreamConfig",
    "FrameWriter",
    "FrameReader",
    "Compressor",
    "Decompressor",
    "stream_compress",
    "stream_decompress",
    "chunk_codec",
]

# Streaming quantum: large enough to amortize per-chunk codec/frame
# overhead, small enough that a 4 MiB message pipelines ~16 deep.
DEFAULT_CHUNK_BYTES = 256 * 1024

_U32_MAX = 0xFFFF_FFFF


@dataclass(frozen=True)
class StreamConfig:
    """Tuning for one streaming (de)compression session."""

    algo: Algo = Algo.DEFLATE
    chunk_bytes: int = DEFAULT_CHUNK_BYTES
    codecs: CodecConfig = field(default_factory=CodecConfig)

    def __post_init__(self) -> None:
        if self.algo not in ALGO_IDS:
            raise StreamError(
                f"algo {getattr(self.algo, 'value', self.algo)!r} is not "
                f"streamable (supported: "
                f"{sorted(a.value for a in ALGO_IDS)})"
            )
        if not 0 < self.chunk_bytes <= _U32_MAX:
            raise StreamError(
                f"chunk_bytes must be in [1, 2**32), got {self.chunk_bytes}"
            )


def chunk_codec(
    algo: Algo, codecs: CodecConfig | None = None
) -> "tuple[Callable[[bytes], bytes], Callable[..., bytes]]":
    """The per-chunk ``(compress, decompress)`` pair for ``algo``
    (``decompress`` takes a ``max_output`` cap)."""
    codec = byte_codec(algo, codecs)
    if codec is None:
        raise StreamError(f"algo {getattr(algo, 'value', algo)!r} is not streamable")
    return codec


class FrameWriter:
    """Writes one RST1 container chunk by chunk; the caller compresses.

    The stream header rides on the first frame (on the end frame if no
    chunk came first); the end frame carries the running total and CRC.
    """

    def __init__(self, config: StreamConfig) -> None:
        self.config = config
        self.total = 0  # raw bytes framed so far
        self.chunks_emitted = 0
        self.finished = False  # end frame written
        self._crc = 0
        self._header_emitted = False

    def header(self) -> bytes:
        """The stream header the first time, ``b""`` after."""
        if self._header_emitted:
            return b""
        self._header_emitted = True
        return encode_stream_header(self.config.algo, self.config.chunk_bytes)

    def split(self, raw: bytes) -> list[bytes]:
        """``raw`` cut into ``chunk_bytes`` pieces, the last one ragged."""
        size = self.config.chunk_bytes
        return [raw[i:i + size] for i in range(0, len(raw), size)]

    def frame(self, raw: bytes, payload: bytes) -> bytes:
        """The data frame for one non-empty raw chunk and its payload."""
        self._crc = zlib.crc32(raw, self._crc) & _U32_MAX
        self.total += len(raw)
        self.chunks_emitted += 1
        return self.header() + encode_data_frame(
            payload, len(raw), zlib.crc32(raw) & _U32_MAX
        )

    def end(self) -> bytes:
        """The mandatory end frame over everything framed so far."""
        self.finished = True
        return self.header() + encode_end_frame(self.total, self._crc)


class FrameReader:
    """Checks one RST1 container frame by frame; the caller feeds the
    bytes to :attr:`parser`, decodes each data frame's payload inside
    :meth:`undecodable` and hands the result to :meth:`check`.  Every
    error is a typed
    :class:`~repro.errors.StreamError`.
    """

    def __init__(self) -> None:
        self.parser = FrameParser()  # feed it the container bytes
        self.total = 0  # raw bytes checked so far
        self.chunks_decoded = 0
        self._crc = 0

    @property
    def finished(self) -> bool:
        """True once the end frame has been parsed."""
        return self.parser.finished

    @property
    def algo(self) -> Algo | None:
        """The container's codec (None until the header arrives)."""
        header = self.parser.header
        return None if header is None else header.algo

    @contextmanager
    def undecodable(self) -> Iterator[None]:
        """Around a chunk codec call: a payload the codec rejects is a
        corrupt *stream*, whichever codec it was and wherever it ran."""
        try:
            yield
        except StreamError:
            raise
        except CodecError as exc:
            raise StreamCorruptError(
                f"chunk {self.chunks_decoded} payload undecodable: {exc}"
            ) from exc

    def check(self, frame: Frame, raw: bytes = b"") -> bytes:
        """Verify ``raw`` against its data frame, or the stream so far
        against the end frame; returns ``raw``."""
        if frame.is_end:
            if frame.raw_len != self.total:
                raise StreamCorruptError(
                    f"end frame declares {frame.raw_len} raw bytes, "
                    f"decoded {self.total}"
                )
            if frame.crc != self._crc:
                raise StreamChecksumError("stream crc32", frame.crc, self._crc)
            return raw
        if len(raw) != frame.raw_len:
            raise StreamCorruptError(
                f"chunk {self.chunks_decoded} decoded to {len(raw)} bytes, "
                f"frame declared {frame.raw_len}"
            )
        actual = zlib.crc32(raw) & _U32_MAX
        if actual != frame.crc:
            raise StreamChecksumError("chunk crc32", frame.crc, actual)
        self._crc = zlib.crc32(raw, self._crc) & _U32_MAX
        self.total += len(raw)
        self.chunks_decoded += 1
        return raw

    def close(self) -> None:
        """Declare end-of-input; raises if the end frame never came."""
        parser = self.parser
        if not parser.finished:
            raise StreamTruncatedError(
                "container truncated: no end frame after "
                f"{parser.frames_parsed} data frame(s) "
                f"({parser.pending_bytes} byte(s) buffered mid-frame)"
            )


class Compressor:
    """Incremental RST1 compressor (``feed``/``flush``): a
    :class:`FrameWriter` plus the local chunk codec."""

    def __init__(self, config: StreamConfig | None = None) -> None:
        self.config = config or StreamConfig()
        self._writer = FrameWriter(self.config)
        self._compress, _ = chunk_codec(self.config.algo, self.config.codecs)
        self._buf = bytearray()

    @property
    def finished(self) -> bool:
        return self._writer.finished

    @property
    def chunks_emitted(self) -> int:
        return self._writer.chunks_emitted

    @property
    def buffered_bytes(self) -> int:
        """Raw bytes held back waiting for a full chunk (< chunk_bytes
        after every ``feed`` — the bounded-state guarantee)."""
        return len(self._buf)

    def feed(self, chunk: bytes) -> bytes:
        """Absorb ``chunk``; return any container bytes now complete."""
        writer = self._writer
        if writer.finished:
            raise StreamStateError("feed() after flush()")
        view = bytes(chunk)
        if not view:
            return b""  # empty feed is a no-op, not a frame
        if writer.total + len(self._buf) + len(view) > _U32_MAX:
            raise StreamError("streams are limited to < 4 GiB of raw input")
        out = bytearray(writer.header())
        self._buf += view
        size = self.config.chunk_bytes
        while len(self._buf) >= size:
            raw = bytes(self._buf[:size])
            del self._buf[:size]
            out += writer.frame(raw, self._compress(raw))
        return bytes(out)

    def flush(self) -> bytes:
        """Emit the final partial chunk (if any) and the end frame.

        Valid immediately after construction or an empty ``feed``: the
        result is still a well-formed container (header + terminator)
        that decodes to ``b""``.
        """
        writer = self._writer
        if writer.finished:
            raise StreamStateError("flush() called twice")
        out = b""
        if self._buf:
            raw = bytes(self._buf)
            self._buf.clear()
            out = writer.frame(raw, self._compress(raw))
        return out + writer.end()


class Decompressor:
    """Incremental RST1 decompressor (``feed``/``flush``): a
    :class:`FrameReader` plus the local chunk codec.

    Every error is a typed :class:`~repro.errors.StreamError` (format
    violations, checksum mismatches, truncation at flush) or
    :class:`~repro.errors.OutputOverflowError`; corrupt input can never
    hang — the parser simply stops at the damaged byte.
    """

    def __init__(self, max_output: int | None = None) -> None:
        self.max_output = max_output
        self._reader = FrameReader()
        self._decompress: "Callable[..., bytes] | None" = None
        self._flushed = False

    @property
    def finished(self) -> bool:
        """True once the end frame has been parsed and verified."""
        return self._reader.finished

    @property
    def algo(self) -> Algo | None:
        """The container's codec (None until the header arrives)."""
        return self._reader.algo

    @property
    def chunks_decoded(self) -> int:
        return self._reader.chunks_decoded

    def feed(self, data: bytes) -> bytes:
        """Absorb container bytes; return the raw bytes they complete."""
        if self._flushed:
            raise StreamStateError("feed() after flush()")
        reader = self._reader
        out = bytearray()
        for frame in reader.parser.feed(bytes(data)):
            out += reader.check(frame, b"" if frame.is_end else self._decode(frame))
        return bytes(out)

    def flush(self) -> bytes:
        """Declare end-of-input; raises if the container is incomplete."""
        if self._flushed:
            raise StreamStateError("flush() called twice")
        self._reader.close()
        self._flushed = True
        return b""

    # -- internals ---------------------------------------------------------

    def _decode(self, frame: Frame) -> bytes:
        reader = self._reader
        cap(reader.total + frame.raw_len, self.max_output,
            f"RST1 stream at chunk {reader.chunks_decoded}")
        if self._decompress is None:
            _, self._decompress = chunk_codec(reader.algo)
        with reader.undecodable():
            # Capped at the declared length: a frame that lies about its
            # raw_len cannot make the codec inflate past it.
            return self._decompress(frame.payload, frame.raw_len)


def stream_compress(data: bytes, config: StreamConfig | None = None) -> bytes:
    """One-shot convenience: the container for ``data``."""
    comp = Compressor(config)
    return comp.feed(data) + comp.flush()


def stream_decompress(blob: bytes, max_output: int | None = None) -> bytes:
    """One-shot convenience: decode a complete container."""
    dec = Decompressor(max_output=max_output)
    out = dec.feed(blob)
    dec.flush()
    return out
