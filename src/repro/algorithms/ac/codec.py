"""``ac`` container format and the decoupled model/coder stages.

Stream layout (little-endian)::

    offset  size  field
    0       4     magic  b"RAC1"
    4       1     model order (0..4)
    5       1     log2(chunk_bytes)
    6       1     table_bits
    7       1     reserved (0)
    8       4     u32 original length
    12      4     u32 CRC-32 of the original bytes
    16      ...   range-coded payload (absent when length == 0)

The stream is self-describing: the decoder reconstructs the model
configuration from the header, so ``ac_decompress`` needs no config.
The CRC turns any model/coder desync or surviving bit corruption into a
typed :class:`~repro.errors.ChecksumMismatchError` instead of silent
wrong output.

Compression is split into two *pure* stages mirroring EDPC's
model/coder decoupling:

* :func:`model_batches` — per chunk, hash contexts and gather the
  cumulative-frequency triples (vectorized numpy), then fold the chunk
  into the model.  Produces :class:`CodingBatch` items.
* :func:`encode_batches` — feed batches to the carry-aware range
  encoder.  Knows nothing about the model.

``ac_compress`` drives them back-to-back; ``ac_compress_pipelined``
drives them through a bounded queue (model may run at most
``queue_depth`` chunks ahead) and is asserted byte-identical to the
serial path.  The simulated-hardware twin of this dataflow lives in
:mod:`repro.sched.decoupled`.

Decompression is inherently single-stage: the model needs chunk *k*'s
decoded bytes before it can rank chunk *k+1*'s symbols.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.algorithms.ac.model import ACConfig, ContextModel
from repro.algorithms.ac.rangecoder import TOP, RangeDecoder, RangeEncoder
from repro.errors import CorruptStreamError, UnsupportedDataError
from repro.util.framing import Reader, cap, verify

MAGIC = b"RAC1"
_FIELDS = struct.Struct("<BBBBII")  # order, chunk_log2, table_bits, 0, length, crc
HEADER_BYTES = len(MAGIC) + _FIELDS.size

#: Default operating point (see ACConfig docstring).
DEFAULT_CONFIG = ACConfig()


@dataclass(frozen=True)
class CodingBatch:
    """One chunk's worth of model output, ready for the entropy coder.

    ``cum_lo``/``freq``/``total`` are parallel lists of cumulative
    frequency triples, one per symbol.  The batch is immutable and
    self-contained — exactly the unit that crosses the bounded queue
    between the model and coder stages.
    """

    chunk_index: int
    n_symbols: int
    cum_lo: list[int]
    freq: list[int]
    total: list[int]


def model_batches(
    data: bytes, config: ACConfig, model: "ContextModel | None" = None
) -> Iterator[CodingBatch]:
    """Stage 1: chunk the message and emit frequency-triple batches.

    The model adapts *after* each chunk, so batch *k*'s triples depend
    only on chunks ``< k`` — the coder never has to wait for feedback.
    """
    if model is None:
        model = ContextModel(config)
    arr = np.frombuffer(data, dtype=np.uint8)
    n = len(arr)
    chunk = config.chunk_bytes
    for chunk_index, start in enumerate(range(0, n, chunk)):
        stop = min(start + chunk, n)
        cum_lo, freq, total = model.chunk_triples(arr, start, stop)
        model.update_chunk(arr, start, stop)
        yield CodingBatch(
            chunk_index=chunk_index,
            n_symbols=stop - start,
            cum_lo=cum_lo,
            freq=freq,
            total=total,
        )


def encode_batches(batches: Iterable[CodingBatch]) -> bytes:
    """Stage 2: run the range encoder over the batch stream."""
    enc = RangeEncoder()
    encode = enc.encode
    for batch in batches:
        for lo, fr, tot in zip(batch.cum_lo, batch.freq, batch.total):
            encode(lo, fr, tot)
    return enc.flush()


def _pipelined_batches(
    batches: Iterator[CodingBatch], queue_depth: int
) -> Iterator[CodingBatch]:
    """Bounded-queue driver between the two stages.

    With synchronous generators this is a read-ahead buffer: the model
    stage runs at most ``queue_depth`` chunks ahead of the coder.  The
    dataflow (and therefore the bytes) is identical to the serial path;
    the *time* overlap it enables is modelled in repro.sched.decoupled.
    """
    if queue_depth < 1:
        raise ValueError("queue_depth must be >= 1")
    queue: deque[CodingBatch] = deque()
    exhausted = False
    while True:
        while not exhausted and len(queue) < queue_depth:
            try:
                queue.append(next(batches))
            except StopIteration:
                exhausted = True
        if not queue:
            return
        yield queue.popleft()


def _header(config: ACConfig, length: int, crc: int) -> bytes:
    return MAGIC + _FIELDS.pack(
        config.order, config.chunk_log2, config.table_bits, 0,
        length, crc,
    )


def ac_compress(
    data: bytes, config: "ACConfig | None" = None
) -> bytes:
    """Compress ``data`` with the adaptive-context range coder."""
    if config is None:
        config = DEFAULT_CONFIG
    if len(data) > 0xFFFF_FFFF:
        raise UnsupportedDataError("ac streams are limited to < 4 GiB")
    crc = zlib.crc32(data) & 0xFFFF_FFFF
    head = _header(config, len(data), crc)
    if not data:
        return head
    payload = encode_batches(model_batches(data, config))
    return head + payload


def ac_compress_pipelined(
    data: bytes, config: "ACConfig | None" = None, queue_depth: int = 2
) -> bytes:
    """Two-stage compress through a bounded model→coder queue.

    Byte-identical to :func:`ac_compress` by construction; exists so
    tests and the ``edpc`` bench can assert that the decoupled dataflow
    changes *when* work happens, never *what* is produced.
    """
    if config is None:
        config = DEFAULT_CONFIG
    if len(data) > 0xFFFF_FFFF:
        raise UnsupportedDataError("ac streams are limited to < 4 GiB")
    crc = zlib.crc32(data) & 0xFFFF_FFFF
    head = _header(config, len(data), crc)
    if not data:
        return head
    staged = _pipelined_batches(model_batches(data, config), queue_depth)
    return head + encode_batches(staged)


def parse_header(blob: bytes) -> tuple[ACConfig, int, int]:
    """Validate the container header; returns (config, length, crc)."""
    r = Reader(blob, "ac")
    r.magic(MAGIC)
    order, chunk_log2, table_bits, reserved, length, crc = r.unpack(_FIELDS)
    if reserved != 0:
        raise CorruptStreamError(f"nonzero reserved header byte {reserved}")
    try:
        config = ACConfig(
            order=order,
            chunk_bytes=1 << chunk_log2,
            table_bits=table_bits,
        )
    except ValueError as exc:
        raise CorruptStreamError(f"invalid ac header parameters: {exc}") from exc
    return config, length, crc


def ac_decompress(blob: bytes, max_output: "int | None" = None) -> bytes:
    """Decompress an ``ac`` stream produced by :func:`ac_compress`.

    Raises typed errors on any malformed input: CorruptStreamError for
    truncation/format violations, ChecksumMismatchError when the CRC
    disagrees, OutputOverflowError when the declared length exceeds
    ``max_output``.  The symbol loop is bounded by the declared length
    and every renormalization consumes interval width, so corrupt
    streams can never hang the decoder.

    The loop is :class:`RangeDecoder` with the coder state in locals and
    ``ContextModel.sparse_rows`` bisected in place of a dense row;
    ``reference.decode_stepwise`` is the same decode through the decoder
    object and the dense rows of ``reference.ac.RowContextModel``
    (DESIGN.md §5j, decode rounds 2-3).
    """
    config, length, crc = parse_header(blob)
    cap(length, max_output, "ac")
    if length == 0:
        verify("crc32", crc, 0)
        return b""
    # The payload runs to the end of the blob: the range decoder reads
    # only as far as ``length`` symbols need.
    payload = blob[HEADER_BYTES:]
    primed = RangeDecoder(payload)  # pad byte + first code bytes, or typed error
    code, rng, pos = primed.code, primed.range, primed.bytes_consumed
    model = ContextModel(config)
    uniform = model.uniform_row
    order = config.order
    # The last ``order`` bytes, newest lowest; zeros before the message.
    history = 0
    history_mask = (1 << 8 * order) - 1
    out = bytearray()
    try:
        for start in range(0, length, config.chunk_bytes):
            stop = min(start + config.chunk_bytes, length)
            # The tables are frozen within a chunk, so a history names
            # its row: one hash and one row lookup per distinct history.
            rows: dict = {}
            if start:  # nothing is folded in before the first boundary
                row_of, lows, highs, syms = model.sparse_rows()
            for _ in range(start, stop):
                row = rows.get(history)
                if row is None:
                    row = rows[history] = row_of(
                        model.context_hash_packed(history)) if start else uniform
                if row is uniform:
                    # row[s] == s, total 256: the search is the division.
                    r = rng >> 8
                    sym = code // r
                    if sym < 255:
                        rng = r
                    else:
                        sym = 255
                        rng -= r * 255
                    code -= r * sym
                else:
                    first, end, base, total = row
                    r = rng // total
                    target = code // r
                    if target >= total:  # top-symbol slack, or corrupt input
                        target = total - 1
                    at = bisect_right(lows, target + base, first, end) - 1
                    if at < first:  # below the context's first symbol
                        sym = lo = target
                        hi = target + 1
                    else:
                        hi = highs[at] - base
                        if target < hi:  # a symbol the context has seen
                            sym = syms[at]
                            lo = lows[at] - base
                        else:  # an unseen one past it, one unit wide
                            sym = syms[at] + 1 + target - hi
                            lo = target
                            hi = target + 1
                    code -= r * lo
                    if hi == total:
                        rng -= r * lo
                    else:
                        rng = r * (hi - lo)
                if code >= rng:
                    raise CorruptStreamError(
                        "decoder state invariant violated (corrupt stream)")
                while rng < TOP:
                    rng <<= 8  # < 2**32: rng was below 2**24
                    code = code << 8 | payload[pos]
                    pos += 1
                out.append(sym)
                history = (history << 8 | sym) & history_mask
            if stop < length:
                # Fold the chunk in; its contexts reach ``order`` bytes back.
                base = max(start - order, 0)
                model.update_chunk(np.frombuffer(out[base:stop], dtype=np.uint8),
                                   start - base, stop - base)
    except IndexError:  # payload[pos]
        raise CorruptStreamError(
            f"range-coded payload truncated at byte {pos}") from None
    except ZeroDivisionError:  # r == 0: a total above the range
        raise CorruptStreamError(
            "range collapsed during decode (corrupt stream)") from None
    raw = bytes(out)
    verify("crc32", crc, zlib.crc32(raw) & 0xFFFF_FFFF)
    return raw
