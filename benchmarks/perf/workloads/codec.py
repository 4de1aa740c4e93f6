"""``codec_compress`` / ``codec_decompress``: the kernels, called directly.

Both bypass ``core`` (no memo), ``sim`` and everything above: host time
is the vectorised codec kernels plus a sliver of RST1 framing.  The two
directions are separate workloads because a matcher or table change can
speed one and slow the other.  Each has a *bulk* phase (seeded windows
of the Table IV corpora) and a *small-block* phase (1 KiB / 256 B
blocks), whose kernel profile — Huffman code-length construction, not
matching — is what every serving request pays.
"""

from __future__ import annotations

import zlib
from typing import Any

import numpy as np

from repro.algorithms.ac import ac_compress, ac_decompress
from repro.algorithms.deflate import deflate_compress, deflate_decompress
from repro.algorithms.lz4 import lz4_compress, lz4_decompress
from repro.algorithms.sz3 import SZ3Config, sz3_compress, sz3_decompress
from repro.algorithms.zlib_format import zlib_compress, zlib_decompress
from repro.dpu.specs import Algo
from repro.stream import Compressor, Decompressor, StreamConfig, stream_decompress

from workloads.base import (SZ3_ERROR_BOUND, RepAccount, Workload, digest_of,
                            sz3_within_bound)

__all__ = ["CodecCompress", "CodecDecompress"]

KIB = 1024
_SZ3 = SZ3Config(error_bound=SZ3_ERROR_BOUND)

# (corpus key, corpus bytes generated, window bytes) per bulk op, keyed by
# the codec that runs on it.  Sizes keep one rep under ~1 s on a 2-core
# box with no codec above ~40 % of it; xml is the shallow-chain side,
# mozilla the deep-chain side, obs_error near-incompressible floats.
_XML, _MOZ, _OBS = "silesia/xml", "silesia/mozilla", "obs_error"
_CORPUS_BYTES = {_XML: 256 * KIB, _MOZ: 128 * KIB, _OBS: 128 * KIB}
_COMPRESS_BULK = {
    "full": (
        ("deflate", _XML, 64 * KIB), ("deflate", _MOZ, 32 * KIB),
        ("zlib", _OBS, 48 * KIB),
        ("lz4", _XML, 128 * KIB), ("lz4", _MOZ, 64 * KIB),
        ("ac", _XML, 12 * KIB), ("ac", _OBS, 12 * KIB),
    ),
    "quick": (
        ("deflate", _XML, 8 * KIB), ("deflate", _MOZ, 4 * KIB),
        ("zlib", _OBS, 4 * KIB), ("lz4", _XML, 8 * KIB),
        ("ac", _XML, 2 * KIB),
    ),
}
# Decode windows are larger where inflate is faster than deflate; AC
# decode is ~0.15 MB/s, so its share is capped by a small window.
_DECOMPRESS_BULK = {
    "full": (
        ("deflate", _XML, 64 * KIB), ("deflate", _MOZ, 32 * KIB),
        ("zlib", _OBS, 32 * KIB),
        ("lz4", _XML, 128 * KIB), ("lz4", _MOZ, 96 * KIB),
        ("ac", _XML, 6 * KIB), ("ac", _OBS, 6 * KIB),
    ),
    "quick": (
        ("deflate", _XML, 8 * KIB), ("deflate", _MOZ, 4 * KIB),
        ("zlib", _OBS, 4 * KIB), ("lz4", _XML, 8 * KIB),
        ("ac", _XML, 1 * KIB),
    ),
}
# (sz3 floats, rst1 lz4 bytes, rst1 deflate bytes, deflate small blocks per
# size, lz4 small blocks per size, decode passes per rep)
_SHAPE = {
    ("compress", "full"): (40 * KIB, 96 * KIB, 24 * KIB, 32, 96, 1),
    ("compress", "quick"): (2 * KIB, 8 * KIB, 4 * KIB, 4, 8, 1),
    ("decompress", "full"): (32 * KIB, 96 * KIB, 32 * KIB, 32, 96, 1),
    ("decompress", "quick"): (2 * KIB, 8 * KIB, 4 * KIB, 4, 8, 1),
}
_SMALL_SIZES = (1 * KIB, 256)
_RST1_CHUNK = {"lz4": 16 * KIB, "deflate": 8 * KIB}
_RST1_FEEDS = 7



# The codec names are looked up at call time (no dispatch dict): a traced
# run rebinds them in this module, and a captured reference would dodge it.
def _compress_op(algo: str, payload: Any) -> bytes:
    if algo == "deflate":
        return deflate_compress(payload)
    if algo == "zlib":
        return zlib_compress(payload)
    if algo == "lz4":
        return lz4_compress(payload)
    if algo == "ac":
        return ac_compress(payload)
    if algo == "sz3":
        return sz3_compress(payload, _SZ3)
    return _rst1_compress(*payload)


def _decompress_op(algo: str, blob: bytes, payload: Any) -> Any:
    if algo == "deflate":
        return deflate_decompress(blob)
    if algo == "zlib":
        return zlib_decompress(blob)
    if algo == "lz4":
        return lz4_decompress(blob)
    if algo == "ac":
        return ac_decompress(blob)
    if algo == "sz3":
        return sz3_decompress(blob)
    return _rst1_decompress(blob, payload[2])


def _reference_decode(algo: str, blob: bytes) -> bytes:
    """Decode with an independent decoder where the stdlib has one."""
    if algo == "deflate":
        return zlib.decompress(blob, -15)
    if algo == "zlib":
        return zlib.decompress(blob)
    return _decompress_op(algo, blob, None)


class _CodecWorkload(Workload):
    """Shared seeded inputs: bulk windows, SZ3 field, RST1 data, blocks."""

    direction = ""

    def __init__(self, inputs, quick=False) -> None:
        super().__init__(inputs, quick)
        size = "quick" if quick else "full"
        bulk = (_COMPRESS_BULK if self.direction == "compress"
                else _DECOMPRESS_BULK)[size]
        (n_floats, rst_lz4, rst_deflate, n_small_deflate, n_small_lz4,
         self.passes) = _SHAPE[(self.direction, size)]
        # (tag, algo, raw payload) in creation order; the seed shuffles it.
        ops: list[tuple[str, str, Any]] = []
        for i, (algo, key, nbytes) in enumerate(bulk):
            (window,) = inputs.windows(
                f"{self.name}.bulk{i}", key, _CORPUS_BYTES[key], 1, nbytes)
            ops.append((f"bulk:{algo}:{key}", algo, window))
        (field,) = inputs.float_windows(
            f"{self.name}.sz3", "exaalt-dataset1", 256 * KIB, 1, n_floats)
        ops.append(("bulk:sz3:exaalt-dataset1", "sz3", field))
        for algo, nbytes in (("lz4", rst_lz4), ("deflate", rst_deflate)):
            (data,) = inputs.windows(
                f"{self.name}.rst1.{algo}", _XML, _CORPUS_BYTES[_XML], 1, nbytes)
            cuts = inputs.ragged_cuts(
                f"{self.name}.rst1.{algo}.cuts", nbytes, _RST1_FEEDS)
            ops.append((f"rst1:{algo}", "rst1", (algo, data, cuts)))
        for algo, count in (("deflate", n_small_deflate), ("lz4", n_small_lz4)):
            for nbytes in _SMALL_SIZES:
                blocks = inputs.windows(
                    f"{self.name}.small.{algo}.{nbytes}", _XML,
                    _CORPUS_BYTES[_XML], count, nbytes)
                ops.extend((f"small:{algo}:{nbytes}", algo, b) for b in blocks)
        order = inputs.order(f"{self.name}.order", len(ops))
        self.ops = [ops[i] for i in order]


def _rst1_compress(algo: str, data: bytes, cuts: list[int]) -> bytes:
    comp = Compressor(StreamConfig(
        algo=Algo(algo), chunk_bytes=_RST1_CHUNK[algo]))
    out = bytearray()
    for lo, hi in zip(cuts, cuts[1:]):
        out += comp.feed(data[lo:hi])
    out += comp.flush()
    return bytes(out)


def _rst1_decompress(container: bytes, cuts: list[int]) -> bytes:
    dec = Decompressor()
    out = bytearray()
    # Reuse the raw-side cut points, scaled onto the container.
    scale = len(container) / cuts[-1]
    edges = sorted({0, len(container), *(int(c * scale) for c in cuts[1:-1])})
    for lo, hi in zip(edges, edges[1:]):
        out += dec.feed(container[lo:hi])
    dec.flush()
    return bytes(out)


class CodecCompress(_CodecWorkload):
    name = "codec_compress"
    direction = "compress"

    def rep(self) -> list:
        outs = []
        for i, (_tag, algo, payload) in enumerate(self.ops):
            self.mark(i)
            outs.append(_compress_op(algo, payload))
        return outs

    def account(self, outs: list) -> RepAccount:
        raw = packed = 0
        for (_tag, algo, payload), blob in zip(self.ops, outs):
            raw += (payload.nbytes if algo == "sz3"
                    else len(payload[1]) if algo == "rst1" else len(payload))
            packed += len(blob)
        return RepAccount(ops=len(self.ops), raw_bytes=raw, packed_bytes=packed,
                          digest=digest_of(outs))

    def verify(self, outs: list) -> list[str]:
        failures = []
        for (tag, algo, payload), blob in zip(self.ops, outs):
            try:
                if algo == "sz3":
                    ok = sz3_within_bound(payload, sz3_decompress(blob))
                elif algo == "rst1":
                    ok = stream_decompress(blob) == payload[1]
                else:
                    ok = _reference_decode(algo, blob) == payload
            except Exception as exc:  # a decoder rejecting our output
                ok = False
                tag = f"{tag} ({type(exc).__name__}: {exc})"
            if not ok:
                failures.append(f"{self.name}: {tag} does not round-trip")
        return failures


class CodecDecompress(_CodecWorkload):
    name = "codec_decompress"
    direction = "decompress"

    def __init__(self, inputs, quick=False) -> None:
        super().__init__(inputs, quick)
        # Pre-compress every decode input once, during set-up.
        self.blobs = [_compress_op(algo, payload)
                      for _tag, algo, payload in self.ops]

    def rep(self) -> list:
        outs: list = []
        for _ in range(self.passes):
            outs = []
            for i, ((_tag, algo, payload), blob) in enumerate(
                    zip(self.ops, self.blobs)):
                self.mark(i)
                outs.append(_decompress_op(algo, blob, payload))
        return outs

    def account(self, outs: list) -> RepAccount:
        raw = sum(o.nbytes if isinstance(o, np.ndarray) else len(o)
                  for o in outs)
        packed = sum(len(b) for b in self.blobs)
        return RepAccount(
            ops=len(self.ops) * self.passes,
            raw_bytes=raw * self.passes, packed_bytes=packed * self.passes,
            digest=digest_of(outs))

    def verify(self, outs: list) -> list[str]:
        failures = []
        for (tag, algo, payload), out in zip(self.ops, outs):
            if algo == "sz3":
                ok = sz3_within_bound(payload, out)
            elif algo == "rst1":
                ok = out == payload[1]
            else:
                ok = out == payload
            if not ok:
                failures.append(f"{self.name}: {tag} decoded to wrong data")
        return failures
