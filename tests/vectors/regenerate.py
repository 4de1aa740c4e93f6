#!/usr/bin/env python
"""Regenerate the golden compressed-vector corpus and its manifest.

Run from the repository root::

    PYTHONPATH=src python tests/vectors/regenerate.py [--format-change]

Rewrites ``<case>.in`` / ``<case>.<codec>.bin`` pairs and
``manifest.json`` (sha256 of every artifact, plus ``digest_pins``:
encoder output pinned by sha256 alone, at the sizes ``benchmarks/perf``
runs and on the matcher corners where an escape once lived, and
``dataset_pins``: every ``repro.datasets`` corpus at every size the
repository generates it).  The loader tests
(:mod:`tests.vectors.test_golden_vectors`,
:mod:`tests.vectors.test_benchmark_scale_digests`,
:mod:`tests.datasets.test_dataset_pins`) fail when current encoder or
generator output drifts from these pins — an unintentional format change
shows up as a diff here before it ever corrupts someone's stored data.

A digest that is already pinned is never changed silently: without
``--format-change`` the script prints every drifting digest and exits
non-zero without writing anything.  New pins are added freely.

Inputs are generated from fixed seeds, so regeneration only changes
the ``.bin`` side unless the corpus definition itself is edited.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.algorithms.ac import ACConfig, ac_compress
from repro.algorithms.deflate import DeflateConfig, deflate_compress
from repro.algorithms.gzip_format import gzip_compress
from repro.algorithms import lz4
from repro.algorithms.lz4 import Lz4Config, lz4_compress
from repro.algorithms.lz77 import MatcherConfig
from repro.algorithms.sz3 import SZ3Config, sz3_compress, sz3_decompress
from repro.algorithms.zlib_format import zlib_compress
from repro.algorithms.zstdlite import zstdlite_compress
from repro.core.parallel import ParallelCompressor, ParallelConfig
from repro.datasets import DATASETS, get_dataset
from repro.dpu import make_device
from repro.dpu.specs import Algo
from repro.sim import Environment
from repro.stream import StreamConfig, stream_compress

VECTOR_DIR = Path(__file__).resolve().parent
KIB = 1024


def lz4_block_compress(data: bytes) -> bytes:
    """A bare LZ4 block, the codec looked up at call time so that
    ``reference.twins()`` reaches it."""
    return lz4.lz4_block_compress(data)


BYTE_CODECS = {
    "deflate": deflate_compress,
    "zlib": zlib_compress,
    "gzip": gzip_compress,
    "lz4b": lz4_block_compress,
    "lz4f": lz4_compress,
    "zstdlite": zstdlite_compress,
    "ac": ac_compress,
}

SZ3_ERROR_BOUND = 1e-3


def byte_inputs() -> "dict[str, bytes]":
    rng = np.random.default_rng(20260806)
    return {
        "text": b"PEDAL offloads compression to the BlueField C-Engine. " * 20,
        "runs": b"\x00" * 600 + b"\x7f" * 600 + b"ab" * 150,
        # Adversarial for the vectorized matcher's literal-skip table:
        # a zero run longer than 2x the 258-byte match cap, short-period
        # repeats and a ramp tail with no 3-byte repeats at all.
        "runs2": b"\x00" * 1024 + b"\x7f\x80" * 300 + b"PQRS" * 200
        + bytes(range(64)) * 3,
        "ramp": (np.arange(1200) % 251).astype(np.uint8).tobytes(),
        "noise": rng.bytes(900),
    }


def sz3_input() -> np.ndarray:
    t = np.linspace(0.0, 12.0, 1500)
    return (np.sin(t) + 0.25 * np.sin(6.3 * t)).astype(np.float32)


# RST1 streaming-container vectors (PR 10): freeze the chunked wire
# format the MPI fabric path and the serving gateway both ship.
STREAM_CHUNK_BYTES = 1024
STREAM_ALGOS = {"deflate": Algo.DEFLATE, "ac": Algo.AC, "lz4": Algo.LZ4}


def stream_inputs() -> "dict[str, bytes]":
    return {
        # header + end frame only: the flush-after-empty-feed contract
        "stream-empty": b"",
        # single sub-chunk data frame
        "stream-tiny": b"A",
        # multi-chunk hypersparse telemetry window
        "stream-telemetry": get_dataset("net_telemetry").generate(6000),
    }


# -- digest pins: encoder output pinned by sha256, no artifact file ----------


def _head(key: str, nbytes: int) -> bytes:
    return bytes(get_dataset(key).generate(nbytes))


def _exaalt_window() -> np.ndarray:
    field = get_dataset("exaalt-dataset1").generate(256 * KIB)
    return np.ascontiguousarray(field[: 40 * KIB])


def _low_entropy(n: int) -> bytes:
    """``n`` bytes, three in four zero, the rest one, from an LCG (no
    RNG-version drift): long same-hash chains, so ``max_chain`` binds."""
    state, out = 16, bytearray()
    for _ in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out.append((state >> 16) % 4 == 3)
    return bytes(out)


def _hot_context(n: int) -> bytes:
    """``n`` bytes, 63 in 64 zero, from an LCG: the all-zero context
    takes > 90 % of the hits at every order, so at the default
    ``max_total`` it is halved before the last 4 KiB chunk of 40 KiB."""
    state, out = 29, bytearray()
    for _ in range(n):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(state >> 16 & 0xFF if state >> 24 & 63 == 0 else 0)
    return bytes(out)


#: Chunk length of the skip pin below.
AC_SKIP_CHUNK = 2048


def _ac_skip() -> bytes:
    """Three ``AC_SKIP_CHUNK`` chunks for ``max_total`` 2^10: the first
    gives the all-zero context ~2 000 hits, so it is still over budget
    after one halving; the second never visits it and it is halved
    again at that boundary; the third codes zeros with what is left."""
    n = AC_SKIP_CHUNK
    return bytes(n - 2) + b"bb" + b"a" * n + bytes(n) + b"xyz" * 200


def _ac_with(**config):
    config = ACConfig(**config)
    return lambda data: ac_compress(data, config)


def _incompressible(n: int) -> bytes:
    """``n`` bytes of a sha256 counter stream (no RNG-version drift): no
    LZ4 block shrinks it, so every block is stored."""
    return b"".join(hashlib.sha256(i.to_bytes(4, "little")).digest()
                    for i in range(-(-n // 32)))[:n]


def _lz4_with(block_size_code: int, acceleration: int = 1):
    config = Lz4Config(acceleration=acceleration)
    return lambda data: lz4_compress(data, config, block_size_code=block_size_code)


def _sz3_with(**config):
    config = SZ3Config(error_bound=1e-4, **config)
    return lambda field: sz3_compress(field, config)


def _parallel_8chunks(data: bytes) -> bytes:
    """The chunk-parallel container (RST1, one DEFLATE frame per chunk)."""
    env = Environment()
    compressor = ParallelCompressor(make_device(env, "bf2"), ParallelConfig(n_chunks=8))
    return env.run(until=env.process(compressor.compress(data))).payload


def _deflate_with(matcher: "dict | None" = None, **config):
    config = DeflateConfig(matcher=MatcherConfig(**(matcher or {})), **config)
    return lambda data: deflate_compress(data, config)


def _serve_window() -> bytes:
    """The first of ``serve_sweep``'s 64 pool windows at the benchmark's
    default seed: 256 B of the 256 KiB ``silesia/xml`` corpus."""
    return _head("silesia/xml", 256 * KIB)[182140:182140 + 256]


#: Literal count per code length of :func:`_cl_limit_binds` (end of
#: block is the 56th 15-bit code).  The lengths fill the code space
#: exactly; as the code-length alphabet's histogram (plus the one
#: distance code and the zero run) they make a Huffman tree 8 deep.
CL_BIND_COUNTS = {1: 1, 2: 1, 3: 1, 5: 1, 6: 2, 7: 4, 8: 2, 9: 4, 10: 4,
                  11: 9, 12: 9, 13: 11, 14: 34, 15: 55}

def _litlen_limit_binds() -> bytes:
    """128 KiB over 18 byte values, byte ``k`` ``2**(k - 1)`` times (byte
    0 once): with end of block, a literal/length Huffman tree 17 deep."""
    return bytes([0]) + b"".join(bytes([k]) * (1 << (k - 1)) for k in range(1, 18))


def _cl_limit_binds() -> bytes:
    """Byte ``b`` ``2**(15 - L)`` times, its code length ``L`` dealt from
    :data:`CL_BIND_COUNTS` so that no four neighbours share one (the RLE
    would fold such a run into a repeat code): the literal/length tree
    is forced, and the code-length tree built from it is 8 deep."""
    left = dict(CL_BIND_COUNTS)
    lengths: "list[int]" = []
    while any(left.values()):
        length = max((n, bits) for bits, n in left.items()
                     if n and lengths[-3:] != [bits] * 3)[1]
        lengths.append(length)
        left[length] -= 1
    return b"".join(bytes([b]) * (1 << (15 - bits)) for b, bits in enumerate(lengths))


#: The 40-byte input on which the LZ77 walk once quartered a budget
#: clamped to len(data) instead of ``max_chain`` (see
#: tests/algorithms/test_lz77_layout.py).
CHAIN_COUNTEREXAMPLE = bytes([0] * 8 + [2, 1] + [0] * 20 + [3] + [0] * 8 + [2])

#: The ``exaalt-dataset1`` floats the SZ3R pins code: about 17 % of
#: their Lorenzo residuals at 1e-4 are escapes (11 % under ``interp``).
SZ3_PIN_FLOATS = 8 * KIB

#: name -> (make input, encode).  The first five are the
#: ``codec_compress`` / ``stream_paths`` operating points (the golden
#: vectors are <= 6 KB, so a matcher change that only alters tokens once
#: chains get deep, the window binds or a block spans several Huffman
#: blocks passes them); then the ``max_chain`` corners around the input
#: length, with a ``good_match`` that shrinks the walk (a budget clamped
#: to the input length reads 2n as n + 1); then the ``pedal_ops``
#: chunk-parallel container's framing; last the small blocks
#: ``serve_sweep`` encodes, around the size at which a DEFLATE block
#: stops being a few hundred tokens, zstd-lite's shallow greedy matcher
#: on the serve request and on 1 KiB of xml, a 64-byte window on that
#: 1 KiB (matcher paths the default-config small pins do not reach), and
#: two inputs on which a Huffman length limit binds (the literal/length
#: and the code-length tree).  Then the AC context model: the two
#: 12 KiB ``codec_compress`` windows, every order on an input that halves
#: its hot context, both ends of ``table_bits`` and ``chunk_bytes``, and
#: both ends of ``max_total`` (encoder bytes only: the RAC1 header does
#: not carry it, so only the default decodes), one of them on an input
#: whose middle chunk skips a context that is still over budget.  Last
#: the LZ4 frame at block-size codes 4 (64 KiB blocks, so every window
#: spans several) and 7 on the xml, mozilla and obs_error windows, an
#: incompressible window (stored blocks) and the empty input; bare LZ4
#: blocks of 128 B, 256 B and 1 KiB of xml and of 2 047-2 049 bytes
#: (the frame stores a block that does not shrink, so small inputs are
#: pinned as blocks); and acceleration 4 on ``obs_error``, where probe
#: misses run long enough for the stride to grow (on mozilla they never
#: do, and acceleration changes no byte).
DIGEST_PINS = {
    "deflate-xml-64k": (lambda: _head("silesia/xml", 64 * KIB), deflate_compress),
    "deflate-mozilla-32k": (
        lambda: _head("silesia/mozilla", 32 * KIB), deflate_compress),
    "deflate-telemetry-8k-chunk": (
        lambda: _head("net_telemetry", 48 * KIB)[: 8 * KIB], deflate_compress),
    "zlib-obs-error-48k": (lambda: _head("obs_error", 48 * KIB), zlib_compress),
    "sz3-exaalt-40ki-floats": (
        _exaalt_window,
        lambda field: sz3_compress(field, SZ3Config(error_bound=1e-4))),
    "deflate-chain128-good8-counterexample-40": (
        lambda: CHAIN_COUNTEREXAMPLE,
        _deflate_with(dict(max_chain=128, good_match=8))),
    **{
        f"deflate-chain{chain}-good8-low-entropy-400": (
            lambda: _low_entropy(400),
            _deflate_with(dict(max_chain=chain, good_match=8)))
        for chain in (399, 401, 800)
    },
    "parallel-deflate-xml-64k-8chunks": (
        lambda: _head("silesia/xml", 64 * KIB), _parallel_8chunks),
    # Small blocks, where one Huffman block covers a few hundred tokens:
    # the serve_sweep request, a 1 KiB and a 2 KiB window, the xml
    # prefixes of 2 861 and 2 863 bytes (511 and 513 tokens), each forced
    # block type, and block_tokens splits that cut a block mid-stream.
    "deflate-serve-xml-256": (_serve_window, deflate_compress),
    "deflate-xml-1k": (lambda: _head("silesia/xml", KIB), deflate_compress),
    "deflate-telemetry-2k": (lambda: _head("net_telemetry", 2 * KIB), deflate_compress),
    "deflate-xml-511-tokens": (
        lambda: _head("silesia/xml", 8 * KIB)[:2861], deflate_compress),
    "deflate-xml-513-tokens": (
        lambda: _head("silesia/xml", 8 * KIB)[:2863], deflate_compress),
    **{
        f"deflate-serve-xml-256-{strategy}": (
            _serve_window, _deflate_with(strategy=strategy))
        for strategy in ("fixed", "dynamic", "stored")
    },
    **{
        f"deflate-{name}-block{block}": (make, _deflate_with(block_tokens=block))
        for name, make in (
            ("serve-xml-256", _serve_window),
            ("telemetry-2k", lambda: _head("net_telemetry", 2 * KIB)))
        for block in (7, 100)
    },
    # Matcher paths the default-config small pins miss: zstd-lite's
    # greedy shallow walk on the serve request (the default's tokens
    # there) and on 1 KiB of xml (three more tokens), and a window short
    # enough to cut most chains on the same 1 KiB.
    "zstdlite-serve-xml-256": (_serve_window, zstdlite_compress),
    "zstdlite-xml-1k": (lambda: _head("silesia/xml", KIB), zstdlite_compress),
    "deflate-window64-xml-1k": (
        lambda: _head("silesia/xml", KIB), _deflate_with(dict(window_size=64))),
    # Length limits that bind: an unbounded Huffman tree would be deeper
    # than 15 bits (literal/length) or 7 bits (code-length alphabet).
    # max_chain=0 walks no candidate, so every byte goes out a literal.
    "deflate-nomatch-litlen-depth17-128k": (
        _litlen_limit_binds, _deflate_with(dict(max_chain=0))),
    "deflate-nomatch-cl-depth8-32k": (
        _cl_limit_binds, _deflate_with(dict(max_chain=0))),
    "ac-xml-12k": (lambda: _head("silesia/xml", 12 * KIB), ac_compress),
    "ac-obs-error-12k": (lambda: _head("obs_error", 12 * KIB), ac_compress),
    **{
        f"ac-order{order}-hot-40k": (
            lambda: _hot_context(40 * KIB), _ac_with(order=order))
        for order in range(5)
    },
    **{
        f"ac-table{bits}-xml-12k": (
            lambda: _head("silesia/xml", 12 * KIB), _ac_with(table_bits=bits))
        for bits in (8, 20)
    },
    **{
        f"ac-chunk{chunk}-hot-40k": (
            lambda: _hot_context(40 * KIB), _ac_with(chunk_bytes=chunk))
        for chunk in (256, 1 << 17)
    },
    "ac-maxtotal1k-skip": (
        _ac_skip, _ac_with(chunk_bytes=AC_SKIP_CHUNK, max_total=1 << 10)),
    "ac-maxtotal64k-hot-40k": (
        lambda: _hot_context(40 * KIB), _ac_with(max_total=1 << 16)),
    **{
        f"lz4-bd{code}-{name}": (lambda key=key, n=n: _head(key, n), _lz4_with(code))
        for name, key, n in (
            ("xml-128k", "silesia/xml", 128 * KIB),
            ("mozilla-96k", "silesia/mozilla", 96 * KIB),
            ("obs-error-96k", "obs_error", 96 * KIB))
        for code in (4, 7)
    },
    "lz4-bd4-incompressible-80k": (lambda: _incompressible(80 * KIB), _lz4_with(4)),
    "lz4-empty": (lambda: b"", lz4_compress),
    "lz4-bd4-accel4-obs-error-96k": (
        lambda: _head("obs_error", 96 * KIB), _lz4_with(4, acceleration=4)),
    "lz4b-serve-xml-128": (lambda: _serve_window()[:128], lz4_block_compress),
    "lz4b-serve-xml-256": (_serve_window, lz4_block_compress),
    "lz4b-xml-1k": (lambda: _head("silesia/xml", KIB), lz4_block_compress),
    **{
        f"lz4b-xml-{n}": (
            lambda n=n: _head("silesia/xml", 8 * KIB)[:n], lz4_block_compress)
        for n in (2047, 2048, 2049)
    },
    **{
        f"sz3r-{backend}-exaalt-8ki-floats": (
            lambda: _exaalt_window()[:SZ3_PIN_FLOATS], _sz3_with(backend=backend))
        for backend in ("zstdlite", "deflate", "lz4", "ac", "none")
    },
    "sz3r-interp-exaalt-8ki-floats": (
        lambda: _exaalt_window()[:SZ3_PIN_FLOATS], _sz3_with(predictor="interp")),
    "ac-noise-16k": (lambda: _incompressible(16 * KIB), ac_compress),
}

#: Pins whose manifest entry also holds the digest of the decoded output
#: (lossy codecs, where "decodes back to the input" does not apply).
PIN_DECODERS = {name: sz3_decompress for name in DIGEST_PINS if name.startswith("sz3r-")}

#: The sizes every corpus is pinned at: three small ones (6 000 B is the
#: streaming golden input's), the 128 and 256 KiB corpora
#: ``benchmarks/perf`` cuts its windows from, and 64 KiB between them.
DATASET_PIN_SIZES = (1000, 4096, 6000, 64 * KIB, 128 * KIB, 256 * KIB)


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def pin_entry(name: str) -> dict:
    """The manifest entry of digest pin ``name``, computed now."""
    make_input, encode = DIGEST_PINS[name]
    payload = make_input()
    raw = payload.tobytes() if isinstance(payload, np.ndarray) else payload
    blob = encode(payload)
    entry = {"input_sha256": _sha256(raw), "bytes": len(blob), "sha256": _sha256(blob)}
    if name in PIN_DECODERS:
        entry["decoded_sha256"] = _sha256(PIN_DECODERS[name](blob).tobytes())
    return entry


def corpus_pin_entry(data) -> dict:
    """The manifest entry of one generated dataset corpus (float
    corpora are pinned as their ``tobytes()``)."""
    raw = data.tobytes() if isinstance(data, np.ndarray) else data
    return {"bytes": len(raw), "sha256": _sha256(raw)}


def _case_entry(files: dict, case: str, payload: bytes, encoders: dict, suffix: str) -> dict:
    files[f"{case}.in"] = payload
    entry = {"input_sha256": _sha256(payload), "input_bytes": len(payload),
             "artifacts": {}}
    for name, encode in encoders.items():
        blob = files[f"{case}.{name}{suffix}"] = encode(payload)
        entry["artifacts"][name] = {"sha256": _sha256(blob), "bytes": len(blob)}
    return entry


def build() -> "tuple[dict[str, bytes], dict]":
    """Every corpus file (name -> bytes) and the manifest, in memory."""
    files: "dict[str, bytes]" = {}
    manifest: dict = {
        "format_version": 1,
        "sz3_error_bound": SZ3_ERROR_BOUND,
        "cases": {
            case: _case_entry(files, case, payload, BYTE_CODECS, ".bin")
            for case, payload in byte_inputs().items()
        },
    }

    field = sz3_input()
    files["field.f32.in"] = field.tobytes()
    # Same field through SZ3 with the adaptive-context lossless stage
    # too: freezes the backend-id wiring and the ac container inside SZ3.
    sz3 = {
        "sz3": sz3_compress(field, SZ3Config(error_bound=SZ3_ERROR_BOUND)),
        "ac-sz3": sz3_compress(
            field, SZ3Config(error_bound=SZ3_ERROR_BOUND, backend="ac")),
    }
    for name, blob in sz3.items():
        files[f"field.{name}.bin"] = blob
    manifest["cases"]["field"] = {
        "input_sha256": _sha256(field.tobytes()),
        "input_bytes": field.nbytes,
        "dtype": "float32",
        "artifacts": {name: {"sha256": _sha256(blob), "bytes": len(blob)}
                      for name, blob in sz3.items()},
    }

    manifest["stream_chunk_bytes"] = STREAM_CHUNK_BYTES
    stream_encoders = {
        name: (lambda payload, algo=algo: stream_compress(
            payload, StreamConfig(algo=algo, chunk_bytes=STREAM_CHUNK_BYTES)))
        for name, algo in STREAM_ALGOS.items()
    }
    manifest["stream_cases"] = {
        case: _case_entry(files, case, payload, stream_encoders, ".rst1")
        for case, payload in stream_inputs().items()
    }
    manifest["digest_pins"] = {name: pin_entry(name) for name in DIGEST_PINS}
    manifest["dataset_pins"] = {
        f"{key}@{n}": corpus_pin_entry(get_dataset(key).generate(n))
        for key in sorted(DATASETS) for n in DATASET_PIN_SIZES}
    return files, manifest


def _digests(node, path: str = ""):
    """``(path, sha256)`` for every digest in a manifest."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _digests(value, f"{path}/{key}")
    elif path.endswith("sha256"):
        yield path, node


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden vector corpus.")
    parser.add_argument(
        "--format-change", action="store_true",
        help="allow digests that are already pinned to change "
             "(an intentional wire-format change)")
    args = parser.parse_args(argv)

    files, manifest = build()
    path = VECTOR_DIR / "manifest.json"
    pinned = dict(_digests(json.loads(path.read_text()))) if path.exists() else {}
    fresh = dict(_digests(manifest))
    drift = sorted(key for key, sha in pinned.items() if fresh.get(key) != sha)
    if drift and not args.format_change:
        for key in drift:
            print(f"{key}: {pinned[key]} -> {fresh.get(key)}", file=sys.stderr)
        print(f"{len(drift)} pinned digest(s) would change; nothing written "
              "(pass --format-change if the change is intentional)", file=sys.stderr)
        return 1
    for name, blob in files.items():
        (VECTOR_DIR / name).write_bytes(blob)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(files)} files + manifest to {VECTOR_DIR}"
          + (f" ({len(drift)} pinned digest(s) changed)" if drift else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
