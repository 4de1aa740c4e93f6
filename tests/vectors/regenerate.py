#!/usr/bin/env python
"""Regenerate the golden compressed-vector corpus and its manifest.

Run from the repository root::

    PYTHONPATH=src python tests/vectors/regenerate.py [--format-change]

Rewrites ``<case>.in`` / ``<case>.<codec>.bin`` pairs and
``manifest.json`` (sha256 of every artifact, plus ``digest_pins``:
encoder output pinned by sha256 alone, at the sizes ``benchmarks/perf``
runs and on the matcher corners where an escape once lived).  The
loader tests (:mod:`tests.vectors.test_golden_vectors`,
:mod:`tests.vectors.test_benchmark_scale_digests`) fail when current
encoder output drifts from these pins — an unintentional format change
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

from repro.algorithms.ac import ac_compress
from repro.algorithms.deflate import DeflateConfig, deflate_compress
from repro.algorithms.gzip_format import gzip_compress
from repro.algorithms.lz4 import lz4_block_compress, lz4_compress
from repro.algorithms.lz77 import MatcherConfig
from repro.algorithms.sz3 import SZ3Config, sz3_compress
from repro.algorithms.zlib_format import zlib_compress
from repro.algorithms.zstdlite import zstdlite_compress
from repro.core.parallel import ParallelCompressor, ParallelConfig
from repro.datasets import get_dataset
from repro.dpu import make_device
from repro.dpu.specs import Algo
from repro.sim import Environment
from repro.stream import StreamConfig, stream_compress

VECTOR_DIR = Path(__file__).resolve().parent
KIB = 1024

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


def _parallel_8chunks(data: bytes) -> bytes:
    """The chunk-parallel container (RST1, one DEFLATE frame per chunk)."""
    env = Environment()
    compressor = ParallelCompressor(make_device(env, "bf2"), ParallelConfig(n_chunks=8))
    return env.run(until=env.process(compressor.compress(data))).payload


def _deflate_with(**matcher):
    config = DeflateConfig(matcher=MatcherConfig(**matcher))
    return lambda data: deflate_compress(data, config)


#: The 40-byte input on which the LZ77 walk once quartered a budget
#: clamped to len(data) instead of ``max_chain`` (see
#: tests/algorithms/test_lz77_layout.py).
CHAIN_COUNTEREXAMPLE = bytes([0] * 8 + [2, 1] + [0] * 20 + [3] + [0] * 8 + [2])

#: name -> (make input, encode).  The first five are the
#: ``codec_compress`` / ``stream_paths`` operating points (the golden
#: vectors are <= 6 KB, so a matcher change that only alters tokens once
#: chains get deep, the window binds or a block spans several Huffman
#: blocks passes them); then the ``max_chain`` corners around the input
#: length, with a ``good_match`` that shrinks the walk (a budget clamped
#: to the input length reads 2n as n + 1); last the ``pedal_ops``
#: chunk-parallel container's framing.
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
        lambda: CHAIN_COUNTEREXAMPLE, _deflate_with(max_chain=128, good_match=8)),
    **{
        f"deflate-chain{chain}-good8-low-entropy-400": (
            lambda: _low_entropy(400), _deflate_with(max_chain=chain, good_match=8))
        for chain in (399, 401, 800)
    },
    "parallel-deflate-xml-64k-8chunks": (
        lambda: _head("silesia/xml", 64 * KIB), _parallel_8chunks),
}


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def pin_entry(name: str) -> dict:
    """The manifest entry of digest pin ``name``, computed now."""
    make_input, encode = DIGEST_PINS[name]
    payload = make_input()
    raw = payload.tobytes() if isinstance(payload, np.ndarray) else payload
    blob = encode(payload)
    return {"input_sha256": _sha256(raw), "bytes": len(blob), "sha256": _sha256(blob)}


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
