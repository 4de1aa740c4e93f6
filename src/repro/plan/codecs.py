"""Real-codec dispatch shared by the PEDAL context and the naive baseline.

Separates *what bytes are produced* (this module — always real
compression of real data) from *what simulated time it costs* (the
callers charge the hardware model).  The C-Engine variants of zlib/SZ3
produce different real bytes than their SoC variants only where the
paper's designs do (SZ3's backend codec switches to DEFLATE; zlib output
is byte-identical by construction).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.algorithms.ac import ACConfig, ac_compress, ac_decompress
from repro.algorithms.deflate import DeflateConfig, deflate_compress, deflate_decompress
from repro.algorithms.lz4 import lz4_compress, lz4_decompress
from repro.algorithms.sz3 import SZ3Compressor, SZ3Config
from repro.dpu.specs import Algo
from repro.errors import UnsupportedDataError
from repro.plan.designs import CompressionDesign, Placement
from repro.plan.sz3_hybrid import hybrid_sz3_compress
from repro.plan.zlib_hybrid import hybrid_zlib_compress, hybrid_zlib_decompress

__all__ = [
    "CodecConfig",
    "RealCompression",
    "byte_codec",
    "real_compress",
    "real_decompress",
    "clear_codec_cache",
]


@dataclass(frozen=True)
class CodecConfig:
    """Codec tuning shared across designs."""

    deflate: DeflateConfig | None = None
    sz3: SZ3Config = SZ3Config(error_bound=1e-4)  # the paper's bound
    ac: ACConfig = ACConfig()  # adaptive-context range coder defaults


def byte_codec(
    algo: Algo, config: CodecConfig | None = None
) -> "tuple[Callable[[bytes], bytes], Callable[..., bytes]] | None":
    """``(compress, decompress(blob, max_output=None))`` of a single-stage
    byte codec (DEFLATE, LZ4, AC); None for zlib / SZ3.  The one place
    that choice is made.  Codecs are looked up by global name at call
    time, so a later rebinding (benchmarks/perf's tracer) sees each call.
    """
    cfg = config or CodecConfig()
    if algo is Algo.DEFLATE:
        return (lambda raw: deflate_compress(raw, cfg.deflate),
                lambda blob, max_output=None: deflate_decompress(blob, max_output))
    if algo is Algo.LZ4:
        return (lambda raw: lz4_compress(raw),
                lambda blob, max_output=None: lz4_decompress(blob, max_output))
    if algo is Algo.AC:
        return (lambda raw: ac_compress(raw, cfg.ac),
                lambda blob, max_output=None: ac_decompress(blob, max_output))
    return None


@dataclass(frozen=True)
class RealCompression:
    """Output of a real compression run."""

    payload: bytes  # compressed bytes (no PEDAL header)
    original_bytes: int
    # For hybrid designs: size of the intermediate handed to the
    # C-Engine stage (DEFLATE payload for zlib, entropy payload for
    # SZ3); None for single-stage designs.
    cengine_stage_bytes: int | None = None


def _as_bytes(data: Any) -> bytes:
    if isinstance(data, (bytes, bytearray, memoryview)):
        return bytes(data)
    if isinstance(data, np.ndarray):
        return data.tobytes()
    raise UnsupportedDataError(
        f"lossless designs take bytes-like or ndarray input, got {type(data)!r}"
    )


def _as_array(data: Any) -> np.ndarray:
    if isinstance(data, np.ndarray):
        return data
    raise UnsupportedDataError(
        f"the SZ3 design takes a numpy float array, got {type(data)!r}"
    )


# Memoisation of real codec runs: the MPI benches send the same payload
# through the same design many times (ping-pong echoes, broadcast
# relays), and pure-Python compression dominates their wall-clock.  The
# simulated-time accounting is unaffected — only the byte-production is
# cached.  A bytes payload is its own key (dict equality is exact, and
# ``bytes`` caches its hash, so a reused payload costs one probe), so
# logically equal payloads share entries; an ndarray is keyed by dtype,
# shape and a sha1 of its values.  Every simulated op in repro.core and
# repro.mpi gets its bytes here: whole PEDAL messages, each chunk of a
# streamed MPI message (an echoed or relayed stream re-sends the same
# chunks) and each ParallelCompressor chunk.  The serve gateway and the
# repro.stream library API call byte_codec directly and stay
# un-memoised (DESIGN.md lists who memoises and why).
_COMPRESS_CACHE: dict[tuple, RealCompression] = {}
_DECOMPRESS_CACHE: dict[tuple, tuple] = {}
_CACHE_LIMIT = 256
# The config part of a compress key is a token for the config's value,
# so its three nested dataclasses are hashed once per config object, not
# per lookup: _CONFIG_VALUES gives each config value a token, and
# _CONFIG_TOKENS finds it by object id.  Every PedalContext makes its own
# (equal) CodecConfig, so the id table turns over while the values stay
# few.
_CONFIG_VALUES: dict[CodecConfig, int] = {}
_CONFIG_TOKENS: dict[int, tuple[CodecConfig, int]] = {}  # id -> (config, token)


def clear_codec_cache() -> None:
    """Drop memoised codec runs (tests use this for isolation)."""
    _COMPRESS_CACHE.clear()
    _DECOMPRESS_CACHE.clear()
    _CONFIG_TOKENS.clear()
    _CONFIG_VALUES.clear()  # tokens restart only with the memo empty


def _config_token(config: CodecConfig) -> int:
    entry = _CONFIG_TOKENS.get(id(config))
    if entry is None:
        token = _CONFIG_VALUES.get(config)
        if token is None:
            if len(_CONFIG_VALUES) >= _CACHE_LIMIT:
                clear_codec_cache()
            token = _CONFIG_VALUES[config] = len(_CONFIG_VALUES)
        if len(_CONFIG_TOKENS) >= _CACHE_LIMIT:
            _CONFIG_TOKENS.clear()  # tokens follow values: no key moves
        # The entry holds ``config`` alive, so no other object can take
        # its id while the entry stands.
        entry = _CONFIG_TOKENS[id(config)] = (config, token)
    return entry[1]


def _payload_key(data: Any) -> Any:
    if type(data) is bytes:
        return data
    if isinstance(data, np.ndarray):
        # sha1 reads a C-contiguous array's buffer in place (only a
        # strided view is copied); ``dtype.str`` carries the byte order.
        digest = hashlib.sha1(np.ascontiguousarray(data)).hexdigest()
        return ("nd", data.dtype.str, data.shape, digest)
    return bytes(data)


def real_compress(
    design: CompressionDesign, data: Any, config: CodecConfig
) -> RealCompression:
    """Run the design's real compressor over ``data`` (memoised)."""
    key = (design.algo, design.placement, _config_token(config),
           _payload_key(data))
    cached = _COMPRESS_CACHE.get(key)
    if cached is not None:
        return cached
    result = _real_compress_uncached(design, data, config)
    if len(_COMPRESS_CACHE) >= _CACHE_LIMIT:
        _COMPRESS_CACHE.clear()
    _COMPRESS_CACHE[key] = result
    return result


def _real_compress_uncached(
    design: CompressionDesign, data: Any, config: CodecConfig
) -> RealCompression:
    algo = design.algo
    codec = byte_codec(algo, config)
    if codec is not None:
        # Single-stage on every placement (AC included: no C-Engine
        # generation accelerates the range coder, so it has no hybrid).
        raw = _as_bytes(data)
        return RealCompression(codec[0](raw), len(raw))
    if algo is Algo.ZLIB:
        raw = _as_bytes(data)
        stream, sizes = hybrid_zlib_compress(raw, config.deflate)
        return RealCompression(stream, len(raw), sizes.deflate_payload_bytes)
    if algo is Algo.SZ3:
        array = _as_array(data)
        if design.placement is Placement.CENGINE:
            result = hybrid_sz3_compress(array, config.sz3)
            return RealCompression(
                result.stream,
                result.sizes.input_bytes,
                result.sizes.entropy_payload_bytes,
            )
        compressor = SZ3Compressor(config.sz3)
        stream = compressor.compress(array)
        return RealCompression(
            stream,
            compressor.last_stage_sizes.input_bytes,
            compressor.last_stage_sizes.entropy_payload_bytes,
        )
    raise UnsupportedDataError(f"no real codec for algorithm {algo}")


def real_decompress(
    algo: Algo, payload: bytes, max_output: int | None = None
) -> tuple[Any, int | None]:
    """Decode ``payload``; returns ``(data, cengine_stage_bytes)``.

    ``cengine_stage_bytes`` is the intermediate the C-Engine stage
    would process on the receive side (zlib's DEFLATE payload, SZ3's
    backend blob input) or None for single-stage formats.  Memoised like
    :func:`real_compress`.

    ``max_output`` caps the decoded length for the byte formats (DEFLATE,
    LZ4, AC, zlib).  A memoised result longer than the cap is not
    returned: the capped decode runs instead, so an over-long payload
    raises the codec's own error whether the memo is warm or cold.  SZ3
    takes no cap (ValueError).
    """
    if max_output is not None and algo is Algo.SZ3:
        raise ValueError("real_decompress: SZ3 takes no max_output")
    key = (algo, _payload_key(payload))
    cached = _DECOMPRESS_CACHE.get(key)
    if cached is not None and (max_output is None or len(cached[0]) <= max_output):
        return cached
    result = _real_decompress_uncached(algo, payload, max_output)
    if len(_DECOMPRESS_CACHE) >= _CACHE_LIMIT:
        _DECOMPRESS_CACHE.clear()
    _DECOMPRESS_CACHE[key] = result
    return result


def _real_decompress_uncached(
    algo: Algo, payload: bytes, max_output: int | None
) -> tuple[Any, int | None]:
    codec = byte_codec(algo)
    if codec is not None:
        return codec[1](payload, max_output), None
    if algo is Algo.ZLIB:
        data, sizes = hybrid_zlib_decompress(payload, max_output)
        return data, sizes.deflate_payload_bytes
    if algo is Algo.SZ3:
        array, sizes = SZ3Compressor.decompress_stages(payload)
        # The C-Engine stage inflates the backend blob back into the
        # entropy payload; charge for the payload it reproduces.
        return array, sizes.entropy_payload_bytes
    raise UnsupportedDataError(f"no real codec for algorithm {algo}")
