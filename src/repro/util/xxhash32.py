"""xxHash32 — the checksum used by the LZ4 frame format.

Reference: https://github.com/Cyan4973/xxHash (XXH32, little-endian).
Implemented from the published algorithm specification; verified in the
test suite against the official test vectors (e.g. ``XXH32("") == 0x02CC5D05``
with seed 0).

The 16-byte stripe loop exists twice.  :func:`_stripes_scalar` is the
specification written out, one accumulator at a time;
:func:`_stripes_packed` carries the four accumulators as four 64-bit
fields of one Python int, so a stripe costs ten big-int operations
instead of ~40 small-int ones (DESIGN.md §5j has the field-width
argument).  :func:`xxh32` picks by input length; its twin
``repro.algorithms.reference.xxhash32.xxh32_scalar`` always takes the
scalar loop and is what the tests and the wall gates compare against.
"""

from __future__ import annotations

import struct
from typing import Callable

import numpy as np

__all__ = ["xxh32"]

_PRIME1 = 0x9E3779B1
_PRIME2 = 0x85EBCA77
_PRIME3 = 0xC2B2AE3D
_PRIME4 = 0x27D4EB2F
_PRIME5 = 0x165667B1
_MASK = 0xFFFFFFFF

#: Low 32 bits of each of the four 64-bit fields.
_LANES_LOW32 = _MASK | _MASK << 64 | _MASK << 128 | _MASK << 192
#: Below three stripes the numpy pre-multiply and the packing (≈2.5 µs)
#: cost more than the scalar stripes they replace (≈1.6 µs each).
_PACKED_MIN_BYTES = 48
#: Stripes pre-multiplied per numpy call: bounds the temporaries at
#: 2 × 2 MiB however long the input is.
_PACKED_BLOCK_STRIPES = 1 << 16

_Accumulators = tuple[int, int, int, int]

# Built once: parsing a dtype or format string costs as much as a stripe.
_U32_LE = np.dtype("<u4")
_U64_LE = np.dtype("<u8")
_PRIME2_U64 = np.uint64(_PRIME2)
_unpack_stripe = struct.Struct("<4I").unpack_from
_unpack_lane = struct.Struct("<I").unpack_from
_packed_stripes = struct.Struct("32s").iter_unpack


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _MASK


def _round(acc: int, lane: int) -> int:
    acc = (acc + lane * _PRIME2) & _MASK
    return (_rotl(acc, 13) * _PRIME1) & _MASK


def _seed_accumulators(seed: int) -> _Accumulators:
    return ((seed + _PRIME1 + _PRIME2) & _MASK, (seed + _PRIME2) & _MASK,
            seed, (seed - _PRIME1) & _MASK)


def _stripes_scalar(data: bytes, seed: int, stripes: int) -> _Accumulators:
    """The four accumulators after ``stripes`` 16-byte stripes."""
    v1, v2, v3, v4 = _seed_accumulators(seed)
    for pos in range(0, 16 * stripes, 16):
        l1, l2, l3, l4 = _unpack_stripe(data, pos)
        v1 = _round(v1, l1)
        v2 = _round(v2, l2)
        v3 = _round(v3, l3)
        v4 = _round(v4, l4)
    return v1, v2, v3, v4


def _stripes_packed(data: bytes, seed: int, stripes: int) -> _Accumulators:
    """:func:`_stripes_scalar` with the accumulators in one Python int.

    Accumulator *k* lives in bits ``64k .. 64k+31``.  numpy multiplies
    every lane by PRIME32_2 into a uint64, so 32 bytes of the product
    buffer are one stripe already laid out in the same fields.  No
    field ever reaches 2**64: accumulator + product
    ``< 2**32 + (2**32 - 1) * PRIME32_2 < 2**64``, a 13-bit left shift
    of a 32-bit value stays below 2**45, and a 32-bit value times
    PRIME32_1 stays below 2**64 — so the fields never carry into each
    other and masking each to 32 bits is the per-lane ``& 0xFFFFFFFF``.
    The right shift drags the neighbour's low bits into bits 45..63 of
    a field; the same mask drops them.
    """
    v1, v2, v3, v4 = _seed_accumulators(seed)
    v = v1 | v2 << 64 | v3 << 128 | v4 << 192
    from_bytes = int.from_bytes
    for first in range(0, stripes, _PACKED_BLOCK_STRIPES):
        count = min(stripes - first, _PACKED_BLOCK_STRIPES)
        products = np.frombuffer(
            data, _U32_LE, 4 * count, 16 * first).astype(_U64_LE)
        products *= _PRIME2_U64
        for (stripe,) in _packed_stripes(products.tobytes()):
            v = (v + from_bytes(stripe, "little")) & _LANES_LOW32
            v = ((v << 13) | (v >> 19)) & _LANES_LOW32
            v = (v * _PRIME1) & _LANES_LOW32
    return v & _MASK, v >> 64 & _MASK, v >> 128 & _MASK, v >> 192


def _digest(
    data: bytes, seed: int,
    stripe_loop: Callable[[bytes, int, int], _Accumulators],
) -> int:
    n = len(data)
    seed &= _MASK

    if n >= 16:
        v1, v2, v3, v4 = stripe_loop(data, seed, n >> 4)
        h = (_rotl(v1, 1) + _rotl(v2, 7) + _rotl(v3, 12) + _rotl(v4, 18)) & _MASK
    else:
        h = (seed + _PRIME5) & _MASK

    h = (h + n) & _MASK

    pos = n & ~15
    while pos + 4 <= n:
        (lane,) = _unpack_lane(data, pos)
        h = (h + lane * _PRIME3) & _MASK
        h = (_rotl(h, 17) * _PRIME4) & _MASK
        pos += 4

    while pos < n:
        h = (h + data[pos] * _PRIME5) & _MASK
        h = (_rotl(h, 11) * _PRIME1) & _MASK
        pos += 1

    h ^= h >> 15
    h = (h * _PRIME2) & _MASK
    h ^= h >> 13
    h = (h * _PRIME3) & _MASK
    h ^= h >> 16
    return h


def xxh32(data: bytes | bytearray | memoryview, seed: int = 0) -> int:
    """Compute XXH32 of ``data`` with the given ``seed``."""
    data = bytes(data)
    if len(data) < _PACKED_MIN_BYTES:
        return _digest(data, seed, _stripes_scalar)
    return _digest(data, seed, _stripes_packed)
