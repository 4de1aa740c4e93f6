"""Scalar twin of :func:`repro.util.xxhash32.xxh32`."""

from __future__ import annotations

from repro.util.xxhash32 import _digest, _stripes_scalar

__all__ = ["xxh32_scalar"]


def xxh32_scalar(data: bytes | bytearray | memoryview, seed: int = 0) -> int:
    """``xxh32`` through the scalar stripe loop at every length."""
    return _digest(bytes(data), seed, _stripes_scalar)
