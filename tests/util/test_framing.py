"""The one container reader (:mod:`repro.util.framing`) and its guard.

Unit tests pin the reader's rules: a read past the end or of a negative
length is a typed truncation, bytes left at ``end()`` are a typed
error, and ``cap``/``verify`` raise the codec-wide overflow and
checksum errors.  The guard keeps the seven one-shot container decoder
modules on the reader: each imports it and none calls ``unpack_from``,
``struct.unpack`` or ``int.from_bytes`` on the blob itself.
"""

from __future__ import annotations

import ast
import struct
from pathlib import Path

import pytest

import repro
from repro.errors import ChecksumMismatchError, CorruptStreamError, OutputOverflowError
from repro.util.framing import Reader, cap, verify

SRC = Path(repro.__file__).resolve().parent
CONTAINER_MODULES = (
    "algorithms/lz4/frame.py",
    "algorithms/ac/codec.py",
    "algorithms/sz3/compressor.py",
    "algorithms/zstdlite.py",
    "algorithms/gzip_format.py",
    "algorithms/zlib_format.py",
    "plan/zlib_hybrid.py",
)
_U32 = struct.Struct("<I")


def test_fields_read_in_order_and_end_cleanly():
    r = Reader(b"MAGC\x05\x00\x00\x00payloadTT", "test")
    r.magic(b"MAGC")
    assert r.unpack(_U32) == (5,)
    assert r.rest(trailer=2) == b"payload"
    assert r.take(2) == b"TT"
    r.end()


@pytest.mark.parametrize("read", [
    lambda r: r.take(4),
    lambda r: r.unpack(_U32),
    lambda r: r.magic(b"ABCD"),
    lambda r: r.rest(trailer=4),
], ids=["take", "unpack", "magic", "rest"])
def test_read_past_the_end_is_truncation(read):
    r = Reader(b"abc", "test")
    with pytest.raises(CorruptStreamError, match="^test: truncated"):
        read(r)
    assert r.pos == 0


def test_negative_length_is_truncation():
    r = Reader(b"abcdef", "test")
    r.take(2)
    with pytest.raises(CorruptStreamError, match="^test: truncated FNAME"):
        r.take(-1, "FNAME")


def test_bad_magic():
    with pytest.raises(CorruptStreamError, match="bad magic b'ABCD'"):
        Reader(b"ABCDEF", "test").magic(b"ABCE")


def test_trailing_bytes_at_end():
    r = Reader(b"abcd", "test")
    r.take(3)
    with pytest.raises(CorruptStreamError, match="^test: 1 trailing byte"):
        r.end()


def test_cap():
    cap(10, None, "test")
    cap(10, 10, "test")
    with pytest.raises(OutputOverflowError, match="^test: declared size 11"):
        cap(11, 10, "test")


def test_verify():
    verify("crc32", 7, 7)
    with pytest.raises(ChecksumMismatchError) as info:
        verify("crc32", 7, 8)
    assert (info.value.kind, info.value.expected, info.value.actual) == ("crc32", 7, 8)


def _bypasses_the_reader(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    owner = node.func.value
    return node.func.attr == "unpack_from" or (
        isinstance(owner, ast.Name)
        and (owner.id, node.func.attr) in {("struct", "unpack"), ("int", "from_bytes")})


@pytest.mark.parametrize("rel", CONTAINER_MODULES)
def test_container_decoders_read_through_the_reader(rel):
    tree = ast.parse((SRC / rel).read_text())
    imports = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "repro.util.framing" in imports, f"{rel} does not use repro.util.framing"
    direct = [node.lineno for node in ast.walk(tree) if _bypasses_the_reader(node)]
    assert not direct, f"{rel} reads fields around the reader at lines {direct}"
