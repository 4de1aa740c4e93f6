"""Damaged dynamic-block tree headers, and the RFC 1951 count caps.

``deflate.decompress._read_dynamic_trees`` reads the literal/length and
distance code lengths in one hoisted loop with the repeat codes inline;
``reference.huffman`` reads them one ``read_bits`` call at a time over a
byte-at-a-time reader.  These are named inputs of the ``inflate`` row of
:mod:`tests.algorithms.test_twins`: on whole, cut and bit-flipped
headers both inflates must give the same bytes or the same typed error
(:func:`~tests.algorithms.test_twins.agree`).  RFC 1951 caps HLIT at 286
and HDIST at 30 (zlib: "too many length or distance symbols"); both
readers reject a header above either cap.
"""

from __future__ import annotations

import zlib

import pytest

from repro.algorithms import huffman
from repro.algorithms.deflate import DeflateConfig, deflate_compress, deflate_decompress
from repro.algorithms.deflate import tables as T
from repro.algorithms.reference import huffman as reference
from repro.datasets import get_dataset
from repro.errors import CorruptStreamError
from repro.util.bitio import BitWriter
from tests.algorithms.test_twins import agree, cuts, flips, header_bits


def _dynamic_streams() -> "dict[str, bytes]":
    xml = bytes(get_dataset("silesia/xml").generate(8 * 1024))
    dynamic = DeflateConfig(strategy="dynamic")
    return {
        "xml-256": deflate_compress(xml[:256], dynamic),
        "xml-2k": deflate_compress(xml[:2048], dynamic),
        "runs": deflate_compress(b"\x00" * 300 + b"ab" * 200 + bytes(range(40)), dynamic),
        "literals-only": deflate_compress(bytes(range(256)) * 2, dynamic),
        "zlib-xml-1k": zlib.compress(xml[:1024], 9)[2:-4],
    }


STREAMS = _dynamic_streams()


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_whole_header_reads_the_same_tables(name):
    blob = STREAMS[name]
    assert blob[0] >> 1 & 3 == 2
    assert isinstance(agree("inflate", blob), bytes)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_cut_headers_fail_alike(name):
    """Every cut up to the first payload byte, and a few past it."""
    blob = STREAMS[name]
    for cut in cuts(blob, min(len(blob), -(-header_bits(blob) // 8) + 4), start=1):
        agree("inflate", cut)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_bit_flipped_headers_give_the_same_outcome(name):
    """Every header flip under a cap one byte short of the whole
    stream's output: the same bytes or the same typed error."""
    blob = STREAMS[name]
    cap = len(deflate_decompress(blob)) - 1
    for flipped in flips(blob, range(3, header_bits(blob))):
        agree("inflate", flipped, cap)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_bit_flipped_streams_inflate_alike(name):
    """Whole inflate on every header flip: the same bytes or both a
    ``CorruptStreamError``."""
    blob = STREAMS[name]
    for flipped in flips(blob, range(3, header_bits(blob))):
        agree("inflate", flipped)


def _block_with_counts(hlit: int, hdist: int) -> bytes:
    """A final dynamic block whose one token is end of block: literal/
    length codes for 256 and 257, distance codes for 0 and 1, every
    other length 0 (sent as 18s), under ``hlit`` and ``hdist``."""
    cl_bits = [0] * 19
    cl_bits[1] = cl_bits[18] = 1
    cl_codes = huffman.lsb_code_list(cl_bits)
    writer = BitWriter()
    writer.write_bits(1 | 2 << 1, 3)
    writer.write_bits(hlit - 257 | (hdist - 1) << 5 | 15 << 10, 14)
    for sym in T.CLCODE_ORDER.tolist():
        writer.write_bits(cl_bits[sym], 3)

    def zeros(run):
        while run:
            take = min(run, 138)
            writer.write_bits(cl_codes[18] | (take - 11) << 1, 8)
            run -= take

    def pair_of_ones():
        writer.write_bits(cl_codes[1] | cl_codes[1] << 1, 2)

    zeros(256)
    pair_of_ones()
    zeros(hlit - 258)
    pair_of_ones()
    zeros(hdist - 2)
    writer.write_bits(0, 1)  # end of block: code 0
    return writer.getvalue()


def test_counts_at_the_caps_decode():
    blob = _block_with_counts(286, 30)
    assert deflate_decompress(blob) == reference.inflate(blob) == b""
    assert zlib.decompress(blob, -15) == b""


@pytest.mark.parametrize("hlit, hdist", [(288, 32), (287, 30), (286, 31)])
def test_counts_above_the_caps_are_rejected(hlit, hdist):
    blob = _block_with_counts(hlit, hdist)
    with pytest.raises(CorruptStreamError, match="too many length or distance"):
        deflate_decompress(blob)
    with pytest.raises(CorruptStreamError, match="too many length or distance"):
        reference.inflate(blob)
    with pytest.raises(zlib.error, match="too many length or distance"):
        zlib.decompress(blob, -15)


def test_no_distance_table_holds_a_symbol_above_29():
    """HDIST <= 30 and the fixed tree's 30 lengths bound every distance
    table, so the inflate loop indexes ``DIST_TABLE`` unchecked."""
    assert len(T.FIXED_DIST_LENGTHS) == len(T.DIST_TABLE) == 30
