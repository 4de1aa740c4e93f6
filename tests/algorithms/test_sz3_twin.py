"""The SZ3 residual decoder against its twin.

``sz3.encoder.decode_residuals`` decodes every symbol in one loop and
reads an escape's 64-bit value straight off its bit accumulator;
``reference.sz3.decode_residuals`` runs a Huffman symbol run up to each
escape and reads the value as two 32-bit fields.  Both must return the
same values, or raise the same error class, on every payload:
hypothesis residual arrays with 0-100 % escapes (values at +-2**63
included), an escape as the final symbol, an escape field cut
mid-way, every truncation of a payload, and bit flips.
"""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.reference import sz3 as twin
from repro.algorithms.sz3 import encoder as production
from repro.errors import CorruptStreamError, ReproError

_INT64 = (-(2**63), 2**63 - 1)
#: Byte offset of the bitstream in an entropy payload (count, lengths, bits).
_BITSTREAM = 8 + 255 + 8


def decode_outcome(decode, payload: bytes):
    """The decoded values as a list, or the class of the typed error."""
    try:
        return decode(payload).tolist()
    except ReproError as exc:
        return type(exc)


def assert_same_decode(payload: bytes) -> None:
    got = decode_outcome(production.decode_residuals, payload)
    assert got == decode_outcome(twin.decode_residuals, payload), payload.hex()


@st.composite
def residual_arrays(draw):
    """Up to 300 residuals, a drawn share of them escapes (zigzag >= 254),
    the escapes drawn over all of int64 with both ends likely."""
    n = draw(st.integers(0, 300))
    share = draw(st.sampled_from([0.0, 0.01, 0.17, 0.5, 0.9, 1.0]))
    small = st.integers(-127, 126)
    large = st.one_of(st.sampled_from(_INT64 + (127, -128, 2**31, -(2**32))),
                      st.integers(*_INT64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    escapes = rng.random(n) < share
    return np.array([draw(large) if esc else draw(small) for esc in escapes],
                    dtype=np.int64)


@given(residual_arrays())
@settings(max_examples=150, deadline=None)
def test_fused_decode_matches_the_twin(residuals):
    payload = production.encode_residuals(residuals)
    assert production.decode_residuals(payload).tolist() == residuals.tolist()
    assert_same_decode(payload)


def test_escape_as_the_final_symbol():
    for last in (*_INT64, 127, -128, 10**12):
        residuals = np.array([0, 1, -1, 3, last], dtype=np.int64)
        payload = production.encode_residuals(residuals)
        assert production.decode_residuals(payload).tolist() == residuals.tolist()
        assert_same_decode(payload)


def _bitstream_bits(payload: bytes) -> int:
    (nbits,) = struct.unpack_from("<Q", payload, 8 + 255)
    return nbits


def test_escape_field_cut_mid_way():
    """A payload whose last value is an escape, its bitstream cut at
    every bit inside the escape's two 32-bit fields, with the declared
    bit count shortened to match.  A cut that drops a whole byte is an
    error; one inside a byte reads the cleared bits as zeros, in both."""
    residuals = np.array([1, 0, -(2**62) - 12345], dtype=np.int64)
    payload = production.encode_residuals(residuals)
    nbits = _bitstream_bits(payload)
    for cut_bits in range(nbits - 64, nbits):
        cut = bytearray(payload[:_BITSTREAM + (cut_bits + 7) // 8])
        struct.pack_into("<Q", cut, 8 + 255, cut_bits)
        if cut_bits % 8:  # clear the bits past the cut in the last byte
            cut[-1] &= (1 << cut_bits % 8) - 1
        got = decode_outcome(production.decode_residuals, bytes(cut))
        if len(cut) * 8 - _BITSTREAM * 8 < nbits:
            assert got is CorruptStreamError, cut_bits
        assert_same_decode(bytes(cut))


def test_every_truncation_of_a_payload():
    rng = np.random.default_rng(7)
    residuals = rng.integers(-300, 300, 120).astype(np.int64)
    residuals[::9] = rng.integers(*_INT64, residuals[::9].size, dtype=np.int64)
    residuals[-1] = _INT64[0]
    payload = production.encode_residuals(residuals)
    for length in range(len(payload)):
        assert_same_decode(payload[:length])


def test_bit_flips_of_a_payload():
    """A mixed payload, and one of a single symbol, whose one-bit code
    leaves half the table empty: a flipped bit there is an invalid code."""
    rng = np.random.default_rng(11)
    residuals = rng.integers(-200, 200, 80).astype(np.int64)
    residuals[::7] = 2**40
    for payload in (production.encode_residuals(residuals),
                    production.encode_residuals(np.full(40, 3, dtype=np.int64))):
        for bit in range(_BITSTREAM * 8, len(payload) * 8):
            flipped = bytearray(payload)
            flipped[bit // 8] ^= 1 << bit % 8
            assert_same_decode(bytes(flipped))
    flipped = bytearray(production.encode_residuals(np.full(40, 3, dtype=np.int64)))
    flipped[_BITSTREAM] ^= 1
    assert decode_outcome(production.decode_residuals, bytes(flipped)) is CorruptStreamError
