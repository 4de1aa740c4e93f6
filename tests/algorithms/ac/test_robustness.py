"""Adversarial decoder sweeps: truncation, bit flips, garbage.

The ``ac`` container is CRC-protected, so the contract is strict:
every corrupted stream either raises a typed
:class:`~repro.errors.ReproError` subclass or decodes to the *exact*
original bytes (flips or cuts in never-read trailing slack) — silent
wrong output is impossible, and no input may hang the decoder.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.ac import ACConfig, HEADER_BYTES, ac_compress, ac_decompress
from repro.algorithms.reference.ac import decompress_stepwise
from repro.errors import CorruptStreamError, ReproError

# Small operating point keeps the exhaustive sweeps fast while still
# crossing several chunk boundaries.
CONFIG = ACConfig(order=1, chunk_bytes=256, table_bits=10)
PAYLOAD = (b"adaptive context range coder " * 6 + bytes(range(256)))[:384]
STREAM = ac_compress(PAYLOAD, CONFIG)
MAX_OUT = len(PAYLOAD) * 4 + 64


def _decode_or_typed_error(blob: bytes) -> "bytes | None":
    """Decode; returns output bytes or None after a typed error.

    Anything else (hang is excluded by bounded loops; untyped
    exceptions propagate) fails the test.
    """
    try:
        return ac_decompress(blob, max_output=MAX_OUT)
    except ReproError:
        return None


def test_every_truncation_fails_cleanly_or_matches():
    """Exhaustive prefix sweep over the whole stream."""
    for cut in range(len(STREAM)):
        out = _decode_or_typed_error(STREAM[:cut])
        assert out is None or out == PAYLOAD, f"truncation at {cut}"


def test_every_single_bit_flip_fails_cleanly_or_matches():
    """Exhaustive single-bit-flip sweep: header, CRC, and payload."""
    for position in range(len(STREAM) * 8):
        corrupted = bytearray(STREAM)
        corrupted[position // 8] ^= 1 << (position % 8)
        out = _decode_or_typed_error(bytes(corrupted))
        assert out is None or out == PAYLOAD, f"bit flip at {position}"


def test_payload_flips_never_pass_the_crc():
    """Flips strictly inside the coded payload must never return wrong
    bytes; a subset decode-completes and is caught by the CRC."""
    for byte_index in range(HEADER_BYTES, len(STREAM)):
        corrupted = bytearray(STREAM)
        corrupted[byte_index] ^= 0xA5
        out = _decode_or_typed_error(bytes(corrupted))
        assert out is None or out == PAYLOAD


@given(blob=st.binary(max_size=600))
@settings(max_examples=80, deadline=None)
def test_random_garbage_fails_cleanly(blob):
    out = _decode_or_typed_error(blob)
    # Random blobs essentially never carry a valid magic+CRC; accept a
    # clean decode only for the empty container case.
    assert out is None or isinstance(out, bytes)


def test_code_equal_to_range_is_rejected_at_the_first_symbol():
    """Code bytes ``ff ff ff ff`` after the pad byte start the decoder at
    ``code == range`` (both 2**32 - 1), which no encoder emits.  With
    the rest of the payload zero, every step keeps them equal, so a
    ``code > range`` check would decode to the end and fail only at the
    CRC; the per-symbol ``code >= range`` check rejects the first symbol,
    in the production loop and in the step-wise twin alike."""
    corrupted = bytearray(STREAM)
    corrupted[HEADER_BYTES + 1:] = b"\xff" * 4 + bytes(len(STREAM) - HEADER_BYTES - 5)
    for decode in (ac_decompress, decompress_stepwise):
        with pytest.raises(CorruptStreamError, match="decoder state invariant violated"):
            decode(bytes(corrupted))


def test_empty_and_tiny_inputs_are_typed():
    for blob in (b"", b"R", b"RAC1", STREAM[: HEADER_BYTES - 1]):
        assert _decode_or_typed_error(blob) is None


def test_truncated_header_variants():
    """Every header-only prefix of a valid stream is a typed error
    (the declared length promises a payload that is not there)."""
    for cut in range(HEADER_BYTES + 1):
        assert _decode_or_typed_error(STREAM[:cut]) is None


def test_wrong_magic_is_typed():
    assert _decode_or_typed_error(b"XXXX" + STREAM[4:]) is None


def test_reserved_byte_must_be_zero():
    corrupted = bytearray(STREAM)
    corrupted[7] = 1
    assert _decode_or_typed_error(bytes(corrupted)) is None


def test_declared_length_inflation_is_typed():
    """Inflate the length field: decode must hit truncation or CRC
    failure, never run away."""
    corrupted = bytearray(STREAM)
    corrupted[8:12] = (len(PAYLOAD) * 3).to_bytes(4, "little")
    assert _decode_or_typed_error(bytes(corrupted)) is None


@pytest.mark.parametrize("byte_index", [4, 5, 6])
def test_header_parameter_corruption_is_typed_or_caught(byte_index):
    """Corrupt order/chunk/table fields across all 256 values: either
    the header validator rejects them or the CRC catches the desync."""
    for value in range(256):
        corrupted = bytearray(STREAM)
        corrupted[byte_index] = value
        out = _decode_or_typed_error(bytes(corrupted))
        assert out is None or out == PAYLOAD
