"""Named inputs of the ``decode_residuals`` row of
:mod:`tests.algorithms.test_twins`.

``sz3.encoder.decode_residuals`` decodes every symbol in one loop and
reads an escape's 64-bit value straight off its bit accumulator;
``reference.sz3.decode_residuals`` runs a Huffman symbol run up to each
escape and reads the value as two 32-bit fields.  Through
:func:`~tests.algorithms.test_twins.agree`, both must return the same
values, or raise the same error class, on every payload: hypothesis
residual arrays with 0-100 % escapes (values at +-2**63 included), an
escape as the final symbol, an escape field cut mid-way, every
truncation of a payload, and bit flips.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.algorithms.sz3 import encoder as production
from repro.errors import CorruptStreamError
from tests.algorithms.test_twins import (
    SZ3_BITSTREAM,
    agree,
    cuts,
    flips,
    given_case,
    residual_sources,
    sz3_bit_cuts,
)

_INT64 = (-(2**63), 2**63 - 1)


def _same_values(residuals: np.ndarray) -> None:
    """The payload of ``residuals`` decodes back to them, in both."""
    payload = production.encode_residuals(residuals)
    assert agree("decode_residuals", payload)[2] == residuals.tobytes()


test_fused_decode_matches_the_twin = given_case("decode_residuals", residual_sources)(
    _same_values)


def test_escape_as_the_final_symbol():
    for last in (*_INT64, 127, -128, 10**12):
        _same_values(np.array([0, 1, -1, 3, last], dtype=np.int64))


def test_escape_field_cut_mid_way():
    """A payload whose last value is an escape, its bitstream cut at
    every bit inside the escape's two 32-bit fields, with the declared
    bit count shortened to match.  A cut that drops a whole byte is an
    error; one inside a byte reads the cleared bits as zeros, in both."""
    residuals = np.array([1, 0, -(2**62) - 12345], dtype=np.int64)
    payload = production.encode_residuals(residuals)
    (nbits,) = struct.unpack_from("<Q", payload, SZ3_BITSTREAM - 8)
    for cut in sz3_bit_cuts(payload, range(nbits - 64, nbits)):
        got = agree("decode_residuals", cut)
        if (len(cut) - SZ3_BITSTREAM) * 8 < nbits:
            assert got is CorruptStreamError, len(cut)


def test_every_truncation_of_a_payload():
    rng = np.random.default_rng(7)
    residuals = rng.integers(-300, 300, 120).astype(np.int64)
    residuals[::9] = rng.integers(*_INT64, residuals[::9].size, dtype=np.int64)
    residuals[-1] = _INT64[0]
    for payload in cuts(production.encode_residuals(residuals)):
        agree("decode_residuals", payload)


def test_bit_flips_of_a_payload():
    """A mixed payload, and one of a single symbol, whose one-bit code
    leaves half the table empty: a flipped bit there is an invalid code."""
    rng = np.random.default_rng(11)
    residuals = rng.integers(-200, 200, 80).astype(np.int64)
    residuals[::7] = 2**40
    single = production.encode_residuals(np.full(40, 3, dtype=np.int64))
    for payload in (production.encode_residuals(residuals), single):
        for flipped in flips(payload, range(SZ3_BITSTREAM * 8, len(payload) * 8)):
            agree("decode_residuals", flipped)
    assert agree("decode_residuals", next(flips(single, [SZ3_BITSTREAM * 8]))) \
        is CorruptStreamError
