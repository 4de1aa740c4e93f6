"""``ac_decompress``'s fused loop against its step-wise twin.

The twin is ``reference.decode_stepwise`` driving a
:class:`RangeDecoder` through ``decode_target`` / ``consume`` and
``reference.ac.RowContextModel`` through ``cum_row`` /
``symbol_from_target`` — the objects whose
arithmetic the fused loop writes out in locals.  The two must produce
the same symbols on well-formed streams and the same error type on
malformed ones.
"""

from __future__ import annotations

import hashlib
import struct
import subprocess
import sys

import numpy as np
import pytest

from repro.algorithms.ac import (
    ACConfig,
    HEADER_BYTES,
    RangeDecoder,
    ac_compress,
    ac_decompress,
    parse_header,
)
from repro.algorithms.reference.ac import decode_stepwise
from repro.datasets import get_dataset
from repro.errors import ChecksumMismatchError, CorruptStreamError, ReproError

CHUNK = 256


def _stepwise(blob: bytes) -> bytes:
    config, length, _crc = parse_header(blob)
    return decode_stepwise(RangeDecoder(blob[HEADER_BYTES:]), length, config)


def _payload(name: str, nbytes: int) -> bytes:
    if name == "zeros":
        return bytes(nbytes)
    if name == "random":
        return np.random.default_rng(0xAC).bytes(nbytes)
    return bytes(get_dataset(name).generate(nbytes))


@pytest.mark.parametrize("dataset", ["silesia/xml", "zeros", "random", "obs_error"])
@pytest.mark.parametrize("table_bits", [8, 10, 14])
@pytest.mark.parametrize("order", range(5))
def test_fused_equals_stepwise(order, table_bits, dataset):
    """Lengths on, just before and just after a chunk boundary, and a
    ragged tail, so every ``stop < length`` decision is taken both ways."""
    config = ACConfig(order=order, chunk_bytes=CHUNK, table_bits=table_bits)
    data = _payload(dataset, 3 * CHUNK + 37)
    for length in (CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, len(data)):
        blob = ac_compress(data[:length], config)
        assert ac_decompress(blob) == _stepwise(blob) == data[:length]


@pytest.mark.parametrize("order", [0, 1, 3])
def test_fused_equals_stepwise_through_halvings(order):
    """All mass on one context: its total passes ``max_total`` and is
    halved several times (the header carries no ``max_total``, so only
    the default 2**15 is decodable)."""
    config = ACConfig(order=order, chunk_bytes=4096, table_bits=10)
    data = bytes(80_000) + b"tail after the run" * 8
    blob = ac_compress(data, config)
    assert ac_decompress(blob) == _stepwise(blob) == data


@pytest.mark.parametrize("config", [ACConfig(), ACConfig(order=1, chunk_bytes=CHUNK,
                                                           table_bits=8)])
def test_top_symbol_slack_in_a_seen_context(config):
    """Byte 255 coded again and again from contexts that have seen it:
    the code then often falls in the top symbol's division slack, where
    the target reaches ``total`` and must resolve to 255."""
    rng = np.random.default_rng(255)
    for data in (b"\xff" * 12_000,
                 rng.integers(250, 256, 12_000, dtype=np.uint8).tobytes()):
        blob = ac_compress(data, config)
        assert ac_decompress(blob) == _stepwise(blob) == data


def test_context_halved_again_in_a_chunk_that_skips_it():
    """A context that takes more than 2 * max_total hits in one chunk is
    still over after one halving and is halved again at the next
    boundary even though that chunk never visits it — possible only at
    chunk_bytes >= 64 KiB.  The digest is the PR 14 encoder's output for
    this input (the PR 14 *decoder* kept the stale row and failed its
    own stream with a CRC mismatch)."""
    n = 1 << 16
    data = bytes(n - 2) + b"bb" + b"a" * n + bytes(n) + b"xyz" * 1000
    blob = ac_compress(data, ACConfig(order=2, chunk_bytes=n))
    assert len(blob) == 134280
    assert hashlib.sha256(blob).hexdigest() == (
        "1b31c99c600e5e425588a91a4a268637b342b871b5fd49043d0c0bc7f74bc2f7")
    assert ac_decompress(blob) == _stepwise(blob) == data


def test_first_chunk_never_builds_a_row():
    """Nothing is folded in before the first boundary, so a one-chunk
    stream decodes through the uniform shortcut alone — the same bytes
    whatever table the header names."""
    data = _payload("silesia/xml", CHUNK)
    blob = bytearray(ac_compress(data, ACConfig(chunk_bytes=CHUNK, table_bits=8)))
    for table_bits in (8, 14, 20):
        blob[6] = table_bits
        assert ac_decompress(bytes(blob)) == data


def _fused_symbols(blob: bytes) -> bytes:
    """``ac_decompress`` with the CRC taken out of the comparison: on a
    mismatch the stored CRC is rewritten to the computed one and the
    decode repeated, which returns the symbols the loop produced."""
    try:
        return ac_decompress(blob)
    except ChecksumMismatchError as exc:
        patched = bytearray(blob)
        struct.pack_into("<I", patched, 12, exc.actual)
        return ac_decompress(bytes(patched))


def _outcome(decode, blob):
    try:
        return decode(blob)
    except ReproError as exc:
        return type(exc)


def test_malformed_payloads_fail_alike():
    """Cuts and byte flips inside the coded payload: the fused loop and
    the twin return the same symbols or raise the same error type
    (exhausted payload and a broken ``code < range`` invariant are both
    CorruptStreamError in both)."""
    config = ACConfig(order=2, chunk_bytes=CHUNK, table_bits=10)
    blob = ac_compress(_payload("silesia/xml", 3 * CHUNK), config)
    candidates = [blob[:cut] for cut in range(HEADER_BYTES, len(blob), 7)]
    for index in range(HEADER_BYTES, len(blob), 5):
        flipped = bytearray(blob)
        flipped[index] ^= 0x5A
        candidates.append(bytes(flipped))
    outcomes = [_outcome(_fused_symbols, c) for c in candidates]
    assert outcomes == [_outcome(_stepwise, c) for c in candidates]
    assert CorruptStreamError in outcomes
    assert any(isinstance(o, bytes) for o in outcomes)


_HOSTILE_SCRIPT = """
import resource
from repro.algorithms.ac import ACConfig, ac_compress, ac_decompress
from repro.errors import ReproError

blob = bytearray(ac_compress(b"ten bytes!", ACConfig(table_bits=14)))
assert len(blob) < 40
blob[6] = 20                     # 2**20 contexts for a 10-byte stream
declared = bytearray(blob)
declared[8:12] = (0xFFFFFFFF).to_bytes(4, "little")   # ... and 4 GiB of output
ac_decompress(ac_compress(bytes(600), ACConfig(chunk_bytes=256)))  # warm imports
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert ac_decompress(bytes(blob)) == b"ten bytes!"
try:
    ac_decompress(bytes(declared))
except ReproError as exc:
    print(type(exc).__name__)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print((after - before) // 1024)
"""


def test_hostile_table_bits_stays_small():
    """A header naming 2**20 contexts (and, second, 4 GiB of output) for
    a 10-byte stream decodes or raises typed, and peak RSS moves by less
    than a few MB: the model holds only the (context, symbol) pairs it
    has seen, so ``table_bits`` sizes no table (and the only chunk is
    the last, which is not folded in), and there is no per-length
    buffer."""
    done = subprocess.run(
        [sys.executable, "-c", _HOSTILE_SCRIPT], timeout=120,
        capture_output=True, text=True, check=True,
    )
    error, grown_mb = done.stdout.split()
    assert error == "CorruptStreamError"
    assert int(grown_mb) <= 8
