"""xxHash32 against the official test vectors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.reference.xxhash32 import xxh32_scalar
from repro.util.xxhash32 import xxh32


# Official XXH32 vectors (from the xxHash repository's test suite).
VECTORS = [
    (b"", 0, 0x02CC5D05),
    (b"", 1, 0x0B2CB792),
    (b"a", 0, 0x550D7456),
    (b"as", 0, 0x9D5A0464),
    (b"asd", 0, 0x3D83552B),
    (b"Hello World", 0, 0xB1FD16EE),
    # At least one 16-byte stripe (the packed-lane loop from 48 bytes).
    (b"Nobody inspects the spammish repetition", 0, 0xE2293B2F),
    (b"I want an unsigned 32-bit seed!", 1, 0xD8D4B4BA),
]


@pytest.mark.parametrize("data,seed,expected", VECTORS)
def test_official_vectors(data, seed, expected):
    assert xxh32(data, seed) == xxh32_scalar(data, seed) == expected


def test_official_vectors_through_the_packed_lanes():
    """``xxh32`` takes the scalar loop below 48 bytes, which is every
    official vector; hold the packed loop itself to the known answers."""
    from repro.util import xxhash32

    striped = [v for v in VECTORS if len(v[0]) >= 16]
    assert len(striped) == 2
    for data, seed, expected in striped:
        assert xxhash32._digest(data, seed, xxhash32._stripes_packed) == expected


def test_long_input_stripe_path():
    data = bytes(range(256)) * 64  # > 16 bytes: main 4-lane loop
    # Self-consistency + sensitivity checks.
    assert xxh32(data) == xxh32(bytes(data))
    assert xxh32(data) != xxh32(data[:-1])
    assert xxh32(data, seed=1) != xxh32(data, seed=2)


def test_all_tail_lengths():
    base = bytes(range(64))
    seen = {xxh32(base[:n]) for n in range(40)}
    assert len(seen) == 40  # every length hashes differently


def test_seed_masking():
    data = b"seed masking"
    assert xxh32(data, seed=2**32) == xxh32(data, seed=0)


def test_accepts_bytearray_and_memoryview():
    blob = b"0123456789abcdef" * 4
    assert xxh32(bytearray(blob)) == xxh32(blob)
    assert xxh32(memoryview(blob)) == xxh32(blob)


@given(
    length=st.integers(0, 4100),
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**40),
                   st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1])),
    fill=st.one_of(st.none(), st.sampled_from([0x00, 0xFF])),
    wrap=st.sampled_from([bytes, bytearray, memoryview]),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_packed_lanes_equal_scalar_loop(length, seed, fill, wrap, data):
    """Every ``n % 16``, seeds past 2**32, and all-0xFF input — the
    largest lane products, where a field comes closest to 2**64."""
    if fill is None:
        blob = data.draw(st.binary(min_size=length, max_size=length))
    else:
        blob = bytes([fill]) * length
    assert xxh32(wrap(blob), seed) == xxh32_scalar(blob, seed)


def test_every_length_through_both_loops():
    """Exhaustive over 0..4100 bytes of 0xFF and of a counting pattern:
    each tail length after each stripe count, on both sides of the
    48-byte switch to the packed loop."""
    ones = b"\xff" * 4100
    ramp = bytes(range(256)) * 17
    for n in range(4101):
        assert xxh32(ones[:n], 0xFFFFFFFF) == xxh32_scalar(ones[:n], 0xFFFFFFFF), n
        assert xxh32(ramp[:n], n) == xxh32_scalar(ramp[:n], n), n


def test_blocked_premultiply_matches_scalar(monkeypatch):
    """Inputs longer than one numpy block carry the accumulators across
    block boundaries."""
    from repro.util import xxhash32

    monkeypatch.setattr(xxhash32, "_PACKED_BLOCK_STRIPES", 5)
    data = bytes(range(256)) * 3
    for n in (5 * 16, 5 * 16 + 1, 10 * 16, 11 * 16 + 7, len(data)):
        assert xxh32(data[:n], 7) == xxh32_scalar(data[:n], 7)
