"""Token identity of both LZ77 kernels against the scalar matcher.

``lz77.tokenize`` must return its scalar twin's (the registry rows
``tokenize`` and ``tokenize_small``) two lists element for element — not
an equally good factorization, the same one — for every
``MatcherConfig``: DEFLATE block boundaries, Huffman trees and therefore
every compressed byte downstream depend on it.  Every case below runs
both kernels, ``_tokenize_vec`` and ``_tokenize_small``, on its input
whatever its size, as well as ``tokenize`` itself.  A seeded sample of
the configuration grid runs over six data families and the lengths
around every set-up edge, ``bytes`` and ``memoryview``; directed cases
pin each branch the bucket-slice layout added (window cut, walk past the
column width, the ``good_match`` budget restated on slice bounds, zero
padding at the tail).  Hypothesis draws inputs of 0-4 KiB, a sweep
takes every short two-letter input, and the cases either side of the
size split also check which kernel ``tokenize`` picks.  The seed
rotates with ``REPRO_FUZZ_SEED`` like the other fuzzers.
"""

from __future__ import annotations

import itertools
import os
import random
from unittest.mock import patch

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.algorithms import lz77
from repro.algorithms.lz77 import MatcherConfig, reconstruct
from repro.algorithms.reference import REGISTRY

BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260806"))

WINDOWS = (1, 5, 64, 300, 4096, 32768)
MIN_MATCHES = (3, 4, 5)
MAX_MATCHES = (5, 16, 33, 258)
MAX_CHAINS = (1, 2, 4, 13, 48, 128)
GOOD_MATCHES = (3, 4, 8, 32, 300)
LENGTHS = (0, 1, 2, 3, 4, 5, 7, 12, 31, 255, 256, 257, 1000, 4097, 20000)
WORDS = (b"alpha", b"beta ", b"<row id=", b"</row>", b"0123456789", b"ab")


def assert_same_tokens(data, cfg):
    """Both kernels' and ``tokenize``'s tokens == scalar tokens; returns
    ``tokenize``'s."""
    want = REGISTRY["tokenize"].twin(data, cfg)
    for kernel in (lz77._tokenize_vec, lz77._tokenize_small, lz77.tokenize):
        got = kernel(data, cfg)
        assert got.lengths == want.lengths, (kernel.__name__, cfg)
        assert got.values == want.values, (kernel.__name__, cfg)
        assert got.n_input == want.n_input == len(data)
    return got


def draw_config(rng: random.Random) -> MatcherConfig:
    return MatcherConfig(
        window_size=rng.choice(WINDOWS),
        min_match=rng.choice(MIN_MATCHES),
        max_match=rng.choice(MAX_MATCHES),
        max_chain=rng.choice(MAX_CHAINS),
        lazy=rng.random() < 0.5,
        good_match=rng.choice(GOOD_MATCHES),
    )


def _random(rng, n):
    return rng.randbytes(n)


def _three_symbols(rng, n):
    return bytes(rng.choice(b"abc") for _ in range(n))


def _zeros(rng, n):
    return bytes(n)


def _dictionary(rng, n):
    out = bytearray()
    while len(out) < n:
        out += rng.choice(WORDS)
    return bytes(out[:n])


def _noisy_period(rng, n):
    period = rng.randbytes(rng.randint(1, 40))
    out = bytearray((period * (n // len(period) + 1))[:n])
    for _ in range(n // 50):
        out[rng.randrange(n)] = rng.randrange(256)
    return bytes(out)


def _ramps(rng, n):
    step = rng.randint(1, 4)
    return bytes((i // step) & 0xFF for i in range(n))


FAMILIES = {
    "random": _random,
    "three_symbols": _three_symbols,
    "zeros": _zeros,
    "dictionary": _dictionary,
    "noisy_period": _noisy_period,
    "ramps": _ramps,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_seeded_grid(family):
    rng = random.Random(f"{BASE_SEED}:{family}")
    for n in LENGTHS:
        data = FAMILIES[family](rng, n)
        for draw in range(3 if n > 5000 else 8):
            payload = memoryview(data) if draw % 2 else data
            assert_same_tokens(payload, draw_config(rng))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_default_config_roundtrips(family):
    rng = random.Random(f"{BASE_SEED}:default:{family}")
    data = FAMILIES[family](rng, 6000)
    assert reconstruct(assert_same_tokens(data, None)) == data


configs = st.builds(
    MatcherConfig,
    window_size=st.sampled_from(WINDOWS),
    min_match=st.sampled_from(MIN_MATCHES),
    max_match=st.sampled_from(MAX_MATCHES),
    max_chain=st.sampled_from(MAX_CHAINS),
    lazy=st.booleans(),
    good_match=st.sampled_from(GOOD_MATCHES),
)


@seed(BASE_SEED)
@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=600),
        st.lists(st.sampled_from(WORDS), max_size=120).map(b"".join),
        st.lists(st.sampled_from([b"a", b"b", b"ab", b"\x00" * 9]),
                 max_size=300).map(b"".join),
    ),
    configs,
)
def test_token_identity_hypothesis(data, cfg):
    assert_same_tokens(data, cfg)


# -- directed cases: one per branch the layout added ------------------------


def test_window_cut_binds():
    """Buckets whose older entries lie outside the window while a newer
    one is inside: the walk must start at the ``bisect`` cut, not at the
    bucket's first slot."""
    rng = random.Random("directed:window")  # fixed: exact tokens asserted
    phrase = rng.randbytes(24)
    data = b"".join(
        phrase + rng.randbytes(20) + phrase[:8] + rng.randbytes(130)
        for _ in range(12)
    )
    near = assert_same_tokens(data, MatcherConfig(window_size=64, max_chain=128))
    far = assert_same_tokens(data, MatcherConfig(window_size=4096, max_chain=128))
    # Inside 64 bytes only the 8-byte echo (44 back) is reachable; the
    # full phrase repeats 182 bytes back.
    assert {(l, v) for l, v in zip(near.lengths, near.values) if l} == {(8, 44)}
    assert (24, 182) in zip(far.lengths, far.values)


def _shared_bucket_case(match_lens, tail_len, seed_tag):
    """``abc``-prefixed candidates, oldest first, each agreeing with the
    final target for exactly ``match_lens[i]`` bytes, separated by
    filler; returns (data, target offset, candidate offsets).  The seed
    is fixed: a filler trigram aliasing into the bucket would cost a hop."""
    rng = random.Random(f"directed:{seed_tag}")
    alphabet = bytes(range(0x30, 0x5B))  # no 'a', 'b', 'c'
    body = bytes(rng.choice(alphabet) for _ in range(tail_len - 3))
    target = b"abc" + body
    out = bytearray()
    offsets = []
    for i, m in enumerate(match_lens):
        offsets.append(len(out))
        out += target[:m] + bytes([target[m] ^ 0x80])
        out += bytes(range(0x80 + 8 * i, 0x85 + 8 * i))  # filler, never repeats
    return bytes(out) + target, len(out), offsets


@pytest.mark.parametrize("lens,good,tail", [
    ((16, 14, 12, 10), 8, 24),     # every hop inside the column width
    ((50, 45, 40, 35), 32, 64),    # best_len past it: the plain walk
])
def test_two_good_match_shrinks_in_one_walk(lens, good, tail):
    """Budget 48 -> 11 -> 1: the newest candidate is good, so is the
    next, which leaves exactly one more hop — the third candidate is
    found, the (longest) fourth is never visited."""
    data, at, offsets = _shared_bucket_case(lens, tail, "shrink")
    cfg = MatcherConfig(max_chain=48, good_match=good, lazy=False)
    tokens = assert_same_tokens(data, cfg)
    # Locate the token that starts at the target.
    pos = 0
    for length, value in zip(tokens.lengths, tokens.values):
        if pos == at:
            assert (length, value) == (lens[1], at - offsets[1])
            break
        pos += max(length, 1)
    else:
        pytest.fail("no token starts at the target")
    # With the shrink out of reach the walk does get to the longest one.
    deep = assert_same_tokens(
        data, MatcherConfig(max_chain=48, good_match=300, lazy=False))
    assert lens[0] in deep.lengths and lens[0] not in tokens.lengths


@pytest.mark.parametrize("max_chain", [128, 1 << 40])
def test_shrink_quarters_the_configured_budget_not_the_input_length(max_chain):
    """``max_chain`` > len(data): at position 31 the sixth hop finds a
    good (8-byte) match and the shrink must quarter what is left of the
    *configured* budget — enough to reach the 9-byte match at offset 0 —
    not of a budget clamped to the 40-byte input ((35 >> 2) - 1 = 7 hops,
    which stops short of it)."""
    data = bytes([0] * 8 + [2, 1] + [0] * 20 + [3] + [0] * 8 + [2])
    cfg = MatcherConfig(max_chain=max_chain, good_match=8)
    tokens = assert_same_tokens(data, cfg)
    assert len(data) == 40
    assert (tokens.lengths[-1], tokens.values[-1]) == (9, 31)


def test_long_run_walks_past_the_column_width():
    """``best_len`` >= 32 with budget left and no ``limit``-long match:
    candidates are then rejected by the per-hop walk, and a match longer
    than two table words is measured as one big int."""
    data, at, offsets = _shared_bucket_case((120, 70, 40, 33), 140, "long")
    cfg = MatcherConfig(max_chain=128, good_match=300, lazy=False)
    tokens = assert_same_tokens(data, cfg)
    assert tokens.lengths[-1] == 0 or tokens.lengths[-1] <= 20
    assert (120, at - offsets[0]) in zip(tokens.lengths, tokens.values)


@pytest.mark.parametrize("tail", range(3, 9))
def test_zero_padding_does_not_extend_a_match_past_the_input(tail):
    """``limit`` < 8 at the tail, and the candidate continues in zero
    bytes — exactly what the padded word table holds past ``n``."""
    phrase = b"abcdefgh"[:tail]
    data = phrase + bytes(12) + b"XYZW" * 3 + phrase
    tokens = assert_same_tokens(data, MatcherConfig(lazy=False))
    assert (tokens.lengths[-1], tokens.values[-1]) == (tail, len(data) - tail)
    assert reconstruct(tokens) == data
    assert_same_tokens(memoryview(data), MatcherConfig(min_match=4))


# -- hypothesis, short inputs, views and the size split ---------------------


@st.composite
def family_inputs(draw):
    """0-4 KiB of one of the six families, from a drawn seed.  The seed
    also picks the size, uniform under a drawn cap: hypothesis's own
    integers rarely leave the first few hundred (and favour the first
    cap listed)."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    cap = draw(st.sampled_from((4096, 1024, 64)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return FAMILIES[family](rng, rng.randint(0, cap))


@seed(BASE_SEED)
@settings(max_examples=200, deadline=None)
@given(st.one_of(family_inputs(), st.binary(max_size=4096)), configs)
def test_both_kernels_hypothesis(data, cfg):
    assert_same_tokens(data, cfg)


@pytest.mark.parametrize("lazy", [False, True])
def test_short_two_letter_inputs_exhaustively(lazy):
    """Every ``a``/``b`` string up to 12 long, at hop budgets 0, 1, 2 and
    one no input exhausts, with ``good_match`` 4 quartering the budget
    after every match that long."""
    cfgs = [MatcherConfig(max_chain=chain, lazy=lazy, good_match=4)
            for chain in (0, 1, 2, 1 << 40)]
    for n in range(13):
        for letters in itertools.product(b"ab", repeat=n):
            data = bytes(letters)
            for cfg in cfgs:
                assert_same_tokens(data, cfg)


def test_memoryview_inputs():
    rng = random.Random(f"{BASE_SEED}:memoryview")
    for family in sorted(FAMILIES):
        data = FAMILIES[family](rng, 700)
        got = assert_same_tokens(memoryview(data), draw_config(rng))
        assert reconstruct(got) == data
        # A view into a larger buffer, not starting at its first byte.
        assert_same_tokens(memoryview(b"\x00" + data + b"\x00")[1:-1], None)


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_lengths_either_side_of_the_split(delta):
    """At the split ``tokenize`` runs the small kernel, one byte past it
    the bucket-slice walk."""
    n = lz77._SMALL_INPUT_BYTES + delta
    rng = random.Random(f"{BASE_SEED}:split:{delta}")
    for family in sorted(FAMILIES):
        data = FAMILIES[family](rng, n)
        cfg = draw_config(rng)
        assert_same_tokens(data, cfg)
        with patch.object(lz77, "_tokenize_small", wraps=lz77._tokenize_small) as small:
            lz77.tokenize(data, cfg)
        assert small.called == (delta <= 0)
