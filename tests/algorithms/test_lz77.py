"""LZ77 matcher: roundtrip fidelity and structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.lz77 import MatcherConfig, reconstruct, tokenize


class TestConfig:
    def test_defaults_valid(self):
        cfg = MatcherConfig()
        assert cfg.window_size == 32768

    def test_min_match_below_three_rejected(self):
        with pytest.raises(ValueError):
            MatcherConfig(min_match=2)

    def test_max_below_min_rejected(self):
        with pytest.raises(ValueError):
            MatcherConfig(min_match=4, max_match=3)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ValueError):
            MatcherConfig(window_size=0)


class TestTokenize:
    def test_empty(self):
        tokens = tokenize(b"")
        assert len(tokens) == 0
        assert reconstruct(tokens) == b""

    def test_tiny_inputs_all_literals(self):
        for blob in (b"a", b"ab", b"abc"):
            tokens = tokenize(blob)
            assert tokens.n_matches() == 0
            assert reconstruct(tokens) == blob

    def test_repeated_text_finds_matches(self):
        blob = b"abcdefgh" * 100
        tokens = tokenize(blob)
        assert tokens.n_matches() > 0
        assert reconstruct(tokens) == blob

    def test_rle_run_uses_overlapping_match(self):
        blob = b"x" * 1000
        tokens = tokenize(blob)
        assert reconstruct(tokens) == blob
        # A run should compress to very few tokens (literal + overlaps).
        assert len(tokens) < 20

    def test_incompressible_random(self):
        rng = np.random.default_rng(0)
        blob = rng.bytes(5000)
        tokens = tokenize(blob)
        assert reconstruct(tokens) == blob

    def test_match_constraints(self):
        cfg = MatcherConfig(window_size=1024, max_match=64)
        blob = (b"0123456789abcdef" * 400)[:5000]
        tokens = tokenize(blob, cfg)
        pos = 0
        for length, value in zip(tokens.lengths, tokens.values):
            if length > 0:
                assert cfg.min_match <= length <= cfg.max_match
                assert 1 <= value <= cfg.window_size
                assert value <= pos  # distance cannot precede the start
                pos += length
            else:
                assert 0 <= value <= 255
                pos += 1
        assert pos == len(blob)

    def test_lazy_comparable_to_greedy_on_text(self):
        # Lazy evaluation trades per-position choices; on natural text it
        # should land within a few percent of greedy (usually better).
        blob = (b"she sells sea shells by the sea shore " * 200)[:6000]
        lazy = tokenize(blob, MatcherConfig(lazy=True))
        greedy = tokenize(blob, MatcherConfig(lazy=False))
        assert reconstruct(lazy) == blob
        assert reconstruct(greedy) == blob
        assert len(lazy) <= len(greedy) * 1.05

    def test_n_literals_matches_counts(self):
        blob = b"abcabcabc" * 10
        tokens = tokenize(blob)
        assert tokens.n_literals() + tokens.n_matches() == len(tokens)

    def test_arrays_conversion(self):
        tokens = tokenize(b"hello hello hello hello")
        lengths, values = tokens.arrays()
        assert lengths.dtype == np.int32
        assert lengths.shape == values.shape


class TestReconstruct:
    def test_invalid_distance_rejected(self):
        from repro.algorithms.lz77 import TokenStream

        bad = TokenStream([0, 5], [ord("a"), 4], 6)  # distance 4 > output 1
        with pytest.raises(ValueError):
            reconstruct(bad)

    @pytest.mark.parametrize("distance", [0, -1])
    def test_distance_below_one_rejected(self, distance):
        """A copy from the byte being written (or ahead of it) has no
        source: the same ValueError, not an IndexError from the loop."""
        from repro.algorithms.lz77 import TokenStream

        with pytest.raises(ValueError, match="copy distance"):
            reconstruct(TokenStream([0, 3], [65, distance], 4))


@given(st.binary(max_size=3000))
@settings(max_examples=60, deadline=None)
def test_property_roundtrip_default(blob):
    assert reconstruct(tokenize(blob)) == blob


@given(
    st.binary(max_size=1500),
    st.sampled_from([
        MatcherConfig(lazy=False),
        MatcherConfig(max_chain=1),
        MatcherConfig(window_size=64),
        MatcherConfig(max_match=16),
        MatcherConfig(window_size=16, max_chain=4, lazy=False),
    ]),
)
@settings(max_examples=50, deadline=None)
def test_property_roundtrip_configs(blob, cfg):
    assert reconstruct(tokenize(blob, cfg)) == blob


@given(st.lists(st.sampled_from(b"ab"), max_size=2000))
@settings(max_examples=30, deadline=None)
def test_property_low_entropy_roundtrip(symbols):
    blob = bytes(symbols)
    tokens = tokenize(blob)
    assert reconstruct(tokens) == blob
