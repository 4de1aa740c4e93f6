"""Context-model unit tests: hashing twins, adaptation, halving."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.ac.model import MAX_ORDER, ACConfig, ContextModel
from repro.algorithms.reference.ac import context_hash_scalar
from repro.errors import CorruptStreamError


def _config(**kw) -> ACConfig:
    base = dict(order=2, chunk_bytes=256, table_bits=10, max_total=1 << 10)
    base.update(kw)
    return ACConfig(**base)


@pytest.mark.parametrize("order", range(MAX_ORDER + 1))
def test_scalar_hash_matches_vectorized(order):
    """The decoder's scalar hash must agree with the encoder's
    vectorized hash at every position, including the zero-padded head."""
    config = _config(order=order)
    model = ContextModel(config)
    rng = np.random.default_rng(order)
    data = rng.integers(0, 256, size=700, dtype=np.uint8)
    vec = model.context_hashes(data, 0, len(data))
    history: list[int] = []
    for pos in range(len(data)):
        assert context_hash_scalar(model, history) == vec[pos], pos
        history.append(int(data[pos]))
        if len(history) > order:
            history.pop(0)


def test_chunk_triples_match_sequential_triples():
    config = _config()
    vec_model = ContextModel(config)
    seq_model = ContextModel(config)
    rng = np.random.default_rng(11)
    data = rng.integers(0, 64, size=600, dtype=np.uint8)
    for start in range(0, len(data), config.chunk_bytes):
        stop = min(start + config.chunk_bytes, len(data))
        lo, fr, tot = vec_model.chunk_triples(data, start, stop)
        history = [int(b) for b in data[max(0, start - config.order):start]]
        for i, pos in enumerate(range(start, stop)):
            ctx = context_hash_scalar(seq_model, history)
            s_lo, s_fr, s_tot = seq_model.triple(ctx, int(data[pos]))
            assert (lo[i], fr[i], tot[i]) == (s_lo, s_fr, s_tot)
            history.append(int(data[pos]))
            if len(history) > config.order:
                history.pop(0)
        vec_model.update_chunk(data, start, stop)
        seq_model.update_chunk(data, start, stop)


def test_untouched_context_is_uniform():
    model = ContextModel(_config())
    row = model.cum_row(0)
    assert row == list(range(257))
    assert model.triple(0, 255) == (255, 1, 256)


def test_update_is_deterministic():
    config = _config()
    rng = np.random.default_rng(13)
    data = rng.integers(0, 256, size=2048, dtype=np.uint8)
    models = [ContextModel(config) for _ in range(2)]
    for model in models:
        for start in range(0, len(data), config.chunk_bytes):
            stop = min(start + config.chunk_bytes, len(data))
            model.update_chunk(data, start, stop)
    assert np.array_equal(models[0]._counts, models[1]._counts)
    assert np.array_equal(models[0]._totals, models[1]._totals)


def test_halving_keeps_totals_inside_coder_budget():
    """Hammer one context until it halves; smoothed totals must stay
    within max_total (the range coder's precision budget)."""
    config = _config(order=0, max_total=1 << 10)
    model = ContextModel(config)
    data = np.zeros(4096, dtype=np.uint8)  # all mass on one symbol
    for start in range(0, len(data), config.chunk_bytes):
        model.update_chunk(data, start, start + config.chunk_bytes)
        row = model.cum_row(0)
        assert row[256] <= config.max_total
    # The dominant symbol kept its rank through the halvings.
    assert model.triple(0, 0)[1] > model.triple(0, 1)[1]


def test_symbol_from_target_inverts_triple():
    config = _config()
    model = ContextModel(config)
    rng = np.random.default_rng(14)
    data = rng.integers(0, 32, size=512, dtype=np.uint8)
    model.update_chunk(data, 0, 256)
    ctx = int(model.context_hashes(data, 256, 257)[0])
    for symbol in (0, 17, 255):
        lo, fr, tot = model.triple(ctx, symbol)
        for target in (lo, lo + fr - 1):
            assert model.symbol_from_target(ctx, target) == symbol


def test_symbol_from_target_rejects_out_of_range():
    model = ContextModel(_config())
    with pytest.raises(CorruptStreamError):
        model.symbol_from_target(0, 256)
    with pytest.raises(CorruptStreamError):
        model.symbol_from_target(0, -1)


@pytest.mark.parametrize(
    "kw",
    [
        dict(order=-1),
        dict(order=MAX_ORDER + 1),
        dict(chunk_bytes=100),     # not a power of two
        dict(chunk_bytes=128),     # below the floor
        dict(table_bits=7),
        dict(table_bits=21),
        dict(max_total=1 << 9),
        dict(max_total=1 << 17),
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        _config(**kw)


def test_chunk_log2_round_trips():
    config = ACConfig(chunk_bytes=8192)
    assert 1 << config.chunk_log2 == 8192
