"""Context-model unit tests: hashing twins, adaptation, halving, the
dense twin and the model's memory.

Per-symbol rows, triples and inverse lookups come from the step-wise
decoder's :class:`~repro.algorithms.reference.ac.RowContextModel`;
production's decoder reads the same tables through ``sparse_rows``."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.algorithms.ac import ac_compress, ac_decompress
from repro.algorithms.ac.model import MAX_ORDER, ACConfig, ContextModel
from repro.algorithms.reference import REGISTRY
from repro.algorithms.reference.ac import RowContextModel, context_hash_scalar
from repro.datasets import get_dataset
from repro.errors import CorruptStreamError

KIB = 1024
MIB = 1 << 20


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
    seq_model = RowContextModel(config)
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
    model = RowContextModel(_config())
    row = model.cum_row(0)
    assert row == list(range(257))
    assert model.triple(0, 255) == (255, 1, 256)


def test_update_is_deterministic():
    """Two models fed the same chunks agree on everything they expose:
    the next chunk's triples and the row of every context seen."""
    config = _config()
    rng = np.random.default_rng(13)
    data = rng.integers(0, 256, size=2048 + config.chunk_bytes, dtype=np.uint8)
    models = [RowContextModel(config) for _ in range(2)]
    for model in models:
        for start in range(0, 2048, config.chunk_bytes):
            model.update_chunk(data, start, start + config.chunk_bytes)
    seen = sorted(set(models[0].context_hashes(data, 0, 2048).tolist()))
    first, second = (
        (model.chunk_triples(data, 2048, len(data)),
         [model.cum_row(ctx) for ctx in seen])
        for model in models)
    assert first == second


def test_halving_keeps_totals_inside_coder_budget():
    """Hammer one context until it halves; smoothed totals must stay
    within max_total (the range coder's precision budget)."""
    config = _config(order=0, max_total=1 << 10)
    model = RowContextModel(config)
    data = np.zeros(4096, dtype=np.uint8)  # all mass on one symbol
    for start in range(0, len(data), config.chunk_bytes):
        model.update_chunk(data, start, start + config.chunk_bytes)
        row = model.cum_row(0)
        assert row[256] <= config.max_total
    # The dominant symbol kept its rank through the halvings.
    assert model.triple(0, 0)[1] > model.triple(0, 1)[1]


def test_symbol_from_target_inverts_triple():
    config = _config()
    model = RowContextModel(config)
    rng = np.random.default_rng(14)
    data = rng.integers(0, 32, size=512, dtype=np.uint8)
    model.update_chunk(data, 0, 256)
    ctx = int(model.context_hashes(data, 256, 257)[0])
    for symbol in (0, 17, 255):
        lo, fr, tot = model.triple(ctx, symbol)
        for target in (lo, lo + fr - 1):
            assert model.symbol_from_target(ctx, target) == symbol


def test_symbol_from_target_rejects_out_of_range():
    model = RowContextModel(_config())
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


# -- the dense twin -----------------------------------------------------------

def _row_from_sparse(rows, ctx: int) -> "list[int]":
    """The 257-entry cumulative row of ``ctx`` read back from
    :meth:`ContextModel.sparse_rows`, interval by interval."""
    row_of, lows, highs, syms = rows
    row = row_of(ctx)
    if isinstance(row, list):
        return row
    first, end, base, total = row
    out, below = [], 0  # below: the counts of the seen symbols so far
    keys = iter(range(first, end))
    at = next(keys, None)
    for sym in range(256):
        out.append(sym + below)
        if at is not None and syms[at] == sym:
            assert lows[at] - base == out[-1]
            below = highs[at] - base - sym - 1
            at = next(keys, None)
    assert at is None
    return out + [total]


_ALPHABET = b"\x00\x00\x00ab\xff"

#: Runs of a few symbols (a context takes thousands of hits in one chunk
#: and is skipped by the next), seeded low-entropy noise, and arbitrary
#: short inputs.
_INPUTS = st.one_of(
    st.lists(st.tuples(st.sampled_from(_ALPHABET), st.integers(1, 3000)),
             min_size=1, max_size=8).map(
        lambda runs: b"".join(bytes([sym]) * n for sym, n in runs)),
    st.builds(lambda seed, n, k: np.random.default_rng(seed).choice(
                  np.frombuffer(_ALPHABET[:k], dtype=np.uint8), n).tobytes(),
              st.integers(0, 2**32 - 1), st.integers(1, 12 * KIB),
              st.integers(1, len(_ALPHABET))),
    st.binary(min_size=1, max_size=KIB),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# A context still over budget after one halving, skipped by the next
# chunk (halved again there), then coded from; and one hot context
# halved every few small chunks.
@example(data=bytes(2046) + b"bb" + b"a" * 2048 + bytes(2048) + b"xyz" * 100,
         order=2, table_bits=10, chunk_log2=11, max_total_log2=10)
@example(data=bytes(4096) + b"ab" * 200, order=0, table_bits=8, chunk_log2=8,
         max_total_log2=10)
@given(data=_INPUTS, order=st.integers(0, MAX_ORDER),
       table_bits=st.integers(8, 16), chunk_log2=st.integers(8, 17),
       max_total_log2=st.integers(10, 16))
def test_sparse_model_matches_dense_twin(data, order, table_bits, chunk_log2,
                                         max_total_log2):
    """Chunk by chunk, the model and its dense twin (the registry's
    ``context_model`` row) give the same triples, the model's sparse rows
    read back as the twin's row for every context touched so far, and an
    untouched context gets the shared uniform row."""
    config = ACConfig(order=order, chunk_bytes=1 << chunk_log2,
                      table_bits=table_bits, max_total=1 << max_total_log2)
    row = REGISTRY["context_model"]
    sparse, dense = row.production(config), row.twin(config)
    arr = np.frombuffer(data, dtype=np.uint8)
    touched: set[int] = set()
    for start in range(0, len(arr), config.chunk_bytes):
        stop = min(start + config.chunk_bytes, len(arr))
        assert sparse.chunk_triples(arr, start, stop) == dense.chunk_triples(
            arr, start, stop)
        touched.update(sparse.context_hashes(arr, start, stop).tolist())
        sparse.update_chunk(arr, start, stop)
        dense.update_chunk(arr, start, stop)
        rows = sparse.sparse_rows()
        for ctx in sorted(touched):
            assert _row_from_sparse(rows, ctx) == dense.cum_row(ctx), ctx
        untouched = next((ctx for ctx in range(1 << table_bits)
                          if ctx not in touched), None)
        if untouched is not None:
            assert rows[0](untouched) is sparse.uniform_row


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(data=bytes(2046) + b"bb" + b"a" * 2048 + bytes(2048) + b"xyz" * 100,
         order=2, table_bits=10, chunk_log2=11, max_total_log2=10)
@given(data=_INPUTS, order=st.integers(0, MAX_ORDER),
       table_bits=st.integers(8, 16), chunk_log2=st.integers(8, 17),
       max_total_log2=st.integers(10, 16))
def test_sparse_rows_are_the_dense_rows(data, order, table_bits, chunk_log2,
                                        max_total_log2):
    """After every chunk, the decoder's sparse form of each context the
    message reaches reads back as the dense twin's row, and an unseen
    context is the shared uniform row."""
    config = ACConfig(order=order, chunk_bytes=1 << chunk_log2,
                      table_bits=table_bits, max_total=1 << max_total_log2)
    sparse, dense = ContextModel(config), REGISTRY["context_model"].twin(config)
    arr = np.frombuffer(data, dtype=np.uint8)
    for start in range(0, len(arr), config.chunk_bytes):
        stop = min(start + config.chunk_bytes, len(arr))
        sparse.update_chunk(arr, start, stop)
        dense.update_chunk(arr, start, stop)
        rows = sparse.sparse_rows()
        for ctx in np.unique(sparse.context_hashes(arr, 0, len(arr))).tolist():
            assert _row_from_sparse(rows, ctx) == dense.cum_row(ctx), ctx
        assert rows[0](-1) is sparse.uniform_row


# -- memory -------------------------------------------------------------------


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("key, corpus_bytes",
                         [("silesia/xml", 256 * KIB), ("obs_error", 128 * KIB)])
def test_codec_compress_windows_stay_small(key, corpus_bytes):
    """The 12 KiB AC windows of the ``codec_compress`` benchmark: the
    model holds their few thousand (context, symbol) pairs, not a
    ``2**table_bits``-row table, so a call peaks at <= 4 MiB traced."""
    corpus = bytes(get_dataset(key).generate(corpus_bytes))
    window = corpus[corpus_bytes // 2:corpus_bytes // 2 + 12 * KIB]
    blob = ac_compress(window)
    assert ac_decompress(blob) == window  # and numpy's lazy imports are done
    assert _traced_peak(ac_compress, window) <= 4 * MIB
    assert _traced_peak(ac_decompress, blob) <= 4 * MIB


@pytest.mark.parametrize("repeats", [10, 40], ids=["one-chunk", "two-chunks"])
def test_table_bits_20_decode_stays_within_its_cap(repeats):
    """A 141-byte stream naming 2**20 contexts (one chunk), and one of
    two chunks that folds the first in, decode under ``max_output``
    1024 with a traced peak <= 2 * cap + 1 MiB."""
    data = b"hello world " * repeats
    blob = ac_compress(data, ACConfig(table_bits=20, chunk_bytes=256))
    if repeats == 10:
        assert len(blob) == 141
    cap = 1024
    assert ac_decompress(blob, max_output=cap) == data
    assert _traced_peak(ac_decompress, blob, cap) <= 2 * cap + MIB
