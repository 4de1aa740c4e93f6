"""Every ``reference.REGISTRY`` row against its twin, from one table.

A twin (:mod:`repro.algorithms.reference`) is the slow, obvious form of
a production kernel, and every compressed byte rests on the two
agreeing.  :data:`CASES` has one :class:`Case` per registry row, keyed
by the row's name: a hypothesis strategy and a directed corpus of
argument tuples, an optional projection of the outputs, and, for
decoders, a corpus of cut and bit-flipped inputs.  :func:`agree` runs
``row.production(*args)`` and ``row.twin(*args)`` and requires the same
outcome: equal (projected) outputs, numpy arrays equal in dtype, shape
and bytes, or the same :class:`~repro.errors.ReproError` class.

Adding a twin is one REGISTRY row, one entry here, and a
``regress.WALL_CASES`` row if it is gated on wall clock; the tests at
the bottom fail when a row has no entry or an entry no row, and when a
wall case or a speedup band names something that is not there.
Directed cases that predate this table keep their test ids in the
kernels' own test files and compare through :func:`agree` too.  Where
such a file already had a hypothesis test of a row, that test is the
row's one hypothesis runner (:attr:`Case.runner`, built by
:func:`given_case`) and may check more than :func:`agree` does, a round
trip or a dtype.
"""

from __future__ import annotations

import copy
import functools
import importlib
import itertools
import os
import random
import re
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.algorithms import huffman
from repro.algorithms.ac import ACConfig, ac_compress
from repro.algorithms.ac.codec import HEADER_BYTES, model_batches
from repro.algorithms.ac.model import ContextModel
from repro.algorithms.ac.rangecoder import RangeDecoder
from repro.algorithms.deflate import DeflateConfig, deflate_compress
from repro.algorithms.deflate import decompress as inflate_module
from repro.algorithms.lz4 import Lz4Config, lz4_block_compress
from repro.algorithms.lz77 import MatcherConfig, tokenize
from repro.algorithms.reference import REGISTRY, Twin
from repro.algorithms.reference.ac import ReferenceDecoder
from repro.algorithms.sz3.encoder import encode_residuals
from repro.bench import regress
from repro.datasets import get_dataset
from repro.errors import ChecksumMismatchError, ReproError
from repro.util.bitio import BitReader, BitWriter
from repro.util.xxhash32 import xxh32

BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260806"))


@dataclass(frozen=True)
class Case:
    """How one registry row is compared with its twin.

    ``strategy`` draws argument tuples, ``examples`` of them per run, in
    :func:`test_hypothesis_inputs_agree` or, when ``runner`` names one
    (``"module::test"``, the module under ``tests``), in that older
    test.  ``corpus`` and ``damaged`` build directed ones, the latter
    cut or bit-flipped inputs of which some must be rejected;
    ``lenient`` wraps each side's kernel for those, to take out a check
    both share.  ``project`` maps ``(output, *args)`` to the value
    compared, ``project_twin`` the twin's where it differs.  A kernel
    that writes to its first argument is ``mutates``: each side then
    gets its own deep copy.
    """

    strategy: st.SearchStrategy
    examples: int
    corpus: "Callable[[], Iterable[tuple]]"
    project: "Callable[..., Any] | None" = None
    project_twin: "Callable[..., Any] | None" = None
    damaged: "Callable[[], Iterable[tuple]] | None" = None
    lenient: "Callable[[Callable], Callable] | None" = None
    mutates: bool = False
    runner: "str | None" = None


def _outcome(kernel, args: tuple, project) -> Any:
    """The (projected) output, arrays as ``(dtype, shape, bytes)``, or
    the class of the typed error raised."""
    try:
        # Float overflow and NaN/Inf -> int64 casts are platform-defined;
        # both sides share them.
        with np.errstate(invalid="ignore", over="ignore"):
            out = kernel(*args)
            if project is not None:
                out = project(out, *args)
    except ReproError as exc:
        return type(exc)
    if isinstance(out, np.ndarray):
        return out.dtype.str, out.shape, out.tobytes()
    return out


def agree(name: str, *args: Any, damaged: bool = False) -> Any:
    """Row ``name``'s production kernel and twin on ``args``: the same
    outcome, which is returned.  ``damaged`` inputs run through the
    row's ``lenient`` wrapper, if it has one."""
    row, case = REGISTRY[name], CASES[name]
    wrap = case.lenient if damaged and case.lenient else (lambda kernel: kernel)
    got, want = (
        _outcome(wrap(kernel), copy.deepcopy(args) if case.mutates else args, project)
        for kernel, project in ((row.production, case.project),
                                (row.twin, case.project_twin or case.project)))
    assert got == want, (name, repr(args)[:300])
    return got


def given_case(name: str, source: "st.SearchStrategy | None" = None):
    """Decorate ``check(*drawn)`` into row ``name``'s hypothesis runner:
    ``CASES[name].examples`` tuples drawn from the row's strategy, or
    from ``source``, what that strategy maps to arguments, for a check
    that needs the input behind them."""
    def decorate(check):
        @settings(max_examples=CASES[name].examples, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
        @given(CASES[name].strategy if source is None else source)
        def run(drawn):
            check(*drawn)

        run.twin_row = name
        return run
    return decorate


def given_agree(name: str):
    """Row ``name``'s hypothesis runner that only runs :func:`agree`."""
    return given_case(name)(functools.partial(agree, name))


def cuts(blob: bytes, stop: "int | None" = None, step: int = 1,
         start: int = 0) -> "Iterator[bytes]":
    """Every ``step``-th prefix of ``blob`` from ``start`` bytes up to
    (not including) ``stop``, the whole blob by default."""
    return (blob[:keep] for keep in range(start, len(blob) if stop is None else stop, step))


def flips(blob: bytes, bits: Iterable[int]) -> "Iterator[bytes]":
    """``blob`` with each of ``bits`` flipped, one at a time."""
    for bit in bits:
        flipped = bytearray(blob)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        yield bytes(flipped)


def _dataset(key: str, nbytes: int) -> bytes:
    return bytes(get_dataset(key).generate(nbytes))


def adversarial_corpus() -> "dict[str, bytes]":
    rng = np.random.default_rng(BASE_SEED)
    return {
        "empty": b"",
        "one_byte": b"\xa5",
        "two_bytes": b"ab",
        "all_zero": b"\x00" * 5000,
        "incompressible": rng.bytes(4096),
        "max_match_runs": b"A" * (258 * 4 + 7) + b"B" * 258 + b"A" * 300,
        "period2": b"\x7f\x80" * 700,
        "period3": b"abc" * 900,
        "period4_break": (b"PQRS" * 300 + b"\x00" * 600) * 2,
        "ascii_noise": bytes(rng.integers(32, 127, 4096, dtype=np.uint8)),
        "xml_sample": _dataset("silesia/xml", 32 * 1024),
    }


#: Byte inputs with every kind of LZ77 structure, for the DEFLATE rows.
CORPUS = adversarial_corpus()


# -- LZ77 ----------------------------------------------------------------

WINDOWS = (1, 5, 64, 300, 4096, 32768)
MIN_MATCHES = (3, 4, 5)
MAX_MATCHES = (5, 16, 33, 258)
MAX_CHAINS = (1, 2, 4, 13, 48, 128)
GOOD_MATCHES = (3, 4, 8, 32, 300)
WORDS = (b"alpha", b"beta ", b"<row id=", b"</row>", b"0123456789", b"ab")


def draw_config(rng: random.Random) -> MatcherConfig:
    return MatcherConfig(
        window_size=rng.choice(WINDOWS),
        min_match=rng.choice(MIN_MATCHES),
        max_match=rng.choice(MAX_MATCHES),
        max_chain=rng.choice(MAX_CHAINS),
        lazy=rng.random() < 0.5,
        good_match=rng.choice(GOOD_MATCHES),
    )


def _noisy_period(rng: random.Random, n: int) -> bytes:
    period = rng.randbytes(rng.randint(1, 40))
    out = bytearray((period * (n // len(period) + 1))[:n])
    for _ in range(n // 50):
        out[rng.randrange(n)] = rng.randrange(256)
    return bytes(out)


def _dictionary(rng: random.Random, n: int) -> bytes:
    out = bytearray()
    while len(out) < n:
        out += rng.choice(WORDS)
    return bytes(out[:n])


def _ramps(rng: random.Random, n: int) -> bytes:
    step = rng.randint(1, 4)
    return bytes((i // step) & 0xFF for i in range(n))


#: Six families of LZ77 input, each ``(rng, n) -> n bytes``.
FAMILIES: "dict[str, Callable[[random.Random, int], bytes]]" = {
    "random": lambda rng, n: rng.randbytes(n),
    "three_symbols": lambda rng, n: bytes(rng.choice(b"abc") for _ in range(n)),
    "zeros": lambda rng, n: bytes(n),
    "dictionary": _dictionary,
    "noisy_period": _noisy_period,
    "ramps": _ramps,
}

configs = st.builds(
    MatcherConfig,
    window_size=st.sampled_from(WINDOWS),
    min_match=st.sampled_from(MIN_MATCHES),
    max_match=st.sampled_from(MAX_MATCHES),
    max_chain=st.sampled_from(MAX_CHAINS),
    lazy=st.booleans(),
    good_match=st.sampled_from(GOOD_MATCHES),
)


@st.composite
def family_inputs(draw):
    """0-4 KiB of one of the six families, from a drawn seed.  The seed
    also picks the size, uniform under a drawn cap: hypothesis's own
    integers rarely leave the first few hundred."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    cap = draw(st.sampled_from((4096, 1024, 64)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return FAMILIES[family](rng, rng.randint(0, cap))


#: Arbitrary bytes, dictionary words, ``a``/``b`` runs and the families,
#: up to 4 KiB, under the ``MatcherConfig`` grid or the default.
lz77_args = st.tuples(
    st.one_of(
        st.binary(max_size=600),
        st.lists(st.sampled_from(WORDS), max_size=120).map(b"".join),
        st.lists(st.sampled_from([b"a", b"b", b"ab", b"\x00" * 9]),
                 max_size=300).map(b"".join),
        family_inputs(),
        st.binary(max_size=4096),
    ),
    st.one_of(configs, st.none()),
)


def token_fields(tokens, *_) -> tuple:
    """What two token streams must share: both lists and the input length."""
    return tokens.lengths, tokens.values, tokens.n_input


def lz77_corpus() -> "Iterator[tuple]":
    """Each family at 3 KiB under a drawn matcher, and as a view into a
    larger buffer under the default one."""
    rng = random.Random(f"{BASE_SEED}:twins")
    for family in sorted(FAMILIES):
        data = FAMILIES[family](rng, 3000)
        yield data, draw_config(rng)
        yield memoryview(b"\x00" + data + b"\x00")[1:-1], None


# -- LZ4 -----------------------------------------------------------------


def low_entropy(seed: int, n: int, symbols: int, phrase: int) -> bytes:
    """``n`` bytes over ``symbols`` values, every other run of ``phrase``
    bytes copied from a random earlier place (so matches of every
    length and offset appear)."""
    rng = np.random.default_rng(seed)
    out = bytearray(rng.integers(0, symbols, n, dtype=np.uint8).tobytes())
    for start in range(phrase, n - phrase, 2 * phrase):
        src = int(rng.integers(0, start))
        out[start:start + phrase] = out[src:src + phrase]
    return bytes(out)


lz4_args = st.builds(
    lambda seed, n, symbols, phrase, acceleration: (
        low_entropy(seed, n, symbols, phrase), Lz4Config(acceleration=acceleration)),
    st.integers(0, 2**32 - 1), st.integers(0, 4096),
    st.sampled_from([1, 2, 3, 4, 16, 256]), st.integers(1, 300), st.sampled_from([1, 2, 8]))


def damaged_lz4_blocks(block: bytes) -> "Iterator[tuple]":
    """Every prefix and every single bit flip of ``block``, with no cap
    and with a cap a little under the true size."""
    size = len(REGISTRY["lz4_block_decompress"].twin(block))
    for cap in (None, max(size - 3, 0)):
        yield block, cap
        for blob in itertools.chain(cuts(block), flips(block, range(len(block) * 8))):
            yield blob, cap


# -- SZ3 -----------------------------------------------------------------

_INT64 = (-(2**63), 2**63 - 1)
#: Byte offset of the bitstream in an entropy payload (count, lengths, bits).
SZ3_BITSTREAM = 8 + 255 + 8


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


#: Residual arrays, the input behind the ``decode_residuals`` payloads.
residual_sources = residual_arrays().map(lambda residuals: (residuals,))

#: A small payload with escapes, to cut and flip bit by bit.
_SZ3_SMALL = encode_residuals(np.array([5, -3, 2**50, 0, 1, -(2**62), 7], dtype=np.int64))


def sz3_bit_cuts(payload: bytes, keep: "range | None" = None) -> "Iterator[bytes]":
    """``payload`` with its bitstream cut after each of ``keep`` bits
    (every bit by default): the declared bit count shortened to match
    and the bits past the cut in the last byte cleared."""
    (nbits,) = struct.unpack_from("<Q", payload, SZ3_BITSTREAM - 8)
    for cut_bits in range(nbits) if keep is None else keep:
        cut = bytearray(payload[:SZ3_BITSTREAM + (cut_bits + 7) // 8])
        struct.pack_into("<Q", cut, SZ3_BITSTREAM - 8, cut_bits)
        if cut_bits % 8:
            cut[-1] &= (1 << cut_bits % 8) - 1
        yield bytes(cut)


def int_arrays(bound: int) -> st.SearchStrategy:
    return hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                                 max_side=6),
                      elements=st.integers(-bound, bound))


def lorenzo_corpus() -> "Iterator[tuple]":
    rng = np.random.default_rng(BASE_SEED + 3)
    for shape in ((2,), (6, 1), (1, 5), (2, 3, 4)):
        yield (rng.integers(-1000, 1000, size=shape).astype(np.int64),)


# -- Huffman ---------------------------------------------------------------


def fibonacci(count: int) -> "list[int]":
    out = [1, 1]
    while len(out) < count:
        out.append(out[-1] + out[-2])
    return out[:count]


@st.composite
def histograms(draw):
    """(freqs, max_bits): 1..286 used symbols scattered over an alphabet,
    from weight families chosen to hit ties and to make the limit bind."""
    max_bits = draw(st.sampled_from([7, 15]))
    n_used = draw(st.integers(1, min(286, 1 << max_bits)))
    family = draw(st.sampled_from(
        ["random", "few_values", "fibonacci", "equal", "powers_of_two"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "random":
        weights = rng.integers(1, 5000, n_used)
    elif family == "few_values":        # ties everywhere
        weights = rng.integers(1, 4, n_used)
    elif family == "fibonacci":         # deepest possible unbounded tree
        weights = np.array(fibonacci(80) * 4)[:n_used]
    elif family == "equal":
        weights = np.full(n_used, int(rng.integers(1, 100)))
    else:
        weights = 1 << rng.integers(0, 30, n_used)
    weights = rng.permutation(weights)
    freqs = np.zeros(draw(st.integers(n_used, 286)), dtype=np.int64)
    freqs[rng.choice(freqs.size, n_used, replace=False)] = weights
    return freqs, max_bits


@st.composite
def tied_histograms(draw):
    """(freqs, max_bits): few distinct weights (ties everywhere), or a
    powers-of-two chain ``1, 1, 2, 4, ...`` whose unlimited depth is
    ``max_bits + offset``, padded with tied weights."""
    max_bits = draw(st.sampled_from([7, 15]))
    if draw(st.booleans()):
        n_used = draw(st.integers(2, min(286, 1 << max_bits)))
        weights = draw(st.lists(st.sampled_from([1, 2, 3, 4, 8]),
                                min_size=n_used, max_size=n_used))
    else:
        depth = max(2, max_bits + draw(st.integers(-2, 2)))
        weights = [1] + [1 << k for k in range(depth)]
        weights += [draw(st.sampled_from([1, 2, 1 << depth]))] * draw(st.integers(0, 6))
    order = draw(st.permutations(range(len(weights))))
    freqs = np.zeros(len(weights) + draw(st.integers(0, 40)), dtype=np.int64)
    for slot, weight in zip(order, weights):
        freqs[slot] = weight
    return freqs, max_bits


def dropped_one(case: tuple, drop: bool) -> tuple:
    """The code lengths of a histogram, one code removed when ``drop``
    (the tree becomes incomplete, its slots invalid)."""
    lengths = huffman.code_lengths(*case)
    if drop and np.count_nonzero(lengths) > 1:
        lengths[np.flatnonzero(lengths)[0]] = 0
    return (lengths,)


def _pack_args(data: bytes) -> tuple:
    """``_pack_tokens``' arguments for one block of ``data``: its tokens
    and the LSB-first codes of the trees its histograms build."""
    tokens = tokenize(data, None)
    (litlen_freq, _), (dist_freq, _), _ = regress._block_trees(data)
    litlen, dist = (huffman.code_lengths(freqs, 15) for freqs in (litlen_freq, dist_freq))
    return (tokens.lengths, tokens.values, huffman.lsb_codes(litlen).tolist(),
            litlen.tolist(), huffman.lsb_codes(dist).tolist(), dist.tolist())


def _written(_, writer: BitWriter, *__) -> bytes:
    """The writer's bytes after a 3-bit tail past the bulk region."""
    writer.write_bits(0b101, 3)
    return writer.getvalue()


def _writer(lead_bits: int) -> BitWriter:
    """A writer holding ``lead_bits`` ones: a non-byte-aligned prefix."""
    writer = BitWriter()
    writer.write_bits((1 << lead_bits) - 1, lead_bits)
    return writer


def code_array_args(pairs: "list[tuple[int, int]]", lead_bits: int) -> tuple:
    return (_writer(lead_bits), np.asarray([c for c, _ in pairs], dtype=np.uint32),
            np.asarray([n for _, n in pairs], dtype=np.int64))


def _table(decoder, _lengths) -> tuple:
    return list(decoder.lookup), decoder.is_complete, decoder.max_bits


def _table_twin(table: np.ndarray, _lengths) -> tuple:
    return table.tolist(), bool(table.all()), table.size.bit_length() - 1


def header_bits(blob: bytes) -> int:
    """Bits up to the end of the first block's dynamic tree header."""
    reader = BitReader(blob)
    reader.read_bits(3)
    inflate_module._read_dynamic_trees(reader)
    return reader.bits_consumed


def damaged_headers(blob: bytes) -> "Iterator[tuple]":
    """Every cut up to a few bytes past the tree header, and every flip
    of a header bit after the block type."""
    bits = header_bits(blob)
    for damaged in itertools.chain(cuts(blob, min(len(blob), -(-bits // 8) + 4), start=1),
                                   flips(blob, range(3, bits))):
        yield (damaged,)


# -- AC ------------------------------------------------------------------

ac_configs = st.builds(ACConfig, order=st.integers(0, 4), chunk_bytes=st.just(256),
                       table_bits=st.sampled_from([8, 10, 14]))


def _batches(data: bytes, config: ACConfig) -> tuple:
    return (list(model_batches(data, config)),)


def _decodes(decoder_class):
    """A projection: whether the coded stream decodes, through
    ``decoder_class``, to every frequency triple of the batches."""
    def project(stream: bytes, batches) -> bool:
        decoder = decoder_class(stream)
        for batch in batches:
            for lo, freq, total in zip(batch.cum_lo, batch.freq, batch.total):
                if not lo <= decoder.decode_target(total) < lo + freq:
                    return False
                decoder.consume(lo, freq, total)
        return True
    return project


def ac_payload(name: str, nbytes: int) -> bytes:
    if name == "zeros":
        return bytes(nbytes)
    if name == "random":
        return np.random.default_rng(0xAC).bytes(nbytes)
    return _dataset(name, nbytes)


def without_crc(decode):
    """``decode`` with the CRC taken out: on a mismatch the stored CRC is
    rewritten to the computed one and the blob decoded again, which
    returns the bytes the loop produced, so two decoders that produce
    different garbage do not agree on the error alone."""
    def run(blob: bytes, *rest):
        try:
            return decode(blob, *rest)
        except ChecksumMismatchError as exc:
            patched = bytearray(blob)
            struct.pack_into("<I", patched, HEADER_BYTES - 4, exc.actual)
            return decode(bytes(patched), *rest)
    return run


def ac_damaged(config: ACConfig, data: bytes, step: int) -> "Iterator[tuple]":
    """Every ``step``-th cut of the coded payload of ``data``, and a byte
    flip at every ``step``-th payload byte (header fields stay whole:
    a declared length sizes the twin's output buffer)."""
    blob = ac_compress(data, config)
    yield from ((cut,) for cut in cuts(blob, step=step, start=HEADER_BYTES))
    for index in range(HEADER_BYTES, len(blob), step):
        flipped = bytearray(blob)
        flipped[index] ^= 0x5A
        yield (bytes(flipped),)


#: The model trace: a run long enough to be halved at ``max_total``
#: 2**10, a context seen in one chunk only, then xml.
_MODEL_TRACE = np.frombuffer(
    bytes(2046) + b"bb" + b"a" * 2048 + bytes(2048) + b"xyz" * 100
    + _dataset("silesia/xml", 2048), dtype=np.uint8)


def _model_trace(model, config: ACConfig) -> list:
    """Each chunk's frequency triples, the model updated chunk by chunk."""
    triples = []
    for start in range(0, _MODEL_TRACE.size, config.chunk_bytes):
        stop = min(start + config.chunk_bytes, _MODEL_TRACE.size)
        triples.append(model.chunk_triples(_MODEL_TRACE, start, stop))
        model.update_chunk(_MODEL_TRACE, start, stop)
    return triples


_HASHED = np.random.default_rng(BASE_SEED + 5).integers(0, 256, 1000, dtype=np.uint8)


@st.composite
def hash_windows(draw):
    data = np.frombuffer(draw(st.binary(max_size=600)), dtype=np.uint8)
    stop = draw(st.integers(0, data.size))
    return (ContextModel(ACConfig(order=draw(st.integers(0, 4)))), data,
            draw(st.integers(0, stop)), stop)


# -- xxh32 -----------------------------------------------------------------


@st.composite
def xxh32_args(draw):
    """Every ``n % 16``, seeds past 2**32, and all-0xFF input — the
    largest lane products, where a field comes closest to 2**64."""
    length = draw(st.integers(0, 4100))
    fill = draw(st.one_of(st.none(), st.sampled_from([0x00, 0xFF])))
    blob = draw(st.binary(min_size=length, max_size=length)) if fill is None \
        else bytes([fill]) * length
    wrap = draw(st.sampled_from([bytes, bytearray, memoryview]))
    seed = draw(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**40),
                          st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**32 + 1])))
    return wrap(blob), seed


# -- DEFLATE ---------------------------------------------------------------

#: Bytes and a block strategy, the input behind the ``inflate`` streams.
deflate_sources = st.tuples(st.binary(max_size=1024),
                            st.sampled_from(["auto", "fixed", "dynamic", "stored"]))


def deflated(data: bytes, strategy: str) -> bytes:
    return deflate_compress(data, DeflateConfig(strategy=strategy))


# -- the table -------------------------------------------------------------

CASES: "dict[str, Case]" = {
    "tokenize": Case(
        lz77_args, 200, lz77_corpus, project=token_fields,
        runner="algorithms.test_lz77_layout::test_both_kernels_hypothesis"),
    "tokenize_small": Case(
        lz77_args, 200, lz77_corpus, project=token_fields,
        runner="algorithms.test_lz77_layout::test_token_identity_hypothesis"),
    "lz4_block_compress": Case(
        lz4_args, 150,
        lambda: itertools.chain(
            ((data, None) for data in CORPUS.values()),
            [(memoryview(CORPUS["xml_sample"]), Lz4Config(acceleration=4))]),
        runner="algorithms.test_lz4_twin::test_blocks_equal_twin_blocks_hypothesis"),
    "lz4_block_decompress": Case(
        st.tuples(st.binary(max_size=300), st.one_of(st.none(), st.integers(-2, 2000))),
        300,
        lambda: ((lz4_block_compress(data), cap) for data in CORPUS.values()
                 for cap in (None, max(len(data) - 1, 0))),
        damaged=lambda: damaged_lz4_blocks(lz4_block_compress(CORPUS["xml_sample"][:96])),
        runner="algorithms.test_lz4_twin::test_decode_random_bytes"),
    "canonical_codes": Case(
        st.one_of(st.lists(st.integers(0, 9), max_size=40),
                  histograms().map(lambda case: huffman.code_lengths(*case).tolist()))
        .map(lambda lengths: (lengths,)),
        40,
        lambda: [([3, 3, 3, 3, 3, 2, 4, 4],), ([],), ([1, 1, 1],), ([8] * 256,)],
        runner="algorithms.test_kernel_equivalence::test_canonical_codes_equivalence"),
    "write_code_array": Case(
        st.builds(code_array_args,
                  st.lists(st.tuples(st.integers(0, (1 << 16) - 1), st.integers(0, 16)),
                           max_size=120),
                  st.integers(0, 7)),
        40,
        lambda: (code_array_args([(5, 3), (0, 0), (0xFFFF, 16)] * n, lead)
                 for n in (0, 1, 17) for lead in (0, 3, 7)),
        project=_written, mutates=True,
        runner="algorithms.test_kernel_equivalence::test_write_code_array_equivalence"),
    "pack_tokens": Case(
        st.one_of(st.binary(max_size=2048),
                  st.builds(lambda start, size: CORPUS["xml_sample"][start:start + size],
                            st.integers(0, 28 * 1024), st.integers(0, 4096)))
        .map(_pack_args),
        40,
        lambda: (_pack_args(data) for data in CORPUS.values())),
    "lorenzo_residual": Case(int_arrays(1 << 40).map(lambda a: (a,)), 50, lorenzo_corpus),
    "lorenzo_reconstruct": Case(int_arrays(1 << 40).map(lambda a: (a,)), 50,
                                lorenzo_corpus),
    "quantize": Case(
        st.tuples(hnp.arrays(st.sampled_from([np.float32, np.float64]),
                             hnp.array_shapes(min_dims=1, max_dims=3, min_side=0,
                                              max_side=6)),
                  st.sampled_from([2e-6, 2e-3, 2e-1, 1.0])),
        50,
        lambda: ((np.array([0.0, -0.0, 0.5, -0.5, 1.5, np.nan, np.inf, 5e-324]), pitch)
                 for pitch in (2e-6, 1.0))),
    "dequantize": Case(
        st.tuples(int_arrays(1 << 20), st.sampled_from([2e-6, 2e-3, 2e-1]),
                  st.sampled_from([np.dtype(np.float32), np.dtype(np.float64)])),
        50,
        lambda: ((np.array([0, 1, -1, 1 << 40, -(1 << 40)]), 1.0, np.dtype(dtype))
                 for dtype in (np.float32, np.float64))),
    "decode_residuals": Case(
        residual_sources.map(lambda source: (encode_residuals(*source),)),
        150,
        lambda: ((encode_residuals(np.array(r, dtype=np.int64)),)
                 for r in ([], [0], [2**40] * 5, [0] * 1000)),
        damaged=lambda: ((blob,) for blob in itertools.chain(
            cuts(_SZ3_SMALL), sz3_bit_cuts(_SZ3_SMALL),
            flips(_SZ3_SMALL, range(8 * (SZ3_BITSTREAM - 8), 8 * len(_SZ3_SMALL))))),
        runner="algorithms.test_sz3_twin::test_fused_decode_matches_the_twin"),
    "context_hashes": Case(
        hash_windows(), 30,
        lambda: ((ContextModel(ACConfig(order=3)), _HASHED, start, stop)
                 for start, stop in ((0, 1000), (2, 3), (997, 1000))),
        runner="algorithms.test_kernel_equivalence::test_context_hashes_hypothesis"),
    "code_lengths": Case(
        st.one_of(histograms(), tied_histograms()), 700,
        lambda: ((np.array(freqs), max_bits) for freqs, max_bits in (
            ([1] * 286, 9), ([1] * 286, 15), ([0, 5, 0], 15), ([3, 1], 1), ([0] * 30, 15))),
        runner="algorithms.test_huffman::test_code_lengths_equal_reference"),
    "lsb_codes": Case(
        histograms().map(lambda case: (huffman.code_lengths(*case),)), 100,
        lambda: [(np.array([3, 3, 3, 3, 3, 2, 4, 4]),), (np.array([0, 2, 0, 2, 1]),),
                 (np.zeros(19, dtype=np.int32),)],
        runner="algorithms.test_huffman::test_lsb_codes_equal_per_symbol_reversal"),
    "decoder_table": Case(
        st.one_of(st.lists(st.integers(0, 9), min_size=1, max_size=40)
                  .map(lambda lengths: (lengths,)),
                  st.builds(dropped_one, histograms(), st.booleans())),
        400,
        lambda: [([3, 3, 3, 3, 3, 2, 4, 4],), ([8] * 256,), ([1, 1],), ([0, 1],)],
        project=_table, project_twin=_table_twin,
        runner=("algorithms.test_huffman_build"
                "::test_decode_table_or_its_error_equals_reference")),
    "inflate": Case(
        deflate_sources.map(lambda source: (deflated(*source),)), 25,
        lambda: ((deflated(data, strategy), cap)
                 for data in (CORPUS["xml_sample"][:3000], CORPUS["ascii_noise"])
                 for strategy in ("fixed", "dynamic", "stored")
                 for cap in (0, len(data) - 1, len(data))),
        damaged=lambda: damaged_headers(deflated(
            b"hello hello world, " * 8 + bytes(range(30)), "dynamic")),
        runner="algorithms.test_kernel_equivalence::test_inflate_equals_reference_hypothesis"),
    "ac_coder": Case(
        st.builds(_batches, st.binary(max_size=3000),
                  st.builds(ACConfig, order=st.integers(0, 4),
                            chunk_bytes=st.sampled_from([256, 1024]), table_bits=st.just(12))),
        30,
        lambda: (_batches(ac_payload(name, size), ACConfig(order=2, chunk_bytes=1024,
                                                          table_bits=12))
                 for name in ("silesia/xml", "zeros", "random") for size in (1, 3000)),
        project=_decodes(RangeDecoder), project_twin=_decodes(ReferenceDecoder)),
    "ac_decode": Case(
        st.builds(lambda data, config: (ac_compress(data, config),),
                  st.binary(max_size=2000), ac_configs),
        30,
        lambda: ((ac_compress(ac_payload(name, 600), ACConfig(
            order=order, chunk_bytes=256, table_bits=10)),)
            for name in ("silesia/xml", "zeros", "random", "obs_error")
            for order in (0, 2, 4)),
        damaged=lambda: ac_damaged(ACConfig(order=1, chunk_bytes=256, table_bits=8),
                                   ac_payload("obs_error", 300), step=3),
        lenient=without_crc),
    "context_model": Case(
        st.builds(lambda order, table_bits, chunk_log2, max_total_log2: (ACConfig(
            order=order, chunk_bytes=1 << chunk_log2, table_bits=table_bits,
            max_total=1 << max_total_log2),),
            st.integers(0, 4), st.integers(8, 12), st.integers(8, 11), st.integers(10, 16)),
        20,
        lambda: [(ACConfig(order=2, chunk_bytes=2048, table_bits=10, max_total=1 << 10),),
                 (ACConfig(order=0, chunk_bytes=256, table_bits=8, max_total=1 << 10),),
                 (ACConfig(order=4, chunk_bytes=1024, table_bits=12),)],
        project=_model_trace),
    "xxh32": Case(
        xxh32_args(), 300,
        lambda: [(bytes(range(256)) * 3, 7), (b"", 0), (b"\xff" * 48, 2**32 - 1)],
        runner="util.test_xxhash32::test_packed_lanes_equal_scalar_loop"),
}


# -- the tests -----------------------------------------------------------


def test_every_row_has_a_case_and_every_case_a_row():
    assert sorted(CASES) == sorted(REGISTRY)


@pytest.mark.parametrize("name", sorted(n for n, case in CASES.items() if not case.runner))
def test_hypothesis_inputs_agree(name):
    given_agree(name)()


@pytest.mark.parametrize("name", sorted(n for n, case in CASES.items() if case.runner))
def test_each_runner_is_its_rows_hypothesis_test(name):
    module, test = CASES[name].runner.split("::")
    assert getattr(importlib.import_module(f"tests.{module}"), test).twin_row == name


@pytest.mark.parametrize("name", sorted(CASES))
def test_directed_inputs_agree(name):
    assert [agree(name, *args) for args in CASES[name].corpus()]


@pytest.mark.parametrize("name", sorted(n for n, case in CASES.items() if case.damaged))
def test_damaged_inputs_fail_alike(name):
    """The same bytes or the same typed error, and the damage is seen."""
    outcomes = [agree(name, *args, damaged=True) for args in CASES[name].damaged()]
    assert any(isinstance(outcome, type) for outcome in outcomes)


def test_a_diverging_twin_is_caught(monkeypatch):
    monkeypatch.setitem(REGISTRY, "xxh32", Twin("xxh32", xxh32, lambda data, seed=0: 0))
    with pytest.raises(AssertionError):
        agree("xxh32", b"abc", 0)


# -- wall cases ------------------------------------------------------------


def test_wall_cases_name_rows_and_bands():
    for headline, case in regress.WALL_CASES.items():
        assert headline in regress.WALL_BANDS, headline
        assert case.row in REGISTRY, headline
        assert case.against is None or case.against in REGISTRY, headline


def test_every_speedup_band_has_one_producer():
    """A ``wall_*_speedup_*`` band is produced by one wall case or by
    the DEFLATE suite, never by both and never by neither."""
    suite = ["wall_vec_speedup_lit_geomean"] + [
        f"wall_vec_speedup_{regress._wall_key(name)}"
        for name in regress._WALL_LIT_SUITE + regress._WALL_PARITY_SUITE]
    producers = Counter([*regress.WALL_CASES, *suite])
    bands = [band for band in regress.WALL_BANDS if re.fullmatch(r"wall_.*_speedup_.*", band)]
    assert {band: producers[band] for band in bands} == dict.fromkeys(bands, 1)
    assert set(producers) <= set(bands)
