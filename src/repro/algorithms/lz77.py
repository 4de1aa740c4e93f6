"""LZ77 string matching — the shared substrate of DEFLATE and LZ4.

A hash-chain matcher in the spirit of zlib's ``deflate_slow``: a rolling
3-byte hash indexes chains of previous positions; candidates are walked
newest-first; an optional one-step *lazy* evaluation defers a match when
the next position matches longer.

Above 2 KiB the kernel is :func:`_tokenize_vec`.  The chains are a pure
function of the input, so one stable argsort by hash stores every bucket
contiguously and a position's chain is a slice of it; the quick-reject
is a reverse byte search over a column aligned with the sort, match
length the lowest set bit of an XOR of 8-byte words, and the literal
runs between positions with an in-window trigram-equal predecessor (any
match is >= 3 long) are emitted in bulk.  A small input cannot amortise
those ~20 array passes, so up to 2 KiB (where the two cross)
:func:`_tokenize_small` builds only the chains in numpy and walks them in
Python.  Candidate order, ``good_match`` shortening and lazy semantics
are those of the scalar zlib-shaped matcher kept as the twin of both in
:mod:`repro.algorithms.reference.lz77`, so the token streams are
identical (``tests/algorithms/test_lz77_layout``,
``test_kernel_equivalence``, the golden vectors); see DESIGN.md §5j.

Inputs may be ``bytes`` or ``memoryview``.  The output is a token stream
of literals and ``(length, distance)`` copies, encoded as two parallel
Python lists for cheap conversion to numpy arrays by the entropy coders.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.obs.profile import get_profiler

__all__ = ["MatcherConfig", "TokenStream", "tokenize", "reconstruct"]

_HASH_BITS = 15
_COLUMNS = 32  # quick-reject byte columns kept by the vectorized walk
_SMALL_INPUT_BYTES = 2048  # largest input for _tokenize_small: the crossover (DESIGN §5j)


@dataclass(frozen=True)
class MatcherConfig:
    """Tuning knobs for the hash-chain matcher.

    Defaults approximate zlib level 6.  ``window_size`` must not exceed
    32768 for DEFLATE compatibility; LZ4 uses 65536.
    """

    window_size: int = 32768
    min_match: int = 3
    max_match: int = 258
    max_chain: int = 48
    lazy: bool = True
    good_match: int = 32  # shorten the chain walk once a match this long is found

    def __post_init__(self) -> None:
        if self.min_match < 3:
            raise ValueError("min_match must be >= 3 (3-byte hash)")
        if self.max_match < self.min_match:
            raise ValueError("max_match must be >= min_match")
        if self.window_size < 1:
            raise ValueError("window_size must be positive")


class TokenStream:
    """Parallel-array token stream.

    ``lengths[i] == 0`` marks a literal whose byte value is ``values[i]``;
    otherwise the token is a copy of ``lengths[i]`` bytes from
    ``values[i]`` bytes back.
    """

    __slots__ = ("lengths", "values", "n_input")

    def __init__(self, lengths: list[int], values: list[int], n_input: int) -> None:
        self.lengths = lengths
        self.values = values
        self.n_input = n_input

    def __len__(self) -> int:
        return len(self.lengths)

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(lengths, values)`` as ``int32`` numpy arrays."""
        return (
            np.asarray(self.lengths, dtype=np.int32),
            np.asarray(self.values, dtype=np.int32),
        )

    def n_literals(self) -> int:
        return sum(1 for l in self.lengths if l == 0)

    def n_matches(self) -> int:
        return len(self.lengths) - self.n_literals()


def _trigram_hashes(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(trigram, its multiplicative hash)``, uint32, for every i with i+2 < len."""
    wide = buf.astype(np.uint32)
    tri = (wide[:-2] << np.uint32(16)) | (wide[1:-1] << np.uint32(8)) | wide[2:]
    return tri, (tri * np.uint32(2654435761)) >> np.uint32(32 - _HASH_BITS)


def _hash_buckets(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(trigrams, order, same)``: positions stably sorted by hash as uint16
    (numpy's stable argsort is radix sort only for <= 16-bit keys), so a
    bucket is a run of ``order``, oldest first; ``same[k]``: k, k+1 share one."""
    tri, hashes = _trigram_hashes(buf)
    order = hashes.astype(np.uint16).argsort(kind="stable")
    in_order = hashes[order]
    return tri, order, in_order[1:] == in_order[:-1]


def _hash_all(data: bytes) -> np.ndarray:
    """3-byte multiplicative hash for every position with i+2 < len."""
    return _trigram_hashes(np.frombuffer(data, dtype=np.uint8))[1].astype(np.int64)


def tokenize(data: bytes, config: MatcherConfig | None = None) -> TokenStream:
    """Factor ``data`` into an LZ77 token stream."""
    with get_profiler().kernel("lz77.match_loop"):
        if len(data) <= _SMALL_INPUT_BYTES:
            return _tokenize_small(data, config)
        return _tokenize_vec(data, config)


def _tokenize_small(data: bytes, config: MatcherConfig | None) -> TokenStream:
    """Small-input tokenizer; token-identical to the scalar matcher.  The
    chains as ``prev`` (each position's newest same-hash predecessor),
    walked as the twin walks them: no word table or quick-reject columns."""
    cfg = config or MatcherConfig()
    data = bytes(data)  # a memoryview indexes and slices ~10 % slower
    n = len(data)
    window, min_match, max_match = cfg.window_size, cfg.min_match, cfg.max_match
    max_chain, good = cfg.max_chain, cfg.good_match

    order, same = _hash_buckets(np.frombuffer(data, dtype=np.uint8))[1:]
    prev_np = np.full(len(order), -1, dtype=np.intp)
    prev_np[order[1:][same]] = order[:-1][same]
    # Only a position with a same-hash predecessor in the window can match.
    low_np = np.maximum(np.arange(-window, len(order) - window), 0)
    prev = prev_np.tolist()

    def longest_match(i: int) -> tuple[int, int]:
        """Best (length, distance) at ``i``; (0, 0) if none.  Conditional
        expressions, not min()/max(): those two calls cost ~10 % here."""
        limit = n - i if n - i < max_match else max_match
        if limit < min_match:
            return 0, 0
        best = min_match - 1
        best_dist = 0
        target = data[i + best]
        low = i - window if i > window else 0
        chain = max_chain
        cand = prev[i]
        while cand >= low and chain > 0:
            # Reject by the byte at best, then by the prefix before it.
            if data[cand + best] == target and data[cand:cand + best] == data[i:i + best]:
                best += 1
                while best < limit and data[cand + best] == data[i + best]:
                    best += 1
                best_dist = i - cand
                if best >= limit:
                    break
                if best >= good:
                    chain >>= 2
                target = data[i + best]
            cand = prev[cand]
            chain -= 1
        return (best, best_dist) if best_dist else (0, 0)

    return _factor(data, (prev_np >= low_np).nonzero()[0].tolist(), cfg, longest_match)


def _factor(data: bytes, cands, cfg: MatcherConfig, longest_match) -> TokenStream:
    """The token loop of both kernels: zlib's one-step lazy evaluation
    over ``longest_match(i)`` -> (length, distance).  ``cands`` (a list or
    ``array``) holds, in increasing order, every position that can start
    a match; the literal runs between them go out in bulk."""
    n = len(data)
    min_match, max_match, lazy = cfg.min_match, cfg.max_match, cfg.lazy
    cands.append(n)  # sentinel: the literal run after the last one
    lengths: list[int] = []
    values: list[int] = []
    i = 0
    ci = 0  # cursor into cands (monotone)
    pend_len = pend_dist = 0  # match deferred at i-1; length 0: none
    while i < n:
        if not pend_len:
            ci = bisect_left(cands, i, ci)
            j = cands[ci]
            if j > i:
                values.extend(data[i:j])
                lengths.extend([0] * (j - i))
                i = j
                if i >= n:
                    break
        cur_len, cur_dist = longest_match(i)
        if pend_len:
            if cur_len > pend_len:
                lengths.append(0)
                values.append(data[i - 1])
                pend_len, pend_dist = cur_len, cur_dist
                i += 1
            else:
                lengths.append(pend_len)
                values.append(pend_dist)
                i += pend_len - 1
                pend_len = 0
        elif cur_len < min_match:
            lengths.append(0)
            values.append(data[i])
            i += 1
        elif lazy and cur_len < max_match and i + 1 < n:
            pend_len, pend_dist = cur_len, cur_dist
            i += 1
        else:
            lengths.append(cur_len)
            values.append(cur_dist)
            i += cur_len
    if pend_len:  # the stream ended while deferring
        lengths.append(pend_len)
        values.append(pend_dist)
    return TokenStream(lengths, values, n)


def _tokenize_vec(data: bytes, config: MatcherConfig | None) -> TokenStream:
    """Vectorized tokenizer; token-identical to the scalar matcher
    (``repro.algorithms.reference.lz77.tokenize``).

    The scalar matcher inserts every position into its bucket exactly
    once, in increasing order (match emission inserts every covered
    position) and *before* any later position examines the chain.  So
    the chain ``pos`` walks is the same-hash positions below it, newest
    first: ``order[lo:rank[pos]]`` read right to left, for ``order`` the
    stable argsort by hash and ``rank`` its inverse; bucket start, hop
    budget and window only move ``lo``.
    """
    cfg = config or MatcherConfig()
    n = len(data)
    buf = np.frombuffer(data, dtype=np.uint8)
    if n < 3:
        return TokenStream([0] * n, buf.tolist(), n)
    n_hash = n - 2
    window = cfg.window_size
    min_match = cfg.min_match
    max_match = cfg.max_match
    max_chain = max(cfg.max_chain, 0)  # hops; unclamped: good_match quarters it
    good = cfg.good_match

    tri, order_np, same = _hash_buckets(buf)
    slots = np.arange(n_hash, dtype=np.int32)
    rank_np = np.empty(n_hash, dtype=np.int32)
    rank_np[order_np] = slots
    # Leftmost slot of the walk that ends at slot k: its bucket's first
    # slot (run-boundary flags and a running maximum — O(n), no table the
    # size of the hash space) or k - max_chain (int32: a chain has < n hops).
    lo_np = np.zeros(n_hash, dtype=np.int32)
    np.multiply(~same, slots[1:], out=lo_np[1:])
    np.maximum.accumulate(lo_np, out=lo_np)
    np.maximum(lo_np, slots - min(max_chain, n), out=lo_np)
    # The 24-bit trigrams sort with a two-pass LSD radix (timsort is ~6x
    # slower on megabyte inputs): stable argsort by the low 16 bits, then
    # by the high byte.  Only a position with a trigram-equal predecessor
    # inside the window can start a match (hash chains alias ~every
    # position into some bucket; exact trigram repeats are rare on
    # low-redundancy data).
    t_lo = tri.astype(np.uint16).argsort(kind="stable")
    t_hi = (tri >> np.uint32(16)).astype(np.uint8)[t_lo]
    t_order = t_lo[t_hi.argsort(kind="stable")]
    newer, older = t_order[1:], t_order[:-1]
    has_cand = np.zeros(n_hash, dtype=np.bool_)
    has_cand[newer[(tri[newer] == tri[older]) & (newer - older <= window)]] = True

    # The loops read typed arrays and bytes (4-8 bytes an entry; a list
    # of ints is ~36).  ``words[p]`` is the little-endian 8-byte word at
    # ``p`` of a zero-padded copy (array('Q') is native-endian, hence the
    # ``astype``: a no-op on little-endian hosts), ``columns[off][s] ==
    # data[order[s] + off]``, gathered on first use.  Padding never
    # lengthens a match: ``limit <= n - pos`` caps it.
    order = array("i", order_np.astype(np.int32).tobytes())
    rank = array("i", rank_np.tobytes())
    chain_lo = array("i", lo_np.tobytes())
    cand_list = array("i", has_cand.nonzero()[0].astype(np.int32).tobytes())
    padded = np.concatenate((buf, np.zeros(_COLUMNS + 16, dtype=np.uint8)))
    le_words = np.ndarray((n + 8,), "<u8", padded, 0, (1,))  # overlapping, stride 1
    words = array("Q", le_words.astype(np.uint64, copy=False).tobytes())
    columns: list[bytes | None] = [None] * _COLUMNS

    def longest_match(pos: int) -> tuple[int, int]:
        """Best (length, distance) at ``pos``; (0, 0) if none."""
        limit = min(max_match, n - pos)
        if limit < min_match:
            return 0, 0
        best_len = min_match - 1
        best_dist = 0
        k = rank[pos]
        lo = chain_lo[k]
        spent = k - max_chain  # the slot at which the hop budget runs out
        if order[lo] < pos - window:
            lo = bisect_left(order, pos - window, lo, k)
        head = words[pos]
        while lo < k:
            # Quick reject: a longer match must extend past the current
            # best.  One reverse byte search finds the next candidate that
            # does; past the column width, a plain walk.
            target = data[pos + best_len]
            if best_len < _COLUMNS:
                column = columns[best_len]
                if column is None:
                    column = columns[best_len] = padded[best_len:].take(order_np).tobytes()
                k = column.rfind(target, lo, k)
            else:
                k -= 1
                while k >= lo and data[order[k] + best_len] != target:
                    k -= 1
            if k < lo:
                break
            cand = order[k]
            # The lowest set bit of an XOR names the first differing byte:
            # two table words, then the whole rest (long matches are runs).
            l = 0
            diff = words[cand] ^ head
            if not diff:
                l = 8
                diff = words[cand + 8] ^ words[pos + 8]
                if not diff:
                    l = 16
                    diff = int.from_bytes(data[cand + 16 : cand + limit], "little") \
                        ^ int.from_bytes(data[pos + 16 : pos + limit], "little")
            l = l + (((diff & -diff).bit_length() - 1) >> 3) if diff else limit
            if l > best_len:
                if l >= limit:
                    return limit, pos - cand
                best_len = l
                best_dist = pos - cand
                if l >= good:
                    # ``chain >>= 2`` then ``chain -= 1``, on slots: the
                    # budget left at this hop was k - spent + 1.
                    spent = k - ((k - spent + 1) >> 2) + 1
                    lo = max(lo, spent)
        return (best_len, best_dist) if best_dist else (0, 0)

    return _factor(data, cand_list, cfg, longest_match)


def reconstruct(tokens: TokenStream) -> bytes:
    """Inverse of :func:`tokenize` — expand a token stream back to bytes.

    The LZ77-level roundtrip oracle of the tests.
    """
    out = bytearray()
    for length, value in zip(tokens.lengths, tokens.values):
        if length == 0:
            out.append(value)
        else:
            if not 0 < value <= len(out):
                raise ValueError(f"copy distance {value} outside the output so far")
            start = len(out) - value
            for k in range(length):  # may overlap: copy byte-by-byte
                out.append(out[start + k])
    return bytes(out)
