"""Scalar twin of the LZ77 matcher (:func:`repro.algorithms.lz77.tokenize`).

Per-position hash-chain inserts and a head-table walk, exactly as zlib
structures it; match extension compares 16-byte slices, then single
bytes.  Both production kernels (bucket-slice and small-input walks)
must return this matcher's two token lists element for element.
"""

from __future__ import annotations

from repro.algorithms.lz77 import _HASH_BITS, MatcherConfig, TokenStream, _hash_all

__all__ = ["tokenize"]

_HASH_SIZE = 1 << _HASH_BITS


def _match_length(data: bytes, cand: int, pos: int, limit: int) -> int:
    """Longest l <= limit with data[cand:cand+l] == data[pos:pos+l]."""
    l = 0
    # 16-byte strides first.
    while l + 16 <= limit and data[cand + l : cand + l + 16] == data[pos + l : pos + l + 16]:
        l += 16
    while l < limit and data[cand + l] == data[pos + l]:
        l += 1
    return l


def tokenize(data: bytes, config: MatcherConfig | None = None) -> TokenStream:
    """Scalar twin of ``lz77.tokenize``: the same token stream."""
    cfg = config or MatcherConfig()
    n = len(data)
    lengths: list[int] = []
    values: list[int] = []
    if n == 0:
        return TokenStream(lengths, values, 0)

    hashes = _hash_all(data)
    head = [-1] * _HASH_SIZE  # most recent position per hash bucket
    prev = [0] * n  # previous position in this bucket's chain

    min_match = cfg.min_match
    max_match = cfg.max_match
    window = cfg.window_size
    max_chain = cfg.max_chain
    good = cfg.good_match
    lazy = cfg.lazy
    n_hash = hashes.shape[0]
    hashes_l = hashes.tolist()  # plain ints: ~3x faster element access

    def longest_match(pos: int) -> tuple[int, int]:
        """Best (length, distance) at ``pos``; (0, 0) if none."""
        best_len = min_match - 1
        best_dist = 0
        limit = min(max_match, n - pos)
        if limit < min_match:
            return 0, 0
        chain = max_chain
        cand = head[hashes_l[pos]]
        low = pos - window
        first_pos = pos
        while cand >= 0 and cand >= low and chain > 0:
            # Quick reject: a longer match must extend past the current best.
            if data[cand + best_len] == data[first_pos + best_len]:
                l = _match_length(data, cand, pos, limit)
                if l > best_len:
                    best_len = l
                    best_dist = pos - cand
                    if l >= limit:
                        break
                    if l >= good:
                        chain >>= 2
            cand = prev[cand]
            chain -= 1
        if best_dist == 0:
            return 0, 0
        return best_len, best_dist

    def insert(pos: int) -> None:
        h = hashes_l[pos]
        prev[pos] = head[h]
        head[h] = pos

    i = 0
    pending: tuple[int, int] | None = None  # deferred (length, dist) at i-1
    while i < n:
        if i < n_hash:
            cur_len, cur_dist = longest_match(i)
            insert(i)
        else:
            cur_len, cur_dist = 0, 0

        if pending is not None:
            pend_len, pend_dist = pending
            if cur_len > pend_len:
                # The deferred position loses; emit its byte as a literal
                # and defer the (strictly longer) current match instead.
                lengths.append(0)
                values.append(data[i - 1])
                pending = (cur_len, cur_dist)
                i += 1
                continue
            # Deferred match wins: emit it; it covers i-1 .. i-2+pend_len.
            # Position i was already inserted above; catch up from i+1.
            lengths.append(pend_len)
            values.append(pend_dist)
            end = i - 1 + pend_len
            j = i + 1
            stop = min(end, n_hash)
            while j < stop:
                insert(j)
                j += 1
            i = end
            pending = None
            continue

        if cur_len >= min_match:
            if lazy and cur_len < max_match and i + 1 < n:
                pending = (cur_len, cur_dist)
                i += 1
                continue
            lengths.append(cur_len)
            values.append(cur_dist)
            end = i + cur_len
            stop = min(end, n_hash)
            i += 1
            while i < stop:
                insert(i)
                i += 1
            i = end
        else:
            lengths.append(0)
            values.append(data[i])
            i += 1

    if pending is not None:
        # Stream ended while deferring: the pending match still applies.
        lengths.append(pending[0])
        values.append(pending[1])
    return TokenStream(lengths, values, n)
