"""Canonical Huffman coding.

Three pieces, shared by DEFLATE and the SZ3 encoder stage:

* :func:`code_length_list` — optimal *length-limited* code lengths from
  symbol frequencies.  An unlimited Huffman code built with two queues
  (Moffat & Katajainen 1995) is returned when its deepest code fits the
  limit; otherwise the package-merge algorithm (Larmore & Hirschberg
  1990), exactly optimal under a maximum-length constraint, which
  DEFLATE needs (15-bit limit for literal/length and distance codes,
  7-bit limit for the code-length alphabet).  Both break ties the same
  way, so where both apply they give the same lengths.
* :func:`canonical_code_list` / :func:`lsb_code_list` — RFC 1951
  canonical code assignment from lengths (shorter codes numerically
  first, ties broken by symbol order), as is or bit-reversed for the
  wire.
* :class:`HuffmanDecoder` — flat-table decoder: one table lookup per
  symbol against an LSB-first :class:`~repro.util.bitio.BitReader`.
  The hot decode loops (inflate's blocks and tree header, SZ3's
  residuals) index its ``lookup`` with the reader state in locals.

The alphabets are small (at most 288 symbols), so the code builders
and the narrow decode tables work on plain ``list``s of ints: at that
size a numpy call costs more than the loop it replaces.
:func:`code_lengths`, :func:`canonical_codes` and :func:`lsb_codes` are
the same builders for numpy callers (SZ3, the fixed DEFLATE trees),
arrays in and out.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, compress
from operator import add, itemgetter

import numpy as np

from repro.errors import CorruptStreamError
from repro.obs.profile import get_profiler
from repro.util.bitio import BIT_REVERSE_16, BitReader

__all__ = [
    "MAX_CODE_BITS",
    "code_lengths",
    "code_length_list",
    "canonical_codes",
    "canonical_code_list",
    "lsb_codes",
    "lsb_code_list",
    "HuffmanDecoder",
]

#: Longest code :func:`lsb_codes` and :class:`HuffmanDecoder` handle (the
#: width of the bit-reversal table); DEFLATE and SZ3 stop at 15.
MAX_CODE_BITS = 16


def code_lengths(freqs: np.ndarray, max_bits: int) -> np.ndarray:
    """:func:`code_length_list` for numpy callers: ``int32`` array out."""
    freqs = np.asarray(freqs, dtype=np.int64).ravel().tolist()
    return np.array(code_length_list(freqs, max_bits), dtype=np.int32)


def code_length_list(freqs: "list[int]", max_bits: int) -> "list[int]":
    """Optimal code lengths under a ``max_bits`` limit (package-merge).

    Parameters
    ----------
    freqs:
        Non-negative symbol frequencies; zero-frequency symbols get
        length 0 (i.e. no code).
    max_bits:
        Maximum permitted code length.

    Returns
    -------
    list of int
        Per-symbol code lengths.

    Raises
    ------
    ValueError
        If the used alphabet cannot be coded within ``max_bits``
        (i.e. more than ``2**max_bits`` used symbols).
    """
    with get_profiler().kernel("huffman.build"):
        return _code_lengths(freqs, max_bits)


def _code_lengths(freqs: "list[int]", max_bits: int) -> "list[int]":
    lengths = [0] * len(freqs)
    used = list(compress(range(len(freqs)), freqs))
    if len(used) <= 1:
        # A single symbol still needs one bit on the wire.
        for sym in used:
            lengths[sym] = 1
        return lengths
    if len(used) > (1 << max_bits):
        raise ValueError(
            f"{len(used)} symbols cannot be coded in {max_bits}-bit codes"
        )
    used.sort(key=freqs.__getitem__)  # stable: equal weights by symbol
    leaves = [freqs[sym] for sym in used]
    depths = _huffman_depths(leaves)
    if depths[0] > max_bits:
        depths = _package_merge(leaves, max_bits)
    for sym, bits in zip(used, depths):
        lengths[sym] = bits
    return lengths


def _huffman_depths(leaves: "list[int]") -> "list[int]":
    """Unlimited Huffman code lengths of ``leaves`` (at least two
    weights, ascending), lightest first: the two-queue build, in place
    (Moffat & Katajainen 1995).

    The leaves and the internal nodes made so far are two sorted queues;
    each step joins the two lightest fronts, a leaf before a node of
    equal weight.  That is package-merge's tie rule, so when the deepest
    leaf fits the limit these are the lengths :func:`_package_merge`
    gives (DESIGN.md §5j).
    """
    a = leaves[:]
    n = len(a)
    leaf = node = 0
    # Pass 1: a[t] becomes internal node t's weight; once node t has a
    # parent, a[t] holds the parent's index instead.
    for t in range(n - 1):
        if leaf < n and (node == t or a[leaf] <= a[node]):
            weight = a[leaf]
            leaf += 1
        else:
            weight = a[node]
            a[node] = t
            node += 1
        if leaf < n and (node == t or a[leaf] <= a[node]):
            weight += a[leaf]
            leaf += 1
        else:
            weight += a[node]
            a[node] = t
            node += 1
        a[t] = weight
    # Pass 2: internal node depths, the root (node n - 2) at 0, counted
    # per depth.
    a[n - 2] = 0
    per_depth = [1]
    for t in range(n - 3, -1, -1):
        depth = a[t] = a[a[t]] + 1
        if depth == len(per_depth):
            per_depth.append(1)
        else:
            per_depth[depth] += 1
    # Pass 3: depth d has 2 * (internal nodes at d - 1) nodes; those not
    # internal are leaves, and the lightest leaves are the deepest.
    per_depth.append(0)
    out: "list[int]" = []
    for depth in range(len(per_depth) - 1, 0, -1):
        out += [depth] * (2 * per_depth[depth - 1] - per_depth[depth])
    return out


def _package_merge(leaves: "list[int]", max_bits: int) -> "list[int]":
    """Optimal code lengths of ``leaves`` (ascending weights, at most
    ``2**max_bits`` of them) under a ``max_bits`` limit, lightest first.

    Count-only package-merge.  A level's list is the leaves merged with
    the packages paired up from the level below, by weight, a leaf
    before a package of equal weight.  Only the weights are kept: the
    leaves among the first k items of a level are always a prefix of
    the weight-sorted leaves, so "how many" identifies them.
    """
    n = len(leaves)
    levels = []  # per level: (its packages, leaves and packages merged)
    packages: "list[int]" = []
    merged = leaves
    for _ in range(max_bits - 1):
        levels.append((packages, merged))
        paired = list(map(add, merged[::2], merged[1::2]))
        if paired == packages:
            # Fixed point: every level above repeats this one.
            levels.extend([levels[-1]] * (max_bits - 1 - len(levels)))
            break
        packages = paired
        merged = sorted(leaves + packages)
    levels.append((packages, merged))

    # Walk back from the first 2n-2 items of the top level.  Each level
    # adds one bit to the leaves in its prefix; the prefix's packages
    # are the first (k - leaves) pairs of the level below.
    depth = [0] * (n + 1)  # depth[a]: levels whose prefix holds a leaves
    walked = 0
    k = 2 * n - 2
    for packages, merged in reversed(levels):
        if not k:
            break
        walked += 1
        cut = merged[k - 1]
        lighter = bisect_left(leaves, cut)
        ties = k - lighter - bisect_left(packages, cut)
        in_prefix = lighter + min(ties, bisect_right(leaves, cut) - lighter)
        depth[in_prefix] += 1
        k = 2 * (k - in_prefix)
    # A leaf's length is the number of levels whose prefix reached it.
    return [walked - shallower for shallower in accumulate(depth[:n])]


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """:func:`canonical_code_list` for numpy callers: ``uint32`` array out."""
    lengths = np.asarray(lengths, dtype=np.int64).ravel().tolist()
    return np.array(canonical_code_list(lengths), dtype=np.uint32)


def canonical_code_list(lengths: "list[int]") -> "list[int]":
    """Assign canonical (MSB-first) codes from code lengths, per RFC 1951.

    Symbols with length 0 receive code 0 (unused).  In (length, symbol)
    order the codes count up from 0, shifting left by the length step
    whenever the length grows.
    """
    codes = [0] * len(lengths)
    code = width = 0
    for sym in sorted(compress(range(len(lengths)), lengths),
                      key=lengths.__getitem__):
        bits = lengths[sym]
        if bits != width:
            _check_subscription(code, width)
            code <<= bits - width
            width = bits
        codes[sym] = code
        code += 1
    _check_subscription(code, width)
    return codes


def _check_subscription(code: int, width: int) -> None:
    """Raise unless the codes so far, ``code`` of them counted at
    ``width`` bits, fit in ``width`` bits.

    Over-subscribed trees are caller bugs (encoder) or stream corruption
    (decoder builds via HuffmanDecoder which re-checks).
    """
    if code > 1 << width:
        raise CorruptStreamError(f"over-subscribed Huffman tree at length {width}")


def lsb_codes(lengths: np.ndarray) -> np.ndarray:
    """:func:`lsb_code_list` for numpy callers: ``uint32`` array out."""
    lengths = np.asarray(lengths, dtype=np.int64).ravel().tolist()
    return np.array(lsb_code_list(lengths), dtype=np.uint32)


#: ``_REVERSE_8[b]`` is the byte ``b`` with its 8 bits reversed.
_REVERSE_8 = (BIT_REVERSE_16[:256] >> 8).tolist()


def lsb_code_list(lengths: "list[int]") -> "list[int]":
    """Canonical codes pre-reversed into LSB-first wire order.

    DEFLATE transmits Huffman codes most-significant-bit first inside an
    LSB-first byte stream, which is equivalent to writing the
    bit-reversed code LSB-first.  :func:`canonical_code_list`'s walk,
    with each code of up to 16 bits reversed as it is assigned, through
    two byte-reversal lookups.
    """
    codes = [0] * len(lengths)
    reverse = _REVERSE_8
    code = width = shift = 0
    for sym in sorted(compress(range(len(lengths)), lengths),
                      key=lengths.__getitem__):
        bits = lengths[sym]
        if bits != width:
            _check_subscription(code, width)
            if bits > MAX_CODE_BITS:
                canonical_code_list(lengths)  # over-subscription is reported first
                raise ValueError(f"code lengths above {MAX_CODE_BITS} bits are not supported")
            code <<= bits - width
            width = bits
            shift = MAX_CODE_BITS - bits
        # Masked: an over-subscribed code can pass 16 bits before the
        # check below reports it.
        codes[sym] = (reverse[code & 0xFF] << 8 | reverse[code >> 8 & 0xFF]) >> shift
        code += 1
    _check_subscription(code, width)
    return codes


#: Widest table :class:`HuffmanDecoder` builds from plain lists; wider
#: ones go through numpy.  At or below it the list build is the faster
#: one (DESIGN.md §5j): a tree-header table is a few hundred entries,
#: and a numpy call costs more than the loop it replaces.
_LIST_TABLE_BITS = 8

#: ``_GATHER[w](msb_first)`` reads a ``2**w``-entry table through the
#: ``w``-bit bit-reversal permutation, as one tuple.
_GATHER = [None] + [
    itemgetter(*(BIT_REVERSE_16[:1 << width] >> (MAX_CODE_BITS - width)).tolist())
    for width in range(1, _LIST_TABLE_BITS + 1)
]


def _tile(by_len: "list[int]", lens: "list[int]", size: int) -> "list[int]":
    """The used prefix of a ``size``-slot MSB-first table: the entry
    ``(len << 9) | symbol`` of each code in canonical order (``by_len``,
    lengths ``lens``), repeated over its ``size >> len`` slots.  The
    longest codes, usually the most, own one slot each."""
    longest = bisect_left(lens, lens[-1])
    out: "list[int]" = []
    for sym, bits in zip(by_len[:longest], lens):
        out += [bits << 9 | sym] * (size >> bits)
    tag = lens[-1] << 9
    out += [tag | sym for sym in by_len[longest:]]
    return out


def _fills(filled: int, size: int) -> bool:
    """Whether ``filled`` slots of ``size`` complete the code; raises if
    they are more than there are."""
    if filled > size:
        raise CorruptStreamError("over-subscribed Huffman tree")
    return filled == size


class HuffmanDecoder:
    """Flat-table canonical Huffman decoder for LSB-first streams.

    The table has ``2**max_bits`` entries; entry ``i`` packs
    ``(code_length << 9) | symbol`` for the unique code that is a prefix
    of the bit pattern ``i`` (read LSB-first), 0 where no code is.
    Symbols must therefore be < 512 — ample for every alphabet DEFLATE
    and SZ3 use.  ``lookup`` holds the entries as plain ``int`` items
    for decode loops (a tuple up to ``_LIST_TABLE_BITS``, a view of a
    ``uint16`` array above); ``table`` is a ``uint16`` array of them.
    """

    __slots__ = ("lookup", "max_bits", "n_symbols", "_complete")

    def __init__(self, lengths: "list[int] | np.ndarray") -> None:
        if not isinstance(lengths, list):
            lengths = np.asarray(lengths, dtype=np.int32).ravel().tolist()
        n = len(lengths)
        if n > 512:
            raise ValueError("HuffmanDecoder supports alphabets up to 512 symbols")
        self.n_symbols = n
        # Canonical codes in (length, symbol) order tile the MSB-first
        # code space from 0 upward, each code owning 2**(max_bits - len)
        # consecutive slots; the LSB-first table is that tiling read
        # through the bit-reversal permutation.
        by_len = sorted(compress(range(n), lengths), key=lengths.__getitem__)
        if not by_len:
            raise CorruptStreamError("empty Huffman tree")
        self.max_bits = max_bits = lengths[by_len[-1]]
        if max_bits > MAX_CODE_BITS:
            raise CorruptStreamError(
                f"Huffman code length {max_bits} exceeds {MAX_CODE_BITS} bits"
            )
        lens = list(map(lengths.__getitem__, by_len))
        size = 1 << max_bits
        if max_bits <= _LIST_TABLE_BITS:
            # Tiled before the check: at most 512 codes of 128 slots.
            msb_first = _tile(by_len, lens, size)
            self._complete = _fills(len(msb_first), size)
            msb_first += [0] * (size - len(msb_first))
            self.lookup = _GATHER[max_bits](msb_first)
        else:
            filled = sum(map(size.__rshift__, lens))
            self._complete = _fills(filled, size)
            lens = np.array(lens)
            msb_first = np.zeros(size, dtype=np.uint16)
            msb_first[:filled] = np.repeat((lens << 9) | by_len, size >> lens)
            self.lookup = memoryview(
                msb_first[BIT_REVERSE_16[:size] >> (MAX_CODE_BITS - max_bits)])

    @property
    def table(self) -> np.ndarray:
        """The decode table as a ``uint16`` array."""
        return np.array(self.lookup, dtype=np.uint16)

    @property
    def is_complete(self) -> bool:
        """True if the code exactly fills the code space (Kraft equality)."""
        return self._complete

    def decode(self, reader: BitReader) -> int:
        """Decode one symbol from ``reader``."""
        entry = self.lookup[reader.peek_bits(self.max_bits)]
        if entry == 0:
            raise CorruptStreamError("invalid Huffman code in stream")
        reader.skip_bits(entry >> 9)
        return entry & 0x1FF

