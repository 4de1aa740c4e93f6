"""Reference twins and the one table that pairs them with production.

A twin is a slow, obvious implementation kept only so tests and the
wall gates (``repro.bench.regress``) can compare a production kernel
with it and time the two.  Production never imports this package.
:data:`REGISTRY` has one :class:`Twin` row per pair; a row's ``sites``
are the ``(module or class, attribute)`` names production resolves the
kernel through at call time, and :func:`twins` rebinds them for one
scope.  Rows without sites are compared directly.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.algorithms import huffman as _huffman
from repro.algorithms import lz4 as _lz4
from repro.algorithms import lz77 as _lz77
from repro.algorithms.ac.codec import ac_decompress, encode_batches
from repro.algorithms.ac.model import ContextModel
from repro.algorithms.deflate import compress as _deflate_compress
from repro.algorithms.deflate import deflate_decompress
from repro.algorithms.lz4 import block as _lz4_block
from repro.algorithms.lz4 import frame as _lz4_frame
from repro.algorithms.reference import ac, huffman, lz4, lz77, sz3, xxhash32
from repro.algorithms.sz3 import encoder as _sz3_encoder
from repro.algorithms.sz3 import predictor as _predictor
from repro.algorithms.sz3 import quantizer as _quantizer
from repro.util.bitio import BitWriter
from repro.util.xxhash32 import xxh32

__all__ = ["Twin", "REGISTRY", "twins"]


@dataclass(frozen=True)
class Twin:
    """A production kernel, its twin, and the sites production looks it up by."""

    name: str
    production: Callable[..., Any]
    twin: Callable[..., Any]
    sites: "tuple[tuple[Any, str], ...]" = ()


REGISTRY: "dict[str, Twin]" = {row.name: row for row in (
    Twin("tokenize", _lz77._tokenize_vec, lz77.tokenize, ((_lz77, "_tokenize_vec"),)),
    Twin("tokenize_small", _lz77._tokenize_small, lz77.tokenize,
         ((_lz77, "_tokenize_small"),)),
    # Frames call the block codec through ``frame``; ``block`` and the
    # package hold it under the same name.
    Twin("lz4_block_compress", _lz4_block.lz4_block_compress, lz4.lz4_block_compress,
         ((_lz4_block, "lz4_block_compress"), (_lz4_frame, "lz4_block_compress"),
          (_lz4, "lz4_block_compress"))),
    Twin("lz4_block_decompress", _lz4_block.lz4_block_decompress,
         lz4.lz4_block_decompress,
         ((_lz4_block, "lz4_block_decompress"), (_lz4_frame, "lz4_block_decompress"),
          (_lz4, "lz4_block_decompress"))),
    Twin("canonical_codes", _huffman.canonical_code_list, huffman.canonical_codes,
         ((_huffman, "canonical_code_list"),)),
    Twin("write_code_array", BitWriter.write_code_array, huffman.write_code_array,
         ((BitWriter, "write_code_array"),)),
    Twin("pack_tokens", _deflate_compress._pack_tokens, huffman.pack_tokens,
         ((_deflate_compress, "_pack_tokens"),)),
    Twin("lorenzo_residual", _predictor._lorenzo_residual, sz3.lorenzo_residual,
         ((_predictor, "_lorenzo_residual"),)),
    Twin("lorenzo_reconstruct", _predictor._lorenzo_reconstruct,
         sz3.lorenzo_reconstruct, ((_predictor, "_lorenzo_reconstruct"),)),
    Twin("quantize", _quantizer._quantize, sz3.quantize, ((_quantizer, "_quantize"),)),
    Twin("dequantize", _quantizer._dequantize, sz3.dequantize,
         ((_quantizer, "_dequantize"),)),
    Twin("decode_residuals", _sz3_encoder.decode_residuals, sz3.decode_residuals,
         ((_sz3_encoder, "decode_residuals"),)),
    Twin("context_hashes", ContextModel.context_hashes, ac.context_hashes,
         ((ContextModel, "context_hashes"),)),
    Twin("code_lengths", _huffman.code_lengths, huffman.code_lengths),
    Twin("lsb_codes", _huffman.lsb_codes, huffman.lsb_codes),
    Twin("decoder_table", _huffman.HuffmanDecoder, huffman.decoder_table),
    Twin("inflate", deflate_decompress, huffman.inflate),
    Twin("ac_coder", encode_batches, ac.reference_encode_batches),
    Twin("ac_decode", ac_decompress, ac.decode_stepwise),
    Twin("context_model", ContextModel, ac.DenseContextModel),
    Twin("xxh32", xxh32, xxhash32.xxh32_scalar),
)}


@contextmanager
def twins() -> Iterator[None]:
    """Run the scope with every registry site bound to its twin, and put
    back what each held on the way out, exception or not.

    Rebinding names instead of branching on a flag is what keeps
    production at one path per kernel: no production line tests for a
    twin, and nothing outside this scope can select one.
    """
    saved = [(owner, attr, vars(owner)[attr])
             for row in REGISTRY.values() for owner, attr in row.sites]
    try:
        for row in REGISTRY.values():
            for owner, attr in row.sites:
                setattr(owner, attr, row.twin)
        yield
    finally:
        for owner, attr, held in reversed(saved):
            setattr(owner, attr, held)
