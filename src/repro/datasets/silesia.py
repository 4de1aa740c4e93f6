"""Synthetic Silesia-corpus stand-ins: xml, mr, samba, mozilla.

Target lossless ratios (paper Table V(a), DEFLATE): xml 7.77,
samba 3.96, mr 2.71, mozilla 2.68.  The generators below are tuned so
our DEFLATE lands in the same band and, critically, in the same
*order*.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.generators import (
    markov_text,
    rng_for,
    sampling_cdf,
    smooth_field_2d,
    weighted_bytes,
    zipf_vocabulary,
)

__all__ = ["generate_xml", "generate_mr", "generate_samba", "generate_mozilla"]


def generate_xml(nbytes: int) -> bytes:
    """Markup text: nested elements, a small tag vocabulary, repetitive
    attribute structure — the most compressible dataset of the suite."""
    rng = rng_for("silesia/xml", nbytes)
    tags = [b"entry", b"title", b"author", b"year", b"journal", b"pages",
            b"volume", b"booktitle", b"url", b"ee", b"cite"]
    # Tuned: DEFLATE ~7.5 at 256 KiB (paper: 7.77).
    words, cdf = zipf_vocabulary(rng, 80, alpha=1.8)
    out = bytearray(b'<?xml version="1.0" encoding="ISO-8859-1"?>\n<dblp>\n')
    serial = 0
    while len(out) < nbytes:
        tag = tags[int(rng.integers(0, len(tags)))]
        serial += 1
        out += b'<' + tag + b' key="conf/rec/' + str(serial).encode() + b'" mdate="2002-01-03">'
        n_inner = int(rng.integers(1, 4))
        for _ in range(n_inner):
            inner = tags[int(rng.integers(0, len(tags)))]
            body = markov_text(rng, int(rng.integers(12, 60)), words, cdf)
            out += b'<' + inner + b'>' + body.strip() + b'</' + inner + b'>'
        out += b'</' + tag + b'>\n'
    out += b"</dblp>\n"
    return bytes(out[:nbytes])


def generate_mr(nbytes: int) -> bytes:
    """Magnetic-resonance volume: 12-bit little-endian samples, smooth
    anatomy-like blobs over a noisy background (DICOM payload style)."""
    rng = rng_for("silesia/mr", nbytes)
    n_samples = nbytes // 2
    side = max(int(np.sqrt(n_samples)), 8)
    rows = (n_samples + side - 1) // side
    # Tuned: DEFLATE ~2.8 at 256 KiB (paper: 2.71).  The air/background
    # outside the anatomy thresholds to exact zero, which is where most
    # of a real MR volume's redundancy lives.
    field = smooth_field_2d(rng, (rows, side), n_blobs=16, noise=0.008)
    field[field < 0.38] = 0.0
    samples = (field * 4095.0).astype(np.uint16).reshape(-1)[:n_samples]
    header = b"DICM" + bytes(124)  # token preamble
    body = samples.astype("<u2").tobytes()
    return (header + body)[:nbytes]


def generate_samba(nbytes: int) -> bytes:
    """Source-code tarball: C-like functions with a shared identifier
    vocabulary and heavy keyword repetition."""
    rng = rng_for("silesia/samba", nbytes)
    # Tuned: DEFLATE ~3.9 at 256 KiB (paper: 3.96); 8% of the archive is
    # an image-like section (the corpus file mixes code and graphics).
    idents, _ = zipf_vocabulary(rng, 500, alpha=1.15)
    keywords = [b"static", b"int", b"char", b"return", b"if", b"else",
                b"struct", b"void", b"const", b"uint32_t", b"NULL", b"for"]
    out = bytearray()
    code_budget = int(nbytes * 0.92)
    while len(out) < code_budget:
        fn = idents[int(rng.integers(0, len(idents)))]
        out += b"static int " + fn + b"(struct context *ctx, const char *name)\n{\n"
        for _ in range(int(rng.integers(3, 10))):
            kw = keywords[int(rng.integers(0, len(keywords)))]
            a = idents[int(rng.integers(0, len(idents)))]
            b = idents[int(rng.integers(0, len(idents)))]
            choice = int(rng.integers(0, 3))
            if choice == 0:
                out += b"\tif (" + a + b" == NULL) {\n\t\treturn -1;\n\t}\n"
            elif choice == 1:
                out += b"\t" + kw + b" " + a + b" = " + b + b"->" + a + b";\n"
            else:
                out += (
                    b"\t" + a + b" = talloc_strdup(ctx, " + b + b");\n"
                )
        out += b"\treturn 0;\n}\n\n"
    # Graphics section: byte histogram with an exponential skew
    # (image-like, partially compressible).
    gfx_cdf = sampling_cdf(np.exp(-np.arange(256) / 40.0))
    out += weighted_bytes(rng, max(nbytes - len(out), 0), gfx_cdf)
    return bytes(out[:nbytes])


def generate_mozilla(nbytes: int) -> bytes:
    """Executable image: machine-code-like sections with a skewed opcode
    histogram and short repeated instruction idioms, a string table, and
    a high-entropy resource section."""
    rng = rng_for("silesia/mozilla", nbytes)
    out = bytearray(b"\x7fELF" + bytes(60))

    # Tuned: DEFLATE ~2.65 at 256 KiB (paper: 2.68).
    code_budget = int(nbytes * 0.72)
    strtab_budget = int(nbytes * 0.24)

    # Code section: common idiom snippets interleaved with skewed bytes.
    idioms = [
        bytes.fromhex("5548 89e5 4883 ec20".replace(" ", "")),
        bytes.fromhex("4889 7df8 8b45 f8".replace(" ", "")),
        bytes.fromhex("c9c3 0f1f 4000".replace(" ", "")),
        bytes.fromhex("e800 0000 00".replace(" ", "")),
        bytes.fromhex("4c89 e7e8".replace(" ", "")),
    ]
    weights = np.ones(256)
    weights[[0x00, 0x48, 0x89, 0x8B, 0xE8, 0x0F, 0xFF, 0x24, 0x45]] = 120.0
    cdf = sampling_cdf(weights)
    code = bytearray()
    while len(code) < code_budget:
        code += idioms[int(rng.integers(0, len(idioms)))]
        code += weighted_bytes(rng, int(rng.integers(2, 5)), cdf)
    out += code[:code_budget]

    # String table: library symbol-ish names.
    idents, _ = zipf_vocabulary(rng, 300, alpha=1.2)
    prefixes = [b"_ZN7mozilla", b"NS_", b"JS_", b"nsI", b"PR_"]
    strtab = bytearray()
    while len(strtab) < strtab_budget:
        strtab += prefixes[int(rng.integers(0, len(prefixes)))]
        strtab += idents[int(rng.integers(0, len(idents)))]
        strtab += idents[int(rng.integers(0, len(idents)))]
        strtab += b"\x00"
    out += strtab[:strtab_budget]

    # Resource/data section: poorly compressible.
    out += rng.bytes(max(nbytes - len(out), 0))
    return bytes(out[:nbytes])
