"""Encoder output pinned by digest at the sizes ``benchmarks/perf`` runs.

The golden vectors next to this file are <= 6 KB, so a matcher change
that only alters tokens once chains get deep, the window binds or a
block spans several Huffman blocks passes them.  These pins are the
``codec_compress`` / ``stream_paths`` operating points: DEFLATE of a
64 KiB xml and a 32 KiB mozilla window, one 8 KiB ``net_telemetry``
chunk, zlib of 48 KiB of ``obs_error`` floats, SZ3 of 40 Ki
``exaalt-dataset1`` floats at the paper's 1e-4 bound.

The digests were computed at the commit *before* the bucket-slice LZ77
walk landed (ISSUE 18) and are hard-coded: after an intentional format
change, recompute them; for a speed-up, "no encoder emits a different
byte" fails here.  Input digests are pinned too, so a dataset-generator
change reads as that and not as an encoder change.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.algorithms.deflate import deflate_compress
from repro.algorithms.sz3 import SZ3Config, sz3_compress
from repro.algorithms.zlib_format import zlib_compress
from repro.datasets import get_dataset

KIB = 1024


def _head(key: str, nbytes: int) -> bytes:
    return bytes(get_dataset(key).generate(nbytes))


def _exaalt_window() -> np.ndarray:
    field = get_dataset("exaalt-dataset1").generate(256 * KIB)
    return np.ascontiguousarray(field[: 40 * KIB])


# name -> (make input, encode, input sha256, output bytes, output sha256)
PINS = {
    "deflate-xml-64k": (
        lambda: _head("silesia/xml", 64 * KIB), deflate_compress,
        "8e734815c73f6a82423bded0b73fcc8e703990023da2b95d3fe11576f08f5f87",
        9619,
        "15acb0239a6cf78c0ad4df3cd1f8b267e1dba64e3009442526bf1904b9217efe",
    ),
    "deflate-mozilla-32k": (
        lambda: _head("silesia/mozilla", 32 * KIB), deflate_compress,
        "293367df3b455b4d5a48a660512a85661e9246eaaab4acd69a4658e345c89bf5",
        13695,
        "ade39b8d60e428553073340b000765f9f318aa404530a056e6cb016d3abbc131",
    ),
    "deflate-telemetry-8k-chunk": (
        lambda: _head("net_telemetry", 48 * KIB)[: 8 * KIB], deflate_compress,
        "c31be264d3044877635c5531abbdd97117996e49fa8fdbd39f787dde4ac59228",
        584,
        "b37fcbdc9364c120084eff8890d11d087e3ff722e2ec1b63c465549932ac7518",
    ),
    "zlib-obs-error-48k": (
        lambda: _head("obs_error", 48 * KIB), zlib_compress,
        "a2ed655d348b6ddab672de6ef3510347a8876da4239df55b7dc21d611e881126",
        35535,
        "c81b856216052055d198feddabd3b09566ba3de39c746007cbea275a5f5631c8",
    ),
    "sz3-exaalt-40ki-floats": (
        _exaalt_window,
        lambda field: sz3_compress(field, SZ3Config(error_bound=1e-4)),
        "62334684fcbe4f1e71752a6a7e1ff59168f945fdd2c3a583b86c1819da423500",
        56331,
        "c6bb15d740cf6cdd0adb2996b12bf38917d7014bfc0358fe097f46540b73d95f",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_encoder_output_digest_is_pinned(name):
    make_input, encode, input_sha, out_len, out_sha = PINS[name]
    payload = make_input()
    raw = payload.tobytes() if isinstance(payload, np.ndarray) else payload
    assert hashlib.sha256(raw).hexdigest() == input_sha, "input corpus changed"
    blob = encode(payload)
    assert (len(blob), hashlib.sha256(blob).hexdigest()) == (out_len, out_sha)
