"""Encoder output pinned by digest at the sizes ``benchmarks/perf`` runs
and on the matcher corners.

The golden vectors next to this file are <= 6 KB, so a matcher change
that only alters tokens once chains get deep, the window binds or a
block spans several Huffman blocks passes them.  The five
benchmark-scale pins are the ``codec_compress`` / ``stream_paths``
operating points: DEFLATE of a 64 KiB xml and a 32 KiB mozilla window,
one 8 KiB ``net_telemetry`` chunk, zlib of 48 KiB of ``obs_error``
floats, SZ3 of 40 Ki ``exaalt-dataset1`` floats at the paper's 1e-4
bound.  The corner pins run DEFLATE with a shrinking ``good_match``
at ``max_chain`` just below, just above and at twice the input length.
The last pin freezes the chunk-parallel container ``pedal_ops`` round
trips: the 64 KiB xml window as RST1 with one DEFLATE frame per chunk
of eight, decoded back here by both RST1 readers.

The inputs and encoders are defined once, in ``regenerate.py``; the
digests live in ``manifest.json`` under ``digest_pins`` (the five
benchmark-scale ones were first computed at the commit *before* the
bucket-slice LZ77 walk landed).  For a speed-up, "no encoder emits a
different byte" fails here.  Input digests are pinned too, so a
dataset-generator change reads as that and not as an encoder change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.parallel import ParallelCompressor
from repro.dpu import make_device
from repro.sim import Environment
from repro.stream import stream_decompress
from tests.vectors.regenerate import DIGEST_PINS, pin_entry

PINS = json.loads((Path(__file__).resolve().parent / "manifest.json").read_text())[
    "digest_pins"]


@pytest.mark.parametrize("name", sorted(PINS))
def test_encoder_output_digest_is_pinned(name):
    got = pin_entry(name)
    assert got["input_sha256"] == PINS[name]["input_sha256"], "input corpus changed"
    assert got == PINS[name]


def test_parallel_container_pin_decodes_back():
    make_input, encode = DIGEST_PINS["parallel-deflate-xml-64k-8chunks"]
    data = make_input()
    blob = encode(data)
    assert stream_decompress(blob) == data
    env = Environment()
    parallel = ParallelCompressor(make_device(env, "bf2"))
    result = env.run(until=env.process(parallel.decompress(blob)))
    assert result.payload == data
