"""Every dataset corpus pinned by sha256 at every size the repository
generates it.

The golden inputs, the digest pins of ``tests/vectors`` and the
``benchmarks/perf`` workloads are all cut from these corpora, so a
generator that emits one different byte moves every input derived from
it.  The pins live in ``tests/vectors/manifest.json`` under
``dataset_pins`` (written by ``regenerate.py``, which refuses to move a
pinned digest without ``--format-change``, and whose round trip in
``tests/vectors/test_regenerate.py`` fails when a dataset has no pin);
float corpora are pinned as their ``tobytes()``.  The corpora are
generated afresh here, past the test session's corpus memo.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.datasets import get_dataset
from tests.conftest import generate_fresh
from tests.vectors.regenerate import corpus_pin_entry

PINS = json.loads(
    (Path(__file__).resolve().parents[1] / "vectors" / "manifest.json").read_text()
)["dataset_pins"]


@pytest.mark.parametrize("name", sorted(PINS))
def test_dataset_bytes_are_pinned(name):
    key, nbytes = name.rsplit("@", 1)
    data = generate_fresh(get_dataset(key), int(nbytes))
    assert corpus_pin_entry(data) == PINS[name]
