"""Golden-vector corpus: frozen compressed artifacts must stay decodable
and encoder output must stay byte-stable.

Two distinct guarantees, both per (case, codec):

* **backward compatibility** — today's decoder reads yesterday's
  artifact back to the exact input (``decompress(artifact) == input``);
* **format stability** — today's encoder reproduces the artifact
  byte-for-byte (``compress(input) == artifact``), so *any* wire-format
  drift fails loudly instead of silently invalidating stored streams.

After an intentional format change run
``PYTHONPATH=src python tests/vectors/regenerate.py --format-change``
and commit the diff (see README.md here).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.ac import ac_compress, ac_decompress
from repro.algorithms.deflate import deflate_compress, deflate_decompress
from repro.algorithms.gzip_format import gzip_compress, gzip_decompress
from repro.algorithms.lz4 import (
    lz4_block_compress,
    lz4_block_decompress,
    lz4_compress,
    lz4_decompress,
)
from repro.algorithms.reference import twins
from repro.algorithms.sz3 import SZ3Config, sz3_compress, sz3_decompress
from repro.algorithms.zlib_format import zlib_compress, zlib_decompress
from repro.algorithms.zstdlite import zstdlite_compress, zstdlite_decompress
from tests.vectors import regenerate

VECTOR_DIR = Path(__file__).resolve().parent
MANIFEST = json.loads((VECTOR_DIR / "manifest.json").read_text())

CODECS = {
    "deflate": (deflate_compress, deflate_decompress),
    "zlib": (zlib_compress, zlib_decompress),
    "gzip": (gzip_compress, gzip_decompress),
    "lz4b": (lz4_block_compress, lz4_block_decompress),
    "lz4f": (lz4_compress, lz4_decompress),
    "zstdlite": (zstdlite_compress, zstdlite_decompress),
    "ac": (ac_compress, ac_decompress),
}

BYTE_CASES = sorted(
    name for name, entry in MANIFEST["cases"].items() if "dtype" not in entry
)


def _read(case: str, suffix: str) -> bytes:
    return (VECTOR_DIR / f"{case}{suffix}").read_bytes()


def test_manifest_lists_every_artifact_on_disk():
    on_disk = {p.name for p in VECTOR_DIR.glob("*.bin")}
    listed = {
        f"{case}.{codec}.bin"
        for case, entry in MANIFEST["cases"].items()
        for codec in entry["artifacts"]
    }
    assert on_disk == listed


@pytest.mark.parametrize("case", BYTE_CASES)
def test_input_checksums(case):
    entry = MANIFEST["cases"][case]
    payload = _read(case, ".in")
    assert len(payload) == entry["input_bytes"]
    assert hashlib.sha256(payload).hexdigest() == entry["input_sha256"]


@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize("case", BYTE_CASES)
def test_artifact_checksums(case, codec):
    meta = MANIFEST["cases"][case]["artifacts"][codec]
    blob = _read(case, f".{codec}.bin")
    assert len(blob) == meta["bytes"]
    assert hashlib.sha256(blob).hexdigest() == meta["sha256"]


@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize("case", BYTE_CASES)
def test_decoder_reads_frozen_artifact(case, codec):
    _, decompress = CODECS[codec]
    assert decompress(_read(case, f".{codec}.bin")) == _read(case, ".in")


@pytest.mark.parametrize("codec", sorted(CODECS))
@pytest.mark.parametrize("case", BYTE_CASES)
def test_encoder_is_byte_stable(case, codec):
    compress, _ = CODECS[codec]
    assert compress(_read(case, ".in")) == _read(case, f".{codec}.bin")


class TestSZ3Vector:
    @property
    def field(self) -> np.ndarray:
        return np.frombuffer(_read("field.f32", ".in"), dtype=np.float32)

    def test_decoder_reads_frozen_artifact(self):
        restored = sz3_decompress(_read("field.sz3", ".bin"))
        bound = MANIFEST["sz3_error_bound"]
        err = np.abs(restored.astype(np.float64)
                     - self.field.astype(np.float64))
        assert err.max() <= bound * (1 + 1e-6)

    def test_encoder_is_byte_stable(self):
        blob = sz3_compress(
            self.field, SZ3Config(error_bound=MANIFEST["sz3_error_bound"])
        )
        assert blob == _read("field.sz3", ".bin")

    def test_artifact_checksum(self):
        meta = MANIFEST["cases"]["field"]["artifacts"]["sz3"]
        blob = _read("field.sz3", ".bin")
        assert hashlib.sha256(blob).hexdigest() == meta["sha256"]

    # -- SZ3 with the adaptive-context lossless stage ------------------

    def test_ac_backend_decoder_reads_frozen_artifact(self):
        restored = sz3_decompress(_read("field.ac-sz3", ".bin"))
        bound = MANIFEST["sz3_error_bound"]
        err = np.abs(restored.astype(np.float64)
                     - self.field.astype(np.float64))
        assert err.max() <= bound * (1 + 1e-6)

    def test_ac_backend_encoder_is_byte_stable(self):
        blob = sz3_compress(
            self.field,
            SZ3Config(error_bound=MANIFEST["sz3_error_bound"], backend="ac"),
        )
        assert blob == _read("field.ac-sz3", ".bin")

    def test_ac_backend_artifact_checksum(self):
        meta = MANIFEST["cases"]["field"]["artifacts"]["ac-sz3"]
        blob = _read("field.ac-sz3", ".bin")
        assert hashlib.sha256(blob).hexdigest() == meta["sha256"]


def test_twin_pipeline_matches_golden():
    """Every golden input and digest pin, encoded with every registry
    site bound to its reference twin, reproduces the pinned bytes."""
    with twins():
        files, manifest = regenerate.build()
    assert manifest == MANIFEST
    assert [name for name, blob in files.items()
            if blob != (VECTOR_DIR / name).read_bytes()] == []
