"""Wall-clock microbenchmarks of the from-scratch codecs.

These measure the *Python implementation's* real speed (pytest-benchmark
statistics), which is orthogonal to the simulated DPU times: useful for
tracking regressions in the pure-algorithm layer.

Every benchmark is parametrized over the kernels, so one run emits a
``[vectorized]`` row (production) and a ``[scalar]`` row (the same call
inside ``repro.algorithms.reference.twins()``) per codec — the pairwise
diff is the vectorization win on that host.

``--repro-bytes`` sets the payload size (default 64 KiB), so
``pytest benchmarks --repro-bytes=4096`` is uniformly fast.
"""

from contextlib import nullcontext

import pytest

from repro.algorithms.deflate import deflate_compress, deflate_decompress
from repro.algorithms.lz4 import lz4_compress, lz4_decompress
from repro.algorithms.sz3 import SZ3Config, sz3_compress, sz3_decompress
from repro.algorithms.zlib_format import zlib_compress
from repro.algorithms.zstdlite import zstdlite_compress
from repro.algorithms.reference import twins
from repro.datasets import get_dataset

DEFAULT_PAYLOAD_BYTES = 64 * 1024


@pytest.fixture(params=["vectorized", "scalar"])
def kernel(request):
    """Scope the call runs in: production kernels or their twins."""
    return twins if request.param == "scalar" else nullcontext


def _in_mode(scope, fn, *args):
    with scope():
        return fn(*args)


@pytest.fixture(scope="module")
def payload_bytes(actual_bytes):
    return DEFAULT_PAYLOAD_BYTES if actual_bytes is None else actual_bytes


@pytest.fixture(scope="module")
def text(payload_bytes):
    return get_dataset("silesia/samba").generate(payload_bytes)


@pytest.fixture(scope="module")
def floats(payload_bytes):
    return get_dataset("exaalt-dataset1").generate(payload_bytes)


class TestLosslessCompress:
    def test_deflate_compress(self, benchmark, text, kernel):
        stream = benchmark(_in_mode, kernel, deflate_compress, text)
        assert len(stream) < len(text)

    def test_zlib_compress(self, benchmark, text, kernel):
        stream = benchmark(_in_mode, kernel, zlib_compress, text)
        assert len(stream) < len(text)

    def test_lz4_compress(self, benchmark, text, kernel):
        stream = benchmark(_in_mode, kernel, lz4_compress, text)
        assert len(stream) < len(text)

    def test_zstdlite_compress(self, benchmark, text, kernel):
        stream = benchmark(_in_mode, kernel, zstdlite_compress, text)
        assert len(stream) < len(text)


class TestLosslessDecompress:
    def test_deflate_decompress(self, benchmark, text, kernel):
        stream = deflate_compress(text)
        out = benchmark(_in_mode, kernel, deflate_decompress, stream)
        assert out == text

    def test_lz4_decompress(self, benchmark, text, kernel):
        stream = lz4_compress(text)
        out = benchmark(_in_mode, kernel, lz4_decompress, stream)
        assert out == text


class TestLossy:
    def test_sz3_compress(self, benchmark, floats, kernel):
        stream = benchmark(
            _in_mode, kernel, sz3_compress, floats, SZ3Config(error_bound=1e-4)
        )
        assert len(stream) < floats.nbytes

    def test_sz3_decompress(self, benchmark, floats, kernel):
        stream = sz3_compress(floats, SZ3Config(error_bound=1e-4))
        out = benchmark(_in_mode, kernel, sz3_decompress, stream)
        assert out.shape == floats.shape
