"""Shared fixtures for the test suite."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.mempool import ScratchPool, set_scratch_pool
from repro.datasets.registry import DEFAULT_ACTUAL_BYTES, Dataset
from repro.dpu import make_device
from repro.plan.codecs import clear_codec_cache
from repro.sim import Environment


#: ``Dataset.generate`` itself.  The tests of the generators call it
#: (``generate_fresh(dataset, nbytes)``); the rest of the session reads
#: corpora through the memo below.
generate_fresh = Dataset.generate


@pytest.fixture(scope="session", autouse=True)
def _corpus_memo():
    """Generate each dataset corpus once per session, keyed by (key,
    size).  Arrays come back as copies, so a test that writes into its
    corpus cannot change the next test's."""
    memo: dict = {}

    def generate(self, actual_bytes=None):
        key = (self.key, DEFAULT_ACTUAL_BYTES if actual_bytes is None
               else actual_bytes)
        data = memo.get(key)
        if data is None:
            data = memo[key] = generate_fresh(self, actual_bytes)
        return data.copy() if isinstance(data, np.ndarray) else data

    Dataset.generate = generate
    yield
    Dataset.generate = generate_fresh


@pytest.fixture(autouse=True)
def _fresh_codec_cache():
    """Isolate the real-codec memo cache between tests."""
    clear_codec_cache()
    yield
    clear_codec_cache()


@pytest.fixture
def codec_calls(monkeypatch) -> Counter:
    """Counts calls, by name, of the byte-codec kernels that
    ``repro.plan.codecs`` looks up at call time (only the memo's misses
    reach them)."""
    import repro.plan.codecs as codecs

    calls: Counter = Counter()

    def counting(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    for name in ("deflate_compress", "deflate_decompress", "lz4_compress",
                 "lz4_decompress", "ac_compress", "ac_decompress"):
        monkeypatch.setattr(codecs, name, counting(name, getattr(codecs, name)))
    return calls


@pytest.fixture
def scratch_pool():
    """A fresh process-global host scratch pool, for counting its traffic."""
    pool = ScratchPool()
    previous = set_scratch_pool(pool)
    yield pool
    set_scratch_pool(previous)


@pytest.fixture
def env() -> Environment:
    return Environment()


@pytest.fixture
def bf2(env):
    return make_device(env, "bf2")


@pytest.fixture
def bf3(env):
    return make_device(env, "bf3")


@pytest.fixture
def text_payload() -> bytes:
    """A compressible, structured byte payload."""
    return (b"the quick brown fox jumps over the lazy dog. " * 400)[:16384]


@pytest.fixture
def binary_payload() -> bytes:
    """A mixed-compressibility payload with runs and noise."""
    rng = np.random.default_rng(7)
    return (
        rng.bytes(4096)
        + b"\x00" * 4096
        + bytes(rng.integers(0, 16, size=4096, dtype=np.uint8))
    )


@pytest.fixture
def smooth_field() -> np.ndarray:
    """A smooth float32 field suitable for SZ3."""
    t = np.linspace(0.0, 30.0, 40000)
    return (np.sin(t) + 0.2 * np.sin(7.1 * t)).astype(np.float32)


def drive(environment: Environment, generator):
    """Run a simulation generator to completion; return its value."""
    proc = environment.process(generator)
    return environment.run(until=proc)


@pytest.fixture
def run_sim():
    return drive
