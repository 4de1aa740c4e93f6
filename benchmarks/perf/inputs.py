"""Seeded input generation: every workload input is a pure function of ``--seed``.

The corpora come from :mod:`repro.datasets` (deterministic, seed-free
generators); the seed picks *which windows* of them a workload sees, the
order of its ops, and its Poisson arrival schedules.  The program under
test only ever receives what is generated here.

:class:`Inputs` also keeps a running SHA-256 over everything it hands
out, so a result file can prove two runs measured the same bytes.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Any, Sequence

import numpy as np

from repro.datasets import get_dataset

__all__ = ["Inputs"]


class Inputs:
    """Factory for one workload's seeded inputs, with a content digest."""

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._sha = hashlib.sha256(f"seed={self.seed}".encode())
        self._corpora: dict[tuple[str, int], Any] = {}

    # -- randomness --------------------------------------------------------

    def rng(self, tag: str) -> np.random.Generator:
        """An independent generator per (seed, tag): adding a draw to one
        input never shifts another's."""
        return np.random.default_rng([self.seed, zlib.crc32(tag.encode())])

    # -- corpora -----------------------------------------------------------

    def corpus(self, key: str, nbytes: int) -> Any:
        """The dataset's synthetic corpus (bytes, or float32 ndarray)."""
        cached = self._corpora.get((key, nbytes))
        if cached is None:
            cached = get_dataset(key).generate(nbytes)
            if not isinstance(cached, np.ndarray):
                cached = bytes(cached)
            self._corpora[(key, nbytes)] = cached
        return cached

    def windows(self, tag: str, key: str, corpus_bytes: int, count: int,
                size: int) -> list[bytes]:
        """``count`` seeded ``size``-byte windows of a byte corpus."""
        corpus = self.corpus(key, corpus_bytes)
        offsets = self.rng(tag).integers(0, len(corpus) - size + 1, count)
        out = [corpus[int(o):int(o) + size] for o in offsets]
        for window in out:
            self._sha.update(window)
        return out

    def float_windows(self, tag: str, key: str, corpus_bytes: int, count: int,
                      n_floats: int) -> list[np.ndarray]:
        """``count`` seeded windows of a float32 (lossy) corpus."""
        corpus = self.corpus(key, corpus_bytes)
        offsets = self.rng(tag).integers(0, corpus.size - n_floats + 1, count)
        out = [np.ascontiguousarray(corpus[int(o):int(o) + n_floats])
               for o in offsets]
        for window in out:
            self._sha.update(window.tobytes())
        return out

    # -- op order and schedules --------------------------------------------

    def order(self, tag: str, n: int) -> list[int]:
        """A seeded permutation of ``range(n)`` (op order)."""
        perm = [int(i) for i in self.rng(tag).permutation(n)]
        self.note(tag, perm)
        return perm

    def choices(self, tag: str, n_options: int, count: int) -> list[int]:
        """``count`` seeded picks from ``range(n_options)``."""
        picks = [int(i) for i in self.rng(tag).integers(0, n_options, count)]
        self.note(tag, picks)
        return picks

    def ragged_cuts(self, tag: str, total: int, pieces: int) -> list[int]:
        """Seeded split points cutting ``total`` bytes into ragged feeds."""
        cuts = sorted(
            int(c) for c in self.rng(tag).integers(1, total, pieces - 1)
        )
        self.note(tag, cuts)
        return [0, *cuts, total]

    def note(self, tag: str, values: Sequence) -> None:
        """Fold a derived input (order, schedule) into the digest."""
        self._sha.update(tag.encode())
        self._sha.update(np.asarray(values, dtype=np.float64).tobytes())

    def sha256(self) -> str:
        return self._sha.hexdigest()
