"""Shared building blocks for the synthetic dataset generators.

Everything is driven by a seeded :class:`numpy.random.Generator`, so a
given (dataset, size) pair is bit-reproducible across runs and
platforms.

Categorical draws take a CDF built once per distribution by
:func:`sampling_cdf`; a draw is then one ``searchsorted`` over
``rng.random(size)``, the step ``Generator.choice(n, size, p=p)`` takes
after building that same CDF, so it yields the same indices and leaves
the generator in the same state.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "rng_for",
    "markov_text",
    "sampling_cdf",
    "zipf_vocabulary",
    "smooth_field_2d",
    "weighted_bytes",
]


def rng_for(key: str, nbytes: int) -> np.random.Generator:
    """Deterministic RNG per (dataset key, size).

    ``hash()`` is process-salted for strings, so the seed is derived
    with a stable polynomial hash instead.
    """
    acc = 0
    for ch in key:
        acc = (acc * 131 + ord(ch)) % (2**31)
    return np.random.default_rng((acc << 20) ^ nbytes)


def sampling_cdf(weights: np.ndarray) -> np.ndarray:
    """The CDF of the categorical distribution ``weights / weights.sum()``,
    as ``Generator.choice`` builds it from ``p``."""
    probs = np.asarray(weights, dtype=np.float64)
    cdf = (probs / probs.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray, size: int) -> np.ndarray:
    """``size`` indices from ``cdf``: ``rng.choice(len(cdf), size, p=p)``
    for the ``p`` that :func:`sampling_cdf` was given."""
    return cdf.searchsorted(rng.random(size), side="right")


def zipf_vocabulary(rng: np.random.Generator, n_words: int, alpha: float = 1.3) -> tuple[list[bytes], np.ndarray]:
    """A vocabulary plus the :func:`sampling_cdf` of its Zipf-ish word
    probabilities."""
    letters = np.array(list(b"abcdefghijklmnopqrstuvwxyz_"), dtype=np.uint8)
    words = []
    for _ in range(n_words):
        length = int(rng.integers(3, 12))
        words.append(bytes(rng.choice(letters, size=length)))
    ranks = np.arange(1, n_words + 1, dtype=np.float64)
    return words, sampling_cdf(ranks**-alpha)


def markov_text(
    rng: np.random.Generator,
    nbytes: int,
    words: list[bytes],
    cdf: np.ndarray,
    separator: bytes = b" ",
    line_width: int = 72,
) -> bytes:
    """Concatenate words drawn from ``cdf`` into text with line breaks."""
    out = bytearray()
    col = 0
    n_words = len(words)
    # Vectorised draw, then assemble.
    draws = _draw(rng, cdf, max(nbytes // 4, 16))
    for idx in draws:
        word = words[int(idx)]
        out += word
        col += len(word) + 1
        if col >= line_width:
            out += b"\n"
            col = 0
        else:
            out += separator
        if len(out) >= nbytes:
            break
    while len(out) < nbytes:
        out += words[int(rng.integers(0, n_words))] + separator
    return bytes(out[:nbytes])


def smooth_field_2d(
    rng: np.random.Generator, shape: tuple[int, int], n_blobs: int, noise: float
) -> np.ndarray:
    """Sum of random Gaussian blobs + white noise, in [0, 1]."""
    h, w = shape
    y, x = np.mgrid[0:h, 0:w].astype(np.float64)
    field = np.zeros(shape, dtype=np.float64)
    for _ in range(n_blobs):
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        sy, sx = rng.uniform(h / 16, h / 4), rng.uniform(w / 16, w / 4)
        amp = rng.uniform(0.2, 1.0)
        field += amp * np.exp(
            -(((y - cy) / sy) ** 2 + ((x - cx) / sx) ** 2)
        )
    field /= max(field.max(), 1e-9)
    field += rng.normal(0.0, noise, size=shape)
    return np.clip(field, 0.0, 1.0)


def weighted_bytes(rng: np.random.Generator, nbytes: int, cdf: np.ndarray) -> bytes:
    """Random bytes drawn from a 256-entry :func:`sampling_cdf`."""
    return bytes(_draw(rng, cdf, nbytes).astype(np.uint8))
