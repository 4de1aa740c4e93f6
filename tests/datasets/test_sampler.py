"""The dataset sampler against ``Generator.choice``.

Every categorical draw in :mod:`repro.datasets` is a ``searchsorted``
over ``rng.random(size)`` on a CDF built once by ``sampling_cdf``.  The
generators interleave these draws with ``rng.integers``, so the sampler
must return what ``Generator.choice(n, size, p=p)`` returns *and* leave
the bit generator exactly where ``choice`` leaves it, including a
buffered 32-bit half-word that an earlier ``integers`` draw left
pending.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.generators import _draw, sampling_cdf

#: Weight vectors of 1-256 entries: small integers (many zeros), spread
#: floats with zero entries, and one-hot vectors.
weights = st.one_of(
    st.lists(st.integers(0, 5), min_size=1, max_size=256).filter(any),
    st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1,
             max_size=256).filter(any),
    st.integers(1, 256).flatmap(
        lambda n: st.integers(0, n - 1).map(lambda hot: [0] * hot + [1] + [0] * (n - hot - 1))),
)


@settings(max_examples=300, deadline=None)
@given(weights, st.integers(0, 64), st.integers(0, 2**32 - 1),
       st.sampled_from([None, 2, 7, 1000]))
def test_draw_equals_choice_and_leaves_the_same_state(w, size, seed, pending):
    w = np.asarray(w, dtype=np.float64)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    if pending is not None:
        # integers below 2**32 draw a 32-bit half-word; PCG64 buffers the
        # other half in its state until the next 32-bit draw.
        ours.integers(0, pending)
        theirs.integers(0, pending)
        assert ours.bit_generator.state["has_uint32"] == 1
    got = _draw(ours, sampling_cdf(w), size)
    want = theirs.choice(len(w), size, p=w / w.sum())
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.integers(0, 2**40) == theirs.integers(0, 2**40)
