"""Property tests (hypothesis) for the telemetry roll-up invariants.

Two fleet-critical guarantees get the adversarial treatment here:

* a sketch built by *merging* arbitrarily-partitioned shards answers
  quantiles within the advertised relative-error bound of the exact
  nearest-rank quantile of the pooled stream;
* counter/gauge registry roll-ups are independent of merge order.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, QuantileSketch, merge_registries

# Latency-shaped positive floats spanning the sim's realistic range
# (microseconds to tens of seconds), away from the zero-bucket clip.
latencies = st.floats(min_value=1e-6, max_value=50.0,
                      allow_nan=False, allow_infinity=False)


def exact_quantile(values, q):
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@settings(max_examples=60, deadline=None)
@given(
    shards=st.lists(st.lists(latencies, min_size=1, max_size=40),
                    min_size=1, max_size=5),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_merged_quantiles_within_alpha_of_exact_pooled(shards, q):
    sketches = []
    for shard in shards:
        sketch = QuantileSketch()
        for value in shard:
            sketch.add(value)
        sketches.append(sketch)
    merged = QuantileSketch.merged(sketches)
    pooled = [value for shard in shards for value in shard]
    want = exact_quantile(pooled, q)
    got = merged.quantile(q)
    assert abs(got - want) <= merged.alpha * want + 1e-15


@settings(max_examples=60, deadline=None)
@given(
    shards=st.lists(st.lists(latencies, min_size=1, max_size=30),
                    min_size=2, max_size=4),
    q=st.floats(min_value=0.0, max_value=1.0),
)
def test_merge_matches_single_sketch_of_pooled_stream(shards, q):
    """Merging is bucket-exact: same answer as one sketch fed everything."""
    pooled = QuantileSketch()
    sketches = []
    for shard in shards:
        sketch = QuantileSketch()
        for value in shard:
            sketch.add(value)
            pooled.add(value)
        sketches.append(sketch)
    merged = QuantileSketch.merged(sketches)
    assert merged.quantile(q) == pooled.quantile(q)


counter_events = st.lists(
    st.tuples(st.sampled_from(["reqs", "bytes", "errs"]),
              st.floats(min_value=0.0, max_value=1e6)),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(
    per_registry=st.lists(counter_events, min_size=2, max_size=5),
    order=st.randoms(use_true_random=False),
)
def test_counter_rollup_is_order_independent(per_registry, order):
    registries = []
    for events in per_registry:
        registry = MetricsRegistry()
        for name, amount in events:
            registry.inc(name, amount)
        registries.append(registry)
    shuffled = list(registries)
    order.shuffle(shuffled)
    a = merge_registries(registries)
    b = merge_registries(shuffled)
    assert set(a.counters) == set(b.counters)
    for name in a.counters:
        assert a.counters[name].value == pytest.approx(
            b.counters[name].value
        )


@settings(max_examples=60, deadline=None)
@given(
    writes=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                    min_size=1, max_size=20),
    split=st.integers(min_value=0, max_value=20),
    order=st.randoms(use_true_random=False),
)
def test_gauge_rollup_last_write_wins_any_merge_order(writes, split, order):
    """The gauge's process-wide seq stamp resolves 'latest' regardless
    of which registry receives which write or how they merge."""
    split = min(split, len(writes))
    left, right = MetricsRegistry(), MetricsRegistry()
    for i, value in enumerate(writes):
        (left if i < split else right).set_gauge("depth", value)
    registries = [left, right]
    shuffled = list(registries)
    order.shuffle(shuffled)
    a = merge_registries(registries)
    b = merge_registries(shuffled)
    assert a.gauges["depth"].value == writes[-1]
    assert b.gauges["depth"].value == writes[-1]
    assert a.gauges["depth"].updates == b.gauges["depth"].updates == len(writes)
    assert a.gauges["depth"].min == b.gauges["depth"].min == min(writes)
    assert a.gauges["depth"].max == b.gauges["depth"].max == max(writes)


# -- exemplar retention ------------------------------------------------------

# Few distinct values and links, so ties on value and on the whole
# (value, repr(link)) key are common.
tie_values = st.sampled_from([1e-3, 2e-3, 2e-3, 0.5, 7.0])
links = st.one_of(st.integers(min_value=0, max_value=4),
                  st.sampled_from(["span-1", "span-2", "a"]))
linked = st.lists(st.tuples(tie_values, links), max_size=40)


def sort_and_trim(pairs):
    """The retention rule written out: after each pair, a stable sort on
    ``(value, repr(link))`` and the head dropped past capacity."""
    from repro.obs.sketch import EXEMPLAR_CAPACITY

    kept = []
    for pair in pairs:
        kept.append(pair)
        kept.sort(key=lambda p: (p[0], repr(p[1])))
        del kept[:-EXEMPLAR_CAPACITY]
    return kept


@settings(max_examples=200, deadline=None)
@given(pairs=linked)
def test_exemplars_follow_the_sort_and_trim_rule(pairs):
    sketch = QuantileSketch()
    for value, link in pairs:
        sketch.add(value, exemplar=link)
    assert sketch.exemplars == sort_and_trim(pairs)


@settings(max_examples=100, deadline=None)
@given(shards=st.lists(linked, min_size=1, max_size=4))
def test_merged_exemplars_follow_the_sort_and_trim_rule(shards):
    sketches = []
    for shard in shards:
        sketch = QuantileSketch()
        for value, link in shard:
            sketch.add(value, exemplar=link)
        sketches.append(sketch)
    merged = QuantileSketch.merged(sketches)
    retained = [pair for sketch in sketches for pair in sketch.exemplars]
    assert merged.exemplars == sort_and_trim(retained)
    # Retention is lossless for the tail: the merge keeps exactly what
    # one sketch over the pooled stream keeps.
    assert merged.exemplars == sort_and_trim(
        [pair for shard in shards for pair in shard])
