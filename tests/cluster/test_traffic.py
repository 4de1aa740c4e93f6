"""Open-loop traffic generator: determinism, tail shape, diurnal swing,
and payload validity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.deflate import deflate_decompress
from repro.algorithms.lz4 import lz4_decompress
from repro.cluster import (
    DEFAULT_TENANTS,
    TenantProfile,
    TrafficConfig,
    build_schedule,
    traffic_process,
)
from repro.cluster.traffic import MAX_BYTES, MIN_BYTES
from repro.dpu.specs import Algo, Direction
from tests.conftest import drive


def _config(**kwargs):
    defaults = dict(rate_req_s=20_000.0, duration_s=0.05, seed=42)
    defaults.update(kwargs)
    return TrafficConfig(**defaults)


def test_schedule_is_a_pure_function_of_config():
    a = build_schedule(_config())
    b = build_schedule(_config())
    assert a.arrivals == b.arrivals
    assert len(a) == len(b) > 0
    c = build_schedule(_config(seed=43))
    assert c.arrivals != a.arrivals


def test_arrivals_are_ordered_and_in_window():
    schedule = build_schedule(_config())
    times = [a.t_s for a in schedule.arrivals]
    assert times == sorted(times)
    assert all(0.0 <= t < 0.05 for t in times)
    # Offered count lands near rate * duration (Poisson, generous band).
    assert 0.5 * 1000 <= len(schedule) <= 1.5 * 1000


def test_sizes_respect_clip_bounds_and_heavy_tail():
    config = _config(
        rate_req_s=100_000.0,
        tenants=(TenantProfile("tail", size_dist="pareto",
                               median_bytes=16e3, pareto_alpha=1.1),),
    )
    schedule = build_schedule(config)
    sizes = np.array([a.sim_bytes for a in schedule.arrivals])
    assert sizes.min() >= MIN_BYTES and sizes.max() <= MAX_BYTES
    assert sizes.max() == MAX_BYTES  # the upper clip is reached
    # Heavy tail: the max dwarfs the median by orders of magnitude.
    assert sizes.max() > 20.0 * np.median(sizes)
    # ...and the mean sits well above the median (skew, not symmetry).
    assert sizes.mean() > 1.5 * np.median(sizes)


def test_diurnal_modulation_shifts_arrivals_into_the_peak_half():
    """One sinusoidal cycle per run: rate(t) > base over the first half
    window, < base over the second, so arrivals concentrate early."""
    config = _config(rate_req_s=50_000.0, diurnal_amplitude=0.6)
    schedule = build_schedule(config)
    half = config.duration_s / 2.0
    first = sum(1 for a in schedule.arrivals if a.t_s < half)
    second = len(schedule) - first
    assert first > 1.2 * second
    # Amplitude zero keeps the halves statistically even.
    flat = build_schedule(_config(rate_req_s=50_000.0,
                                  diurnal_amplitude=0.0))
    first = sum(1 for a in flat.arrivals if a.t_s < half)
    second = len(flat) - first
    assert 0.75 <= first / second <= 1.33


def test_tenant_mix_follows_weights():
    schedule = build_schedule(_config(rate_req_s=100_000.0))
    counts = {t.name: 0 for t in DEFAULT_TENANTS}
    for arrival in schedule.arrivals:
        counts[arrival.tenant] += 1
    # weights bulk:reader:restore = 2:3:1
    assert counts["reader"] > counts["bulk"] > counts["restore"]


def test_decompress_payloads_are_valid_streams():
    tenants = (
        TenantProfile("d-deflate", direction=Direction.DECOMPRESS,
                      algo=Algo.DEFLATE),
        TenantProfile("d-lz4", direction=Direction.DECOMPRESS,
                      algo=Algo.LZ4),
    )
    config = _config(rate_req_s=2_000.0, tenants=tenants, actual_bytes=2048)
    schedule = build_schedule(config)
    seen = set()
    for arrival in schedule.arrivals:
        payload = schedule.payload(arrival)
        if (arrival.algo, payload) in seen:
            continue
        seen.add((arrival.algo, payload))
        decode = (deflate_decompress if arrival.algo is Algo.DEFLATE
                  else lz4_decompress)
        assert len(decode(payload)) == 2048
    assert seen  # the pools were exercised


def test_request_carries_arrival_fields():
    schedule = build_schedule(_config(rate_req_s=2_000.0))
    arrival = schedule.arrivals[0]
    request = schedule.request(arrival, req_id=7)
    assert request.tenant == arrival.tenant
    assert request.direction is arrival.direction
    assert request.algo is arrival.algo
    assert request.sim_bytes == arrival.sim_bytes
    assert request.req_id == 7


def test_traffic_process_replays_open_loop(env):
    schedule = build_schedule(_config(rate_req_s=2_000.0, duration_s=0.01))
    submitted = []

    def submit(request):
        submitted.append((env.now, request))
        return request.req_id

    tickets = drive(env, traffic_process(env, schedule, submit))
    assert tickets == list(range(len(schedule)))
    assert len(submitted) == len(schedule)
    for (at, request), arrival in zip(submitted, schedule.arrivals):
        assert at == pytest.approx(arrival.t_s, abs=1e-12)
        assert request.tenant == arrival.tenant


def test_config_validation():
    with pytest.raises(ValueError):
        TrafficConfig(rate_req_s=0.0, duration_s=1.0)
    with pytest.raises(ValueError):
        TrafficConfig(rate_req_s=1.0, duration_s=0.0)
    with pytest.raises(ValueError):
        TrafficConfig(rate_req_s=1.0, duration_s=1.0, diurnal_amplitude=1.0)
    with pytest.raises(ValueError):
        TrafficConfig(rate_req_s=1.0, duration_s=1.0, tenants=())
    with pytest.raises(ValueError):
        TenantProfile("bad", size_dist="zipf")
    with pytest.raises(ValueError):
        TenantProfile("bad", weight=0.0)
