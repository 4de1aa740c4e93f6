"""Batcher flush triggers: size, bytes, deadline, and epoch hygiene."""

from __future__ import annotations

import pytest

from repro.dpu.specs import Direction
from repro.serve import BatchEntry, Batcher, BatchPolicy, ServeRequest
from repro.serve.batcher import FLUSH_DEADLINE_S, MAX_SIM_BYTES

D = FLUSH_DEADLINE_S


@pytest.fixture
def flushed():
    return []


@pytest.fixture
def make_batcher(env, flushed):
    def _make(**policy_kwargs):
        return Batcher(env, BatchPolicy(**policy_kwargs), flushed.append)

    return _make


def _entry(env, direction=Direction.COMPRESS, engine_bytes=1000.0,
           soc_bytes=1000.0):
    request = ServeRequest(direction, b"payload", req_id=id(object()))
    return BatchEntry(
        request=request,
        output=b"out",
        engine_sim_bytes=engine_bytes,
        soc_sim_bytes=soc_bytes,
        accepted_s=env.now,
        event=env.event(),
    )


class TestSizeFlush:
    def test_flushes_at_max_msgs(self, env, make_batcher, flushed):
        batcher = make_batcher(max_msgs=3)
        for _ in range(2):
            batcher.add(_entry(env))
        assert flushed == [] and batcher.open_count == 2
        batcher.add(_entry(env))
        assert len(flushed) == 1
        assert flushed[0].size == 3
        assert batcher.open_count == 0

    def test_flushes_at_max_bytes(self, env, make_batcher, flushed):
        batcher = make_batcher(max_msgs=100)
        part = 0.4 * MAX_SIM_BYTES
        batcher.add(_entry(env, engine_bytes=part))
        batcher.add(_entry(env, engine_bytes=part))
        assert flushed == []
        batcher.add(_entry(env, engine_bytes=part))  # 1.2x the cap
        assert len(flushed) == 1
        assert flushed[0].engine_sim_bytes == pytest.approx(3 * part)

    def test_single_message_policy_is_passthrough(self, env, make_batcher,
                                                  flushed):
        batcher = make_batcher(max_msgs=1)
        for _ in range(4):
            batcher.add(_entry(env))
        assert len(flushed) == 4
        assert all(batch.size == 1 for batch in flushed)

    def test_directions_batch_separately(self, env, make_batcher, flushed):
        batcher = make_batcher(max_msgs=2)
        batcher.add(_entry(env, Direction.COMPRESS))
        batcher.add(_entry(env, Direction.DECOMPRESS))
        assert flushed == []  # one of each: neither batch is full
        batcher.add(_entry(env, Direction.COMPRESS))
        assert len(flushed) == 1
        assert flushed[0].direction is Direction.COMPRESS
        batcher.flush_all()
        assert len(flushed) == 2
        assert flushed[1].direction is Direction.DECOMPRESS


class TestDeadlineFlush:
    def test_deadline_flushes_partial_batch(self, env, make_batcher, flushed):
        batcher = make_batcher(max_msgs=16)

        def scenario(env):
            batcher.add(_entry(env))
            batcher.add(_entry(env))
            yield env.timeout(0.5 * D)
            assert flushed == []  # before the deadline
            yield env.timeout(0.6 * D)
            assert len(flushed) == 1 and flushed[0].size == 2

        env.run(until=env.process(scenario(env)))

    def test_deadline_measured_from_batch_open(self, env, make_batcher,
                                               flushed):
        batcher = make_batcher(max_msgs=16)

        def scenario(env):
            batcher.add(_entry(env))
            yield env.timeout(0.9 * D)
            batcher.add(_entry(env))  # late joiner must not reset the clock
            yield env.timeout(0.2 * D)
            assert len(flushed) == 1  # 1.1 D after open > the deadline

        env.run(until=env.process(scenario(env)))

    def test_stale_timer_does_not_flush_successor(self, env, make_batcher,
                                                  flushed):
        batcher = make_batcher(max_msgs=2)

        def scenario(env):
            batcher.add(_entry(env))
            yield env.timeout(0.5 * D)
            batcher.add(_entry(env))  # size-flush; timer from t=0 now stale
            assert len(flushed) == 1
            batcher.add(_entry(env))  # successor batch opens at t=0.5 D
            yield env.timeout(0.6 * D)  # stale timer fired at t=D: no-op
            assert len(flushed) == 1
            yield env.timeout(0.5 * D)  # successor's own deadline at 1.5 D
            assert len(flushed) == 2

        env.run(until=env.process(scenario(env)))


class TestFlushAll:
    def test_flush_all_empty_is_noop(self, env, make_batcher, flushed):
        make_batcher(max_msgs=4).flush_all()
        assert flushed == []

    def test_batch_ids_are_unique_and_ordered(self, env, make_batcher,
                                              flushed):
        batcher = make_batcher(max_msgs=1)
        for _ in range(3):
            batcher.add(_entry(env))
        assert [batch.batch_id for batch in flushed] == [0, 1, 2]


class TestPolicyValidation:
    @pytest.mark.parametrize("kwargs", [
        {"max_msgs": 0},
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatchPolicy(**kwargs)
