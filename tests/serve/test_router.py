"""Routing policies: determinism, load signals, capability filtering."""

from __future__ import annotations

import pytest

from repro.dpu import make_device
from repro.dpu.specs import Algo, Direction
from repro.serve import (
    ROUTERS,
    CapabilityAwareRouter,
    LeastQueueDepthRouter,
    RoundRobinRouter,
    Router,
    make_router,
)


class FakeWorker:
    """Minimal router-facing worker: a load number + capability set."""

    def __init__(self, name, load=0, directions=(Direction.COMPRESS,
                                                 Direction.DECOMPRESS)):
        self.name = name
        self.load = load
        self._directions = set(directions)

    def supports(self, direction):
        return direction in self._directions


class FakeBatch:
    def __init__(self, direction=Direction.COMPRESS):
        self.direction = direction


class SizedBatch(FakeBatch):
    """A DEFLATE batch with the sizes the cost-aware router prices."""

    def __init__(self, direction, nbytes):
        super().__init__(direction)
        self.algo = Algo.DEFLATE
        self.engine_sim_bytes = self.soc_sim_bytes = nbytes


class TestRoundRobin:
    def test_cycles_through_fleet(self):
        router = RoundRobinRouter()
        workers = [FakeWorker("a"), FakeWorker("b"), FakeWorker("c")]
        picks = [router.pick(workers, FakeBatch()).name for _ in range(6)]
        assert picks == ["a", "b", "c", "a", "b", "c"]


class TestLeastQueueDepth:
    def test_picks_least_loaded(self):
        workers = [FakeWorker("a", load=3), FakeWorker("b", load=1),
                   FakeWorker("c", load=2)]
        assert LeastQueueDepthRouter().pick(workers, FakeBatch()).name == "b"

    def test_tie_breaks_on_fleet_order(self):
        workers = [FakeWorker("a", load=2), FakeWorker("b", load=2)]
        assert LeastQueueDepthRouter().pick(workers, FakeBatch()).name == "a"


class TestCapabilityAware:
    def test_filters_to_capable_devices(self):
        """A BF-3-shaped worker (decompress-only engine) never receives
        compress batches while an engine-capable device exists."""
        bf2 = FakeWorker("bf2", load=9)
        bf3 = FakeWorker("bf3", load=0, directions=(Direction.DECOMPRESS,))
        router = CapabilityAwareRouter()
        assert router.pick([bf2, bf3], FakeBatch(Direction.COMPRESS)) is bf2
        # ...but decompress goes to the least-loaded capable device.
        assert router.pick([bf2, bf3], FakeBatch(Direction.DECOMPRESS)) is bf3

    def test_falls_back_to_whole_fleet(self):
        """If nobody has the engine capability, route by load anyway —
        the scheduler's SoC fallback still completes the work."""
        a = FakeWorker("a", load=2, directions=())
        b = FakeWorker("b", load=1, directions=())
        assert CapabilityAwareRouter().pick(
            [a, b], FakeBatch(Direction.COMPRESS)
        ) is b


class TestRealWorkersRoute(object):
    def test_capability_router_on_real_fleet(self, env, fleet):
        from repro.serve import DpuWorker

        workers = [DpuWorker(device) for device in fleet]
        router = CapabilityAwareRouter()
        pick = router.pick(workers, FakeBatch(Direction.COMPRESS))
        assert pick.device.spec.generation == 2  # BF-3 has no compress engine


class TestCostAwareLoadWeight:
    def test_score_is_cost_times_load_plus_one(self, env):
        """A busy BF-3 (load 1) against an idle BF-2 (load 0) on a
        5.4 MB decompress job, which costs the BF-2 engine 1.75x the
        BF-3's.  Under ``cost x (load + 1)`` the idle BF-2 wins
        (1.75 < 2); under ``load + 2`` the busy BF-3 would
        (2 x 1.75 = 3.5 against 3)."""
        from repro.sched import EngineJob
        from repro.select import PathSelector
        from repro.serve import CostAwareRouter, DpuWorker

        n = 5.4e6
        busy = DpuWorker(make_device(env, "bf3"))
        idle = DpuWorker(make_device(env, "bf2"))
        busy.scheduler.submit(EngineJob(Algo.DEFLATE, Direction.DECOMPRESS,
                                        n, soc_sim_bytes=n))
        env.run(until=1e-9)
        assert (busy.load, idle.load) == (1, 0)
        cost = {worker: min(PathSelector(worker.device).job_costs(
            Algo.DEFLATE, Direction.DECOMPRESS, n, n).values())
            for worker in (busy, idle)}
        assert 1.5 < cost[idle] / cost[busy] < 2.0
        batch = SizedBatch(Direction.DECOMPRESS, n)
        assert CostAwareRouter().pick([busy, idle], batch) is idle

    def test_idle_fleet_still_ranks_by_cost(self, env):
        """With every worker idle the ``+ 1`` keeps the cost in the
        score: the cheaper BF-3 engine takes a decompress batch although
        the BF-2 comes first in fleet order (``cost x load`` would score
        both 0 and hand it to the BF-2)."""
        from repro.serve import CostAwareRouter, DpuWorker

        bf2 = DpuWorker(make_device(env, "bf2"))
        bf3 = DpuWorker(make_device(env, "bf3"))
        batch = SizedBatch(Direction.DECOMPRESS, 5.4e6)
        assert CostAwareRouter().pick([bf2, bf3], batch) is bf3


class TestRegistry:
    def test_known_names(self):
        assert set(ROUTERS) == {"round_robin", "least_queue_depth",
                                "capability", "cost_aware"}
        for name in ROUTERS:
            assert make_router(name).name == name

    def test_instance_passthrough(self):
        router = RoundRobinRouter()
        assert make_router(router) is router

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown router"):
            make_router("hash_ring")

    def test_base_router_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Router().pick([FakeWorker("a")], FakeBatch())
