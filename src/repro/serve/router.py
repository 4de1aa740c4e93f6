"""Pluggable batch→device sharding policies.

All routers are deterministic: ties break on fleet order, so a given
request trace always produces the same placement (and therefore the
same sim timeline), which the regression bench depends on.

``capability`` is the policy the paper's capability matrix implies:
BF-3's C-Engine is decompress-only (Tables II/III), so a mixed BF-2/BF-3
fleet should steer decompress batches at BF-3 (where the faster engine,
161 µs overhead vs 1 ms, pays off) and compress batches at BF-2 — under
the other policies a compress batch landing on BF-3 silently falls back
to the SoC.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import NoCapableWorkerError

if TYPE_CHECKING:
    from repro.serve.batcher import Batch
    from repro.serve.gateway import DpuWorker

__all__ = [
    "Router",
    "RoundRobinRouter",
    "LeastQueueDepthRouter",
    "CapabilityAwareRouter",
    "CostAwareRouter",
    "ROUTERS",
    "make_router",
]


class Router:
    """Base class: pick a worker for each flushed batch.

    Routers may hold private per-gateway state (the round-robin cursor,
    cost-model caches); gateways that are handed a *shared instance*
    call :meth:`clone` so two gateways over one worker pool never alias
    one cursor.
    """

    name = "base"

    def pick(self, workers: "Sequence[DpuWorker]", batch: "Batch") -> "DpuWorker":
        raise NotImplementedError

    def clone(self) -> "Router":
        """A fresh router of the same policy with pristine private state."""
        return type(self)()

    @staticmethod
    def _alive(workers: "Sequence[DpuWorker]") -> "list[DpuWorker]":
        """Workers still accepting batches (test doubles without an
        ``alive`` attribute count as alive)."""
        return [w for w in workers if getattr(w, "alive", True)]

    @staticmethod
    def _least_loaded(workers: "Sequence[DpuWorker]", batch: "Batch",
                      capable_first: bool = False) -> "DpuWorker":
        """The first least-loaded live worker, in one pass over the
        fleet.  With ``capable_first``, the first least-loaded live one
        whose engine natively runs ``batch`` (see :meth:`_capable`),
        else the first least-loaded live one."""
        direction = getattr(batch, "direction", "")
        algo = getattr(batch, "algo", None)
        best = fallback = None
        best_load = fallback_load = 0
        for worker in workers:
            if not getattr(worker, "alive", True):
                continue
            load = worker.load
            if fallback is None or load < fallback_load:  # strict: first wins ties
                fallback, fallback_load = worker, load
            if capable_first and (best is None or load < best_load) and (
                worker.supports(direction) if algo is None
                else worker.supports(direction, algo)
            ):
                best, best_load = worker, load
        if best is not None:
            return best
        if fallback is not None:
            return fallback
        raise NoCapableWorkerError(direction, algo)

    @staticmethod
    def _capable(workers: "Sequence[DpuWorker]",
                 batch: "Batch") -> "list[DpuWorker]":
        """Workers whose engine natively runs this batch (empty for
        SoC-only algos like ``ac`` — callers fall back to the fleet)."""
        algo = getattr(batch, "algo", None)
        if algo is None:
            return [w for w in workers if w.supports(batch.direction)]
        return [w for w in workers if w.supports(batch.direction, algo)]


class RoundRobinRouter(Router):
    """Cycle through the fleet regardless of load or capability.

    The cursor is instance state: each gateway owns its own router (see
    :meth:`Router.clone`), so gateways sharing one worker pool advance
    independent cursors and stay individually deterministic.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._next = 0

    def pick(self, workers, batch):
        alive = self._alive(workers)
        if not alive:
            raise NoCapableWorkerError(
                getattr(batch, "direction", ""), getattr(batch, "algo", None)
            )
        worker = alive[self._next % len(alive)]
        self._next += 1
        return worker


class LeastQueueDepthRouter(Router):
    """Send each batch to the device with the fewest jobs in flight or
    queued (join-the-shortest-queue; first device wins ties)."""

    name = "least_queue_depth"

    def pick(self, workers, batch):
        return self._least_loaded(workers, batch)


class CapabilityAwareRouter(Router):
    """Least-queue-depth over the devices whose C-Engine natively
    supports the batch's direction; the whole fleet if none does (the
    scheduler's SoC fallback still completes the work)."""

    name = "capability"

    def pick(self, workers, batch):
        return self._least_loaded(workers, batch, capable_first=True)


class CostAwareRouter(Router):
    """Composes the capability filter with the :mod:`repro.select`
    cost model: each capable worker is scored by the predicted exec
    time of this batch's job on its cheapest lane, scaled by the
    worker's queue depth (``cost x (load + 1)`` — an M/D/1-flavored
    wait estimate), and the lowest score wins (fleet order on ties).

    Unlike :class:`CapabilityAwareRouter` this sees *magnitudes*: a
    BF-3 decompress batch is not just "capable", it is ~6x cheaper per
    job than BF-2 (161 us vs 1 ms overhead), so under mixed load the
    fleet's faster engines absorb proportionally more work.
    """

    name = "cost_aware"

    def __init__(self) -> None:
        # One selector per device object; devices may share a name
        # across fleets, so key by identity.
        self._selectors: dict[int, object] = {}

    def _selector(self, worker: "DpuWorker"):
        from repro.select import PathSelector

        key = id(worker.device)
        selector = self._selectors.get(key)
        if selector is None:
            selector = self._selectors[key] = PathSelector(worker.device)
        return selector

    def pick(self, workers, batch):
        alive = self._alive(workers)
        capable = self._capable(alive, batch)
        if not capable and not alive:
            raise NoCapableWorkerError(
                getattr(batch, "direction", ""), getattr(batch, "algo", None)
            )
        best = None
        best_score = None
        from repro.dpu.specs import Algo

        algo = getattr(batch, "algo", Algo.DEFLATE)
        for worker in capable or alive:
            costs = self._selector(worker).job_costs(
                algo, batch.direction,
                batch.engine_sim_bytes, batch.soc_sim_bytes,
            )
            score = min(costs.values()) * (worker.load + 1.0)
            if best_score is None or score < best_score:  # first wins ties
                best = worker
                best_score = score
        return best


ROUTERS = {
    cls.name: cls
    for cls in (
        RoundRobinRouter,
        LeastQueueDepthRouter,
        CapabilityAwareRouter,
        CostAwareRouter,
    )
}


def make_router(spec: "str | Router") -> Router:
    """Resolve a router name (or pass an instance through)."""
    if isinstance(spec, Router):
        return spec
    try:
        return ROUTERS[spec]()
    except KeyError:
        raise ValueError(
            f"unknown router {spec!r} (known: {sorted(ROUTERS)})"
        ) from None
