"""Cost-model-driven path selection with a calibrated crossover cache.

:class:`PathSelector` answers one question: *for this (device,
algorithm, direction, size, amortization state), which capable path is
cheapest?*  Because every path cost in :class:`~repro.select.model.
CostModel` is affine in the payload size (``t = a + b*n``), the
SoC-vs-C-Engine decision reduces to a single calibrated *crossover
size* ``n* = (a_e - a_s) / (b_s - b_e)`` per (algo, direction,
amortization) — memoized, and each decision is memoized on its
arguments, so a repeated dispatch is one dict lookup.  Both caches are
pure functions of the device: the costs are the sums of the same
per-device plan table the simulator executes, so nothing invalidates
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from repro.dpu.specs import Algo, Direction
from repro.plan.charges import job_plan, plan_entry, plan_seconds, steal_stage
from repro.plan.designs import Placement
from repro.select.model import (
    ALL_PATHS,
    PATH_CENGINE,
    PATH_SOC,
    PLACEMENTS,
    CostModel,
)

if TYPE_CHECKING:
    from repro.dpu.device import BlueFieldDPU

__all__ = ["PathDecision", "PathSelector"]

_DECISION_LIMIT = 256  # memoized decisions per selector (wholesale clear)


@dataclass(frozen=True)
class PathDecision:
    """One dispatch decision and the prediction it rests on."""

    algo: Algo
    direction: Direction
    sim_bytes: float
    path: str                      # "soc" | "cengine"
    predicted_seconds: float
    costs: Mapping[str, float]     # read-only: cost of each capable path
    crossover_bytes: float         # n* for this (algo, direction, amortized)
    amortized: bool
    from_cache: bool               # n* came from the memoized cache

    @property
    def placement(self) -> Placement:
        return PLACEMENTS[self.path]


class PathSelector:
    """Cheapest-capable-path dispatch for one device.

    The model mirrors the simulator exactly, so a choice is never beaten
    by a capable path it rejected, except through SZ3's estimated
    lossless-stage size (the bench gate's ``regress.SELECT_TOLERANCE``).
    """

    def __init__(self, device: "BlueFieldDPU") -> None:
        self.device = device
        self.model = CostModel(device)
        self._crossover: dict[tuple[Algo, Direction, bool], float] = {}
        # choose() arguments -> the decision they give.
        self._decisions: dict[tuple, PathDecision] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    # ------------------------------------------------------------------
    # The crossover cache
    # ------------------------------------------------------------------

    def _affine(
        self, algo: Algo, direction: Direction, path: str, amortized: bool
    ) -> tuple[float, float]:
        """(intercept, slope) of one path's affine cost."""
        plan = plan_entry(
            self.device, algo, PLACEMENTS[path], direction, amortized).plan
        a = plan_seconds(plan(0.0, None))
        return a, plan_seconds(plan(1.0, None)) - a

    def crossover_bytes(
        self, algo: Algo, direction: Direction, amortized: bool = True
    ) -> float:
        """The size above which the C-Engine path wins (``inf`` when it
        never does — notably every op the capability matrix rejects,
        e.g. BF3 compression).  Memoized per (algo, direction,
        amortized)."""
        key = (algo, direction, amortized)
        cached = self._crossover.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        if not self.model.engine_capable(algo, direction):
            crossover = math.inf
        else:
            a_soc, b_soc = self._affine(algo, direction, PATH_SOC, amortized)
            a_eng, b_eng = self._affine(algo, direction, PATH_CENGINE, amortized)
            if b_eng < b_soc:
                crossover = max(0.0, (a_eng - a_soc) / (b_soc - b_eng))
            elif a_eng <= a_soc:
                crossover = 0.0    # engine at least as cheap at every size
            else:
                crossover = math.inf
        self._crossover[key] = crossover
        return crossover

    def cache_info(self) -> dict[str, int]:
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "size": len(self._crossover),
        }

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------

    def choose(
        self,
        algo: Algo,
        direction: Direction,
        sim_bytes: float,
        amortized: bool = True,
        stage_bytes: float | None = None,
        allow_engine: bool = True,
    ) -> PathDecision:
        """Pick the cheapest capable path for one operation.

        ``allow_engine=False`` models a context whose DOCA bring-up
        failed (SoC-only runtime fallback).  With a measured SZ3
        ``stage_bytes`` hint the costs are compared directly (the hint
        shifts the engine path off its cached affine line); otherwise
        the memoized crossover size decides in O(1).  Decisions are
        memoized on the arguments: a repeat is one dict probe, and it
        counts as the crossover-cache hit a fresh decision would make.
        """
        n = float(sim_bytes)
        memo_key = (algo, direction, n, amortized, stage_bytes, allow_engine)
        decision = self._decisions.get(memo_key)
        if decision is not None:
            self.cache_hits += 1
            return decision
        key = (algo, direction, amortized)
        from_cache = key in self._crossover
        crossover = self.crossover_bytes(algo, direction, amortized)
        costs = self.model.path_costs(
            algo, direction, n, amortized=amortized, stage_bytes=stage_bytes
        )
        if not (allow_engine and PATH_CENGINE in costs):  # costs: capable paths
            path = PATH_SOC
        elif stage_bytes is not None:
            # Ties prefer the engine, matching the n >= n* convention.
            path = min(ALL_PATHS, key=lambda p: (costs[p], p != PATH_CENGINE))
        else:
            path = PATH_CENGINE if n >= crossover else PATH_SOC
        decision = PathDecision(
            algo=algo,
            direction=direction,
            sim_bytes=n,
            path=path,
            predicted_seconds=costs[path],
            costs=MappingProxyType(costs),
            crossover_bytes=crossover,
            amortized=amortized,
            from_cache=from_cache,
        )
        if len(self._decisions) >= _DECISION_LIMIT:
            self._decisions.clear()
        # n* is cached from here on, so a repeat finds it there.
        self._decisions[memo_key] = (
            decision if from_cache else replace(decision, from_cache=True))
        return decision

    # ------------------------------------------------------------------
    # Scheduler-level jobs (repro.sched / repro.serve)
    # ------------------------------------------------------------------

    def job_costs(
        self,
        algo: Algo,
        direction: Direction,
        engine_bytes: float,
        soc_bytes: float,
    ) -> dict[str, float]:
        """Exec cost of one pipeline job per capable lane.

        Follows the :class:`~repro.sched.EngineJob` size conventions
        (``engine_bytes`` is what the C-Engine ingests, ``soc_bytes``
        the uncompressed size an SoC core bills).  The costs are the
        job plan's exec stage and its SoC work-steal fallback; the
        stages outside exec (ring-amortized buffer mapping, the drain
        CRC at the ~10 GB/s SoC checksum rate) are second-order and
        excluded.
        """
        plan = job_plan(self.device, algo, direction, engine_bytes, soc_bytes)
        costs = {PATH_SOC: steal_stage(plan)[2]}
        if len(plan) > 1:
            costs[PATH_CENGINE] = plan[1][2]
        return costs

    def job_engine(
        self,
        algo: Algo,
        direction: Direction,
        engine_bytes: float,
        soc_bytes: float,
    ) -> str:
        """Cheapest lane for one pipeline job ("cengine" on ties).

        A pricing query only: the scheduler never steals a job on cost.
        """
        costs = self.job_costs(algo, direction, engine_bytes, soc_bytes)
        if PATH_CENGINE in costs and costs[PATH_CENGINE] <= costs[PATH_SOC]:
            return PATH_CENGINE
        return PATH_SOC
