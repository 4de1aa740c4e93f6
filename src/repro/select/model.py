"""Per-path latency prediction for one PEDAL operation.

:class:`CostModel` sums the charge plan (:func:`repro.plan.charges.
op_plan`) that :class:`~repro.core.api.PedalContext` — or, un-hoisted,
:class:`~repro.core.baseline.NaiveCompressor` — executes for each
(algorithm, direction, path), so it predicts exactly what the
simulated hardware is charged.

Every path cost is affine in the payload size, ``t(n) = a + b*n``
(the paper's linear cost model, §V), which is what makes the
closed-form SoC-vs-C-Engine crossover of
:class:`~repro.select.selector.PathSelector` possible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dpu.specs import Algo, Direction
from repro.plan.charges import op_plan, plan_entry, plan_seconds
from repro.plan.designs import Placement

if TYPE_CHECKING:
    from repro.dpu.device import BlueFieldDPU

__all__ = ["CostModel", "PATH_SOC", "PATH_CENGINE", "ALL_PATHS"]

# Path keys — match ResolvedDesign.engine_for() / JobOutcome.engine.
PATH_SOC = "soc"
PATH_CENGINE = "cengine"
ALL_PATHS = (PATH_SOC, PATH_CENGINE)
PLACEMENTS = {PATH_SOC: Placement.SOC, PATH_CENGINE: Placement.CENGINE}


class CostModel:
    """Path costs for one device: its charge plans, summed."""

    def __init__(self, device: "BlueFieldDPU") -> None:
        self.device = device

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------

    def engine_capable(self, algo: Algo, direction: Direction) -> bool:
        """True when the C-Engine path is *real* for this op — the
        device natively runs the design's core algorithm (DEFLATE for
        zlib; SZ3's hybrid only needs the DEFLATE stage, which falls
        back to SoC DEFLATE when absent, so SZ3 counts as capable in
        the hybrid sense only when the stage engine exists)."""
        return plan_entry(self.device, algo, Placement.CENGINE,
                          direction).on_engine

    def capable_paths(self, algo: Algo, direction: Direction) -> tuple[str, ...]:
        """The paths worth dispatching to (SoC always; C-Engine when
        the capability matrix supports the op's core algorithm)."""
        if self.engine_capable(algo, direction):
            return ALL_PATHS
        return (PATH_SOC,)

    # ------------------------------------------------------------------
    # Per-path costs
    # ------------------------------------------------------------------

    def path_seconds(
        self,
        algo: Algo,
        direction: Direction,
        sim_bytes: float,
        path: str,
        amortized: bool = True,
        stage_bytes: float | None = None,
    ) -> float:
        """Predicted sim-clock latency of one op on ``path``.

        ``amortized=True`` models the PEDAL steady state (DOCA session
        open, buffers pooled and pre-mapped); ``False`` adds the naive
        per-op DOCA init + 2x buffer registration (engine path) or the
        plain allocation (SoC path).  ``stage_bytes`` overrides SZ3's
        lossless-stage size (defaults to the n/3 estimate the runtime
        uses when no measured entropy-payload size is available).
        """
        if path not in PLACEMENTS:
            raise ValueError(f"unknown path {path!r} (known: {ALL_PATHS})")
        return plan_seconds(op_plan(
            self.device, algo, PLACEMENTS[path], direction, sim_bytes,
            stage_bytes, hoisted=amortized,
        ))

    def path_costs(
        self,
        algo: Algo,
        direction: Direction,
        sim_bytes: float,
        amortized: bool = True,
        stage_bytes: float | None = None,
    ) -> dict[str, float]:
        """Costs of every *capable* path, keyed by path name."""
        costs = {}
        for path, placement in PLACEMENTS.items():
            entry = plan_entry(self.device, algo, placement, direction,
                               amortized)
            if placement is Placement.SOC or entry.on_engine:
                costs[path] = plan_seconds(entry.plan(sim_bytes, stage_bytes))
        return costs
