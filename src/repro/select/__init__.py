"""repro.select — cost-model-driven adaptive path selection.

The selection layer the paper's end-to-end numbers imply: every
dispatch surface (``PedalContext`` with ``path="auto"``, the serving
gateway's ``cost_aware`` router, the pipeline scheduler's cost-aware
SoC work-steal) sums the charge plans of :mod:`repro.core.charges` and
picks the cheapest *capable* path, with a memoized crossover-size cache
for O(1) steady-state decisions and an online-refinement hook fed by
observed ``repro.obs`` spans.
"""

from repro.select.model import ALL_PATHS, PATH_CENGINE, PATH_SOC, CostModel
from repro.select.selector import PathDecision, PathSelector

__all__ = [
    "ALL_PATHS",
    "PATH_CENGINE",
    "PATH_SOC",
    "CostModel",
    "PathDecision",
    "PathSelector",
]
