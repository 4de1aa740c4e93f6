"""repro.select — cost-model-driven adaptive path selection.

The selection layer the paper's end-to-end numbers imply: both
dispatch surfaces (``PedalContext`` with ``path="auto"`` and the
serving gateway's ``cost_aware`` router) sum the charge plans of
:mod:`repro.plan.charges` and pick the cheapest *capable* path, with a
memoized crossover-size cache for O(1) steady-state decisions and an
online-refinement hook fed by observed ``repro.obs`` spans.  The
pipeline scheduler (:mod:`repro.sched`) does not consult it: a job
leaves the C-Engine only when the engine cannot run it or its retry
budget runs out.
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
