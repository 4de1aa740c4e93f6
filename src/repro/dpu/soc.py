"""SoC execution model: a pool of ARM cores running codec work.

Codec work occupies one core for ``bytes / throughput`` seconds (the
codecs the paper runs are single-threaded per message).  The core pool
is a simulated :class:`~repro.sim.resources.Resource`, so concurrent
messages contend for cores exactly as they would on the 8-core A72 /
16-core A78 SoCs.  What a piece of work costs is the charge plan's
business (:mod:`repro.plan.charges`); a core only runs it.
"""

from __future__ import annotations

from typing import Generator

from repro.dpu.specs import SocSpec
from repro.sim import Environment, Resource

__all__ = ["Soc"]


class Soc:
    """The DPU's ARM SoC."""

    def __init__(self, env: Environment, spec: SocSpec) -> None:
        self.env = env
        self.spec = spec
        self.cores = Resource(env, capacity=spec.n_cores)
        self.busy_seconds = 0.0  # accumulated core-occupancy, for stats

    def run(self, seconds: float) -> Generator:
        """Occupy one core for ``seconds`` of simulated time."""
        req = self.cores.request()
        yield req
        try:
            yield self.env.timeout(seconds)
            self.busy_seconds += seconds
        finally:
            self.cores.release(req)
