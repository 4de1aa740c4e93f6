"""A small discrete-event simulation (DES) kernel.

The hardware model (:mod:`repro.dpu`) and the simulated MPI runtime
(:mod:`repro.mpi`) run on this kernel: simulated processes are Python
generators that ``yield`` events (timeouts, resource grants, store
gets), and the environment advances a virtual clock between event
firings.  The design follows SimPy's coroutine model (SimPy itself is
not available offline), trimmed to the primitives this project needs.

Public API
----------
:class:`Environment`, :class:`Event`, :class:`Timeout`, :class:`Process`,
:class:`AllOf` from :mod:`repro.sim.engine`;
:class:`Resource`, :class:`Store` from :mod:`repro.sim.resources`;
:class:`TimeBreakdown` from :mod:`repro.sim.trace`.
"""

from repro.sim.engine import AllOf, Environment, Event, Process, Timeout
from repro.sim.resources import Resource, Store
from repro.sim.trace import TimeBreakdown

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "Store",
    "TimeBreakdown",
    "Timeout",
]
