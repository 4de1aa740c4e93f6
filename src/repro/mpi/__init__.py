"""A simulated MPI runtime (MPICH stand-in) with the PEDAL co-design.

The paper integrates PEDAL between MPICH's shim and transport layers
(paper §IV, Fig. 6): ``MPI_Send`` compresses before handing the buffer
to UCX/OFI, ``MPI_Recv`` posts PEDAL-owned buffers and decompresses into
the user buffer, and ``PEDAL_init`` runs inside ``MPI_Init``.

Here the transport is a latency/bandwidth fabric over the DES kernel,
ranks are simulated processes (one per DPU node), and the same three
integration points exist:

* :class:`~repro.mpi.pedal_integration.CommConfig` selects RAW (no
  compression), PEDAL (pooled, init hoisted into ``MPI_Init``), or
  NAIVE (per-message DOCA init — the paper's baseline);
* point-to-point uses eager/rendezvous protocols with PEDAL active only
  on the rendezvous path (paper §IV, last paragraph);
* Bcast (binomial tree or scatter + ring allgather) composes the pt2pt path,
  so every hop decompresses and recompresses exactly as MPICH would.

Public API
----------
:func:`run_mpi`, :class:`RankContext` — launch rank programs.
:class:`CommConfig`, :class:`CommMode` — communication configuration.
"""

from repro.mpi.pedal_integration import CommConfig, CommMode
from repro.mpi.runtime import MpiJobResult, RankContext, run_mpi

__all__ = [
    "CommConfig",
    "CommMode",
    "MpiJobResult",
    "RankContext",
    "run_mpi",
]
