"""DOCA session lifecycle."""

from __future__ import annotations

from typing import Generator, Iterable

from repro.doca.buffers import BufInventory
from repro.dpu.device import BlueFieldDPU
from repro.errors import DocaInitError, DocaNotInitializedError
from repro.faults.plan import get_fault_plan
from repro.obs import device_span
from repro.sched import EngineJob, PipelineScheduler, SchedConfig

__all__ = ["DocaSession"]


class DocaSession:
    """A device context + work queue, as created by ``doca_*_create``.

    Opening the session charges the one-time DOCA initialisation cost
    (device/context/workq creation, engine bring-up).  All job
    submission requires an open session.
    """

    def __init__(self, device: BlueFieldDPU) -> None:
        self.device = device
        self._open = False
        self.init_seconds: float | None = None

    @property
    def is_open(self) -> bool:
        return self._open

    def open(self) -> Generator:
        """Initialise DOCA (simulated); returns the init duration.

        Under an installed fault plan bring-up may fail: the full init
        time is still charged (the hardware walked the bring-up before
        erroring) and :class:`~repro.errors.DocaInitError` is raised
        with the session left closed, so callers can retry.
        """
        if self._open:
            return 0.0
        seconds = self.device.cal.doca_init_time
        plan = get_fault_plan()
        fail = plan.active and plan.session_init(
            self.device.name, self.device.env.now
        )
        with device_span("doca.init", self.device, device=self.device.name) as span:
            if fail:
                span.set_attr("fault", "init_fail")
            yield self.device.env.timeout(seconds)
        if fail:
            raise DocaInitError(
                f"DOCA bring-up failed on {self.device.name}",
                sim_seconds=seconds,
            )
        self._open = True
        self.init_seconds = seconds
        return seconds

    def create_inventory(self) -> Generator:
        """Create a buffer inventory bound to this session.

        Returns ``(inventory, seconds)`` — inventory creation carries
        the fixed buffer-infrastructure cost.
        """
        self.require_open()
        seconds = self.device.cal.buffer_fixed_time
        with device_span("buffer.prep", self.device, what="inventory"):
            yield self.device.env.timeout(seconds)
        return BufInventory(self), seconds

    def submit_many(
        self,
        jobs: Iterable,
        depth: int = 2,
        config=None,
    ) -> Generator:
        """Batch-submit jobs through a pipelined work queue.

        ``jobs`` is an iterable of :class:`~repro.sched.EngineJob` (or
        ``(algo, direction, nbytes)`` tuples).  The jobs flow through a
        bounded-depth pipeline (:class:`~repro.sched.PipelineScheduler`)
        that overlaps buffer mapping, C-Engine execution, and result
        drain across consecutive jobs; ``depth`` bounds how many are in
        flight at once.  Returns the :class:`~repro.sched.JobOutcome`
        list in submission order.

        SDK semantics are preserved: a job the capability matrix
        rejects raises :class:`~repro.errors.DocaCapabilityError` up
        front, and a job that exhausts its retry budget under an
        installed fault plan surfaces the final DOCA error — SoC
        fallback is the PEDAL policy layer's job.  Pass a
        :class:`~repro.sched.SchedConfig` as ``config`` to override
        (e.g. ``soc_fallback=True``).
        """
        self.require_open()
        if config is None:
            config = SchedConfig(depth=depth, soc_fallback=False)
        specs = [
            job if isinstance(job, EngineJob) else EngineJob(*job)
            for job in jobs
        ]
        scheduler = PipelineScheduler(self.device, config)
        outcomes = yield from scheduler.submit_many(specs)
        return outcomes

    def require_open(self) -> None:
        if not self._open:
            raise DocaNotInitializedError(
                "DOCA session is not open; call open() first"
            )

    def close(self) -> None:
        """Tear down the session (instantaneous in the model)."""
        self._open = False
