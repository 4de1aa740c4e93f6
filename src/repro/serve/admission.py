"""Bounded admission control with explicit load shedding.

The gateway admits at most ``max_pending`` requests at a time — pending
means admitted but not yet completed (queued in the batcher, queued at a
device, or executing).  Beyond that the gateway *sheds*: the submit
returns a refused ticket immediately instead of queueing unboundedly.
That keeps queue depth — and therefore tail latency — bounded under
overload, which is the backpressure half of the serving story: goodput
saturates, it does not collapse.
"""

from __future__ import annotations

from repro.obs import QUEUE_DEPTH_BUCKETS, get_metrics

__all__ = ["AdmissionController"]


class AdmissionController:
    """Counting semaphore over pending requests, with shed accounting."""

    def __init__(self, max_pending: int) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.max_pending = max_pending
        self.pending = 0
        self.peak_pending = 0
        self.accepted = 0
        self.shed = 0

    def try_admit(self) -> bool:
        """Admit one request if there is room; returns False to shed."""
        metrics = get_metrics()
        if self.pending >= self.max_pending:
            self.shed += 1
            if metrics.recording:
                metrics.inc("serve.shed")
            return False
        pending = self.pending = self.pending + 1
        self.accepted += 1
        if pending > self.peak_pending:
            self.peak_pending = pending
        if metrics.recording:
            metrics.inc("serve.accepted")
            metrics.set_gauge("serve.pending", pending)
            metrics.observe("serve.pending_depth", pending,
                            boundaries=QUEUE_DEPTH_BUCKETS)
        return True

    def complete(self) -> None:
        """Release one admitted request's slot."""
        if self.pending <= 0:
            raise RuntimeError("admission completed with nothing pending")
        self.pending -= 1
        metrics = get_metrics()
        if metrics.recording:
            metrics.set_gauge("serve.pending", self.pending)
