"""Size- and deadline-based coalescing of small requests into batches.

Small messages are where the C-Engine's fixed per-job overhead
(§V-B: 0.25 ms/1.0 ms per direction on BF-2, 161 µs on BF-3) dominates,
so the gateway amortizes it ZipLine-style: requests accumulate in a
per-direction open batch that flushes when it reaches ``max_msgs``
messages or :data:`MAX_SIM_BYTES` simulated bytes — or when the oldest
request in it has waited :data:`FLUSH_DEADLINE_S` on the sim clock, so
a trickle of traffic never stalls indefinitely.

``max_msgs=1`` degenerates to unbatched pass-through, which is the
baseline the serve bench compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from repro.dpu.specs import Algo, Direction
from repro.obs import QUEUE_DEPTH_BUCKETS, get_metrics

if TYPE_CHECKING:
    from repro.serve.request import ServeRequest
    from repro.sim.engine import Environment, Event

__all__ = [
    "BatchPolicy", "BatchEntry", "Batch", "Batcher",
    "MAX_SIM_BYTES", "FLUSH_DEADLINE_S",
]

#: An open batch flushes once it holds this many engine-billed bytes...
MAX_SIM_BYTES = 8 * 2**20
#: ...or once it is this old on the sim clock.
FLUSH_DEADLINE_S = 2.5e-4
# What a request without an ``algo`` batches as.
_DEFAULT_ALGO = Algo.DEFLATE


@dataclass(frozen=True)
class BatchPolicy:
    """When an open batch flushes."""

    max_msgs: int = 8                  # flush at this many messages

    def __post_init__(self) -> None:
        if self.max_msgs < 1:
            raise ValueError("max_msgs must be >= 1")


class BatchEntry(NamedTuple):
    """One admitted request plus its precomputed codec output + billing.

    An immutable slotted record: one is built per admitted request.
    """

    request: "ServeRequest"
    output: bytes             # real codec output (computed eagerly)
    engine_sim_bytes: float   # what the C-Engine ingests (compressed on dec)
    soc_sim_bytes: float      # uncompressed size (SoC/CRC convention)
    accepted_s: float
    event: "Event"            # fires with this request's ServeResponse


class Batch:
    """An accumulating (then flushed) group of entries sharing one
    (direction, algo) — so a flushed batch is exactly one engine job.

    Entries go in through :meth:`append`, which keeps the two billing
    totals as running sums (left to right, the order a plain loop over
    ``entries`` adds them in).
    """

    __slots__ = ("batch_id", "direction", "opened_s", "entries", "algo",
                 "engine_sim_bytes", "soc_sim_bytes")

    def __init__(self, batch_id: int, direction: Direction, opened_s: float,
                 entries: "Iterable[BatchEntry]" = (),
                 algo: Algo = Algo.DEFLATE) -> None:
        self.batch_id = batch_id
        self.direction = direction
        self.opened_s = opened_s
        self.algo = algo
        self.entries: "list[BatchEntry]" = []
        self.engine_sim_bytes = 0.0
        self.soc_sim_bytes = 0.0
        for entry in entries:
            self.append(entry)

    def append(self, entry: BatchEntry) -> None:
        self.entries.append(entry)
        self.engine_sim_bytes += entry.engine_sim_bytes
        self.soc_sim_bytes += entry.soc_sim_bytes

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def payload(self) -> bytes:
        return b"".join(e.output for e in self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Batch({self.batch_id}, {self.direction.value}, "
                f"{self.algo.value}, size={self.size})")


class Batcher:
    """Per-(direction, algo) accumulators driving an ``on_flush``
    callback.

    Flush triggers:

    * **size** — the open batch reaches ``max_msgs`` or
      :data:`MAX_SIM_BYTES` (checked on every :meth:`add`, flushes
      synchronously);
    * **deadline** — a sim-clock timer armed when the batch opens; a
      monotonically increasing per-direction epoch lets stale timers
      (their batch already flushed) expire as no-ops.
    """

    def __init__(
        self,
        env: "Environment",
        policy: BatchPolicy,
        on_flush: Callable[[Batch], None],
    ) -> None:
        self.env = env
        self.policy = policy
        self.on_flush = on_flush
        self._open: "dict[tuple[Direction, Algo], Batch]" = {}
        self._epoch: "dict[tuple[Direction, Algo], int]" = {}
        self._next_batch_id = 0
        self.batches_flushed = 0

    @property
    def open_count(self) -> int:
        """Entries currently buffered (across all open batches)."""
        return sum(b.size for b in self._open.values())

    def add(self, entry: BatchEntry) -> None:
        request = entry.request
        algo = getattr(request, "algo", _DEFAULT_ALGO)
        key = (request.direction, algo)
        batch = self._open.get(key)
        newly_opened = batch is None
        if batch is None:
            batch = Batch(
                self._next_batch_id, key[0], self.env.now, algo=algo
            )
            self._next_batch_id += 1
            self._open[key] = batch
            self._epoch[key] = self._epoch.get(key, 0) + 1
        batch.append(entry)
        if (
            batch.size >= self.policy.max_msgs
            or batch.engine_sim_bytes >= MAX_SIM_BYTES
        ):
            self._flush_key(key)
        elif newly_opened:
            # A bare timer, not a process: its callback runs at the
            # instant a sleeping deadline process would have woken.
            timer = self.env.timeout(FLUSH_DEADLINE_S)
            timer.callbacks.append(
                partial(self._deadline, key, self._epoch[key]))

    def flush(self, direction: Direction, algo: "Algo | None" = None) -> None:
        """Close and dispatch the open batch(es) for ``direction``.

        With ``algo`` given, only that (direction, algo) batch flushes;
        otherwise every open batch travelling in ``direction`` does —
        the pre-mixed-algo behaviour callers still rely on.
        """
        if algo is not None:
            self._flush_key((direction, algo))
            return
        for key in list(self._open):
            if key[0] is direction:
                self._flush_key(key)

    def _flush_key(self, key: "tuple[Direction, Algo]") -> None:
        batch = self._open.pop(key, None)
        if batch is None or not batch.entries:
            return
        self.batches_flushed += 1
        metrics = get_metrics()
        if metrics.recording:
            metrics.inc("serve.batches")
            metrics.observe("serve.batch_msgs", batch.size,
                            boundaries=QUEUE_DEPTH_BUCKETS)
        self.on_flush(batch)

    def flush_all(self) -> None:
        for key in list(self._open):
            self._flush_key(key)

    def _deadline(self, key: "tuple[Direction, Algo]", epoch: int,
                  _timer: "Event") -> None:
        # Only fire for the batch that armed this timer: if it already
        # flushed on size (epoch advanced when a successor opened, or
        # the slot is simply empty), do nothing.
        if self._epoch.get(key) == epoch and key in self._open:
            self._flush_key(key)
