"""The acquire/release ledger both buffer pools keep.

:class:`~repro.core.mempool.MemoryPool` (simulated DOCA buffers) and
:class:`~repro.util.scratch.ScratchPool` (host numpy arenas) honour one
contract: a buffer handed out is *outstanding* until it comes back, and
releasing one that is not outstanding — a double release, or a buffer
this pool never issued — must raise instead of putting it on the free
list twice.  :class:`LeaseLedger` is that table, used by composition.
It takes no lock: ``ScratchPool`` calls it under its own.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.errors import PoolLifecycleError

__all__ = ["LeaseLedger"]


class LeaseLedger:
    """Identity-keyed table of the buffers a pool has out on lease."""

    def __init__(
        self, error: "type[PoolLifecycleError]" = PoolLifecycleError
    ) -> None:
        self._error = error
        # id(buf) -> (buf, payload); holding buf keeps its id unique
        # for as long as the lease is open.
        self._live: "dict[int, tuple[Any, Any]]" = {}

    def __len__(self) -> int:
        return len(self._live)

    def issue(self, buf: Any, payload: Any = None) -> None:
        """Open a lease on ``buf``; ``payload`` comes back from :meth:`settle`."""
        self._live[id(buf)] = (buf, payload)

    def settle(self, buf: Any, free: "Iterable[Any] | None" = None) -> Any:
        """Close the lease on ``buf`` and return its payload.

        Raises the ledger's error when ``buf`` is not outstanding.  A
        pool whose free list holds the very objects it leases passes it
        as ``free`` so the message can tell a double release from a
        foreign buffer.
        """
        entry = self._live.pop(id(buf), None)
        if entry is not None:
            return entry[1]
        if free is None:
            why = ("release of a buffer this pool does not have outstanding "
                   "(double release, or a foreign buffer)")
        elif any(buf is item for item in free):
            why = "double release: buffer is already on the pool free list"
        else:
            why = "foreign release: buffer was not acquired from this pool"
        raise self._error(why)

    def require_settled(self, action: str) -> None:
        """Refuse ``action`` (e.g. a drain) while leases are outstanding."""
        if self._live:
            raise self._error(
                f"{action} with {len(self._live)} outstanding buffer(s) "
                "still acquired; release them first"
            )
