"""Phase-time accounting for the reproduced time-distribution figures.

Fig. 7 and Fig. 9 of the paper break execution time into named phases
(DOCA init, buffer preparation, compression, decompression).
:class:`TimeBreakdown` is the accumulator every simulated operation
reports into; the bench harness renders them as stacked fractions.

Since the ``repro.obs`` span tracer landed, the breakdown is a
*consumer view* over the same phase charges: an operation binds its
breakdown to its tracing span (:meth:`TimeBreakdown.bind`), every
:meth:`add` forwards the ``(phase, seconds)`` charge to that span, and
:meth:`TimeBreakdown.from_spans` re-derives an identical breakdown from
a recorded trace.  With tracing disabled (the default) nothing is
forwarded and the class behaves exactly as it always has.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.obs.tracer import Span

__all__ = ["TimeBreakdown"]


class TimeBreakdown:
    """Ordered accumulation of time per named phase (seconds)."""

    __slots__ = ("_phases", "_span")

    def __init__(self) -> None:
        self._phases: dict[str, float] = {}  # in first-charge order
        self._span = None

    def bind(self, span: "Span") -> "TimeBreakdown":
        """Mirror subsequent :meth:`add` charges onto ``span``; returns self.

        Binding a non-recording span (the disabled-tracing null span)
        is a no-op, so callers bind unconditionally.
        """
        self._span = span if getattr(span, "recording", False) else None
        return self

    def add(self, phase: str, seconds: float) -> None:
        """Accumulate ``seconds`` into ``phase``."""
        if seconds < 0:
            raise ValueError(f"negative phase duration {seconds} for {phase!r}")
        self._phases[phase] = self._phases.get(phase, 0.0) + seconds
        if self._span is not None:
            self._span.phase(phase, seconds)

    def merge(self, other: "TimeBreakdown") -> "TimeBreakdown":
        """Accumulate all phases of ``other`` into self; returns self.

        A pure view operation: merged charges were already recorded
        under their originating spans, so nothing is re-forwarded.
        """
        for phase, seconds in other._phases.items():
            self._phases[phase] = self._phases.get(phase, 0.0) + seconds
        return self

    @classmethod
    def from_spans(cls, spans: "Iterable[Span]") -> "TimeBreakdown":
        """Rebuild a breakdown from recorded spans' phase charges.

        Spans should be supplied in creation order (as
        ``Tracer.spans`` / ``Tracer.subtree`` yield them); phase charges
        then accumulate in the same order the original ``add`` calls
        made, reproducing the legacy accumulator exactly.
        """
        tb = cls()
        for span in spans:
            for phase, seconds in span.phases:
                tb._phases[phase] = tb._phases.get(phase, 0.0) + seconds
        return tb

    def get(self, phase: str) -> float:
        return self._phases.get(phase, 0.0)

    def total(self) -> float:
        return reduce(operator.add, self._phases.values(), 0)

    def fraction(self, *phases: str) -> float:
        """Combined share of ``phases`` in the total (0 when empty)."""
        total = self.total()
        if total == 0:
            return 0.0
        shares = (self._phases.get(p, 0.0) for p in phases)
        return reduce(operator.add, shares, 0) / total

    def as_dict(self) -> dict[str, float]:
        return dict(self._phases)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:.6g}s" for k, v in self._phases.items())
        return f"TimeBreakdown({inner})"
