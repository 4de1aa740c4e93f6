"""Design resolution: capability detection and SoC fallback (paper §III-D).

PEDAL "automatically detect[s] the hardware capability of the BlueField
series to determine supported compression designs, and intelligently
fall[s] back to SoC-based compression designs if a compression algorithm
is unsupported by the C-Engine".

For zlib and SZ3 the C-Engine-relevant core is DEFLATE (paper Table III
extends exactly those rows), so their capability checks are made against
the device's DEFLATE support.  The resolved plan records, per direction,
where the payload codec actually runs.  Note the asymmetry this creates
on BlueField-3: a C-Engine design may *compress* on the SoC (fallback)
yet *decompress* on the C-Engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dpu.device import BlueFieldDPU
from repro.dpu.specs import Algo, Direction
from repro.plan.designs import CompressionDesign, Placement

__all__ = ["ResolvedDesign", "resolve", "cengine_core_algo"]


def cengine_core_algo(algo: Algo) -> Algo:
    """The algorithm actually submitted to the C-Engine for ``algo``.

    zlib wraps DEFLATE, and PEDAL's SZ3 hybrid offloads its lossless
    stage as DEFLATE jobs; LZ4 and DEFLATE submit as themselves.
    """
    if algo in (Algo.ZLIB, Algo.SZ3):
        return Algo.DEFLATE
    return algo


@dataclass(frozen=True)
class ResolvedDesign:
    """A design bound to one device: where each direction executes."""

    design: CompressionDesign
    device_name: str
    compress_engine: str  # "soc" | "cengine"
    decompress_engine: str  # "soc" | "cengine"

    def engine_for(self, direction: Direction) -> str:
        return (
            self.compress_engine
            if direction is Direction.COMPRESS
            else self.decompress_engine
        )

    def uses_fallback(self, direction: Direction) -> bool:
        """True when a C-Engine design had to redirect to the SoC."""
        return (
            self.design.placement is Placement.CENGINE
            and self.engine_for(direction) == "soc"
        )

    @property
    def any_fallback(self) -> bool:
        return self.uses_fallback(Direction.COMPRESS) or self.uses_fallback(
            Direction.DECOMPRESS
        )


def resolve(
    device: BlueFieldDPU,
    design: CompressionDesign,
    force_soc: bool = False,
) -> ResolvedDesign:
    """Bind ``design`` to ``device``, applying Table III's fallbacks.

    ``force_soc`` routes both directions to the SoC regardless of the
    capability matrix — the runtime escalation used when DOCA bring-up
    failed past its retry budget (:mod:`repro.faults`), mirroring the
    capability fallback for an engine that is *temporarily* unusable
    rather than architecturally absent.  Read off the device's plan
    table; each call that lands on a fallback counts once.
    """
    from repro.plan.charges import plan_entry  # charges imports this module

    return plan_entry(device, design.algo, design.placement,
                      Direction.COMPRESS, True, not force_soc).resolve()
