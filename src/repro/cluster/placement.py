"""Worker→shard placement: which devices back which shard.

The fleet is heterogeneous: BF-3's C-Engine is decompress-only (paper
Tables II/III), so a shard made entirely of BF-3s serves compress
tenants off the slow SoC path.  Placement reuses the same capability
probe the serve router uses (:func:`device_supports`, the device-level
twin of ``DpuWorker.supports``) to spread compress-capable engines so
every shard gets one when arithmetic allows: the compress-capable
devices are dealt round-robin across shards first, then the
decompress-only remainder fills the smallest shards.  Heterogeneity is
spread: a mixed BF-2/BF-3 fleet yields shards that can each serve both
directions natively.

Placement is a pure function of the device list, so it never perturbs
sim determinism.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.dpu.specs import Algo, Direction
from repro.errors import ClusterError
from repro.plan.registry import cengine_core_algo

if TYPE_CHECKING:
    from repro.dpu.device import BlueFieldDPU

__all__ = ["device_supports", "plan_placement"]


def device_supports(device: "BlueFieldDPU", direction: Direction,
                    algo: Algo = Algo.DEFLATE) -> bool:
    """Device-level twin of ``DpuWorker.supports`` (same engine-core
    mapping), usable before any gateway exists."""
    return device.cengine.supports(cengine_core_algo(algo), direction)


def plan_placement(devices: "Sequence[BlueFieldDPU]", num_shards: int,
                   ) -> "list[list[BlueFieldDPU]]":
    """Partition ``devices`` into ``num_shards`` non-empty groups."""
    if num_shards < 1:
        raise ClusterError(f"num_shards {num_shards} must be >= 1")
    if num_shards > len(devices):
        raise ClusterError(
            f"cannot place {len(devices)} devices on {num_shards} shards "
            "(every shard needs at least one worker)"
        )
    shards: "list[list[BlueFieldDPU]]" = [[] for _ in range(num_shards)]
    compress_capable = [
        d for d in devices if device_supports(d, Direction.COMPRESS)
    ]
    rest = [
        d for d in devices if not device_supports(d, Direction.COMPRESS)
    ]
    for i, device in enumerate(compress_capable):
        shards[i % num_shards].append(device)
    # Remainder fills smallest-first (fleet order breaks ties) so
    # replica counts stay within one of each other.
    for device in rest:
        target = min(range(num_shards), key=lambda s: (len(shards[s]), s))
        shards[target].append(device)
    return shards
