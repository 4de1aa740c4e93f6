"""The benchmark's seven named workloads (see ``metrics.WORKLOADS`` for
why each exists)."""

from workloads.codec import CodecCompress, CodecDecompress
from workloads.mpi import MpiOsu
from workloads.pedal import PedalOps
from workloads.serving import ClusterFleet, ServeSweep
from workloads.streams import StreamPaths

__all__ = ["REGISTRY"]

REGISTRY = {
    cls.name: cls
    for cls in (CodecCompress, CodecDecompress, PedalOps, MpiOsu,
                ServeSweep, ClusterFleet, StreamPaths)
}
