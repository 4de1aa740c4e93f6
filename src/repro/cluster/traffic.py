"""Open-loop traffic generation: Poisson arrivals, diurnal rate, heavy tails.

The cluster bench needs load shapes the single-gateway sweep never
exercised: 10-100x the PR 4 offered rates, arrival *bursts* (diurnal
modulation over the run window), and request sizes with the heavy upper
tail real compression traffic shows (a few huge objects dominate byte
volume).  Everything here is precomputed from a seed with NumPy's
``default_rng`` before the simulation starts, so a schedule is a pure
function of ``(TrafficConfig, seed)`` and replays bit-for-bit.

* **Arrivals** — non-homogeneous Poisson by thinning: candidates are
  drawn at the peak rate ``base * (1 + amplitude)``, then each is kept
  with probability ``rate(t) / peak`` where ``rate(t)`` follows one
  sinusoidal "diurnal" cycle over the run window.
* **Sizes** — per-tenant lognormal (median/sigma) or Pareto-tailed
  (Lomax, ``median * (1 + X)``), clipped to
  ``[MIN_BYTES, MAX_BYTES]``.
  Sizes feed ``sim_bytes`` (the simulated nominal size); the *actual*
  payload bytes come from a small deterministic pool of
  ``actual_bytes``-sized entries, so the eager codec work stays
  wall-clock cheap without changing any simulated number.  Nothing
  memoises it: the gateway runs the real codec on every admitted
  request (``ServeGateway._make_entry`` calls
  :func:`repro.core.codecs.byte_codec` directly), which is why a
  serving benchmark measures codec cost at all.
* **Tenants** — weighted mix of compress and decompress profiles,
  each carrying an optional p99 SLO threshold the bench feeds to the
  :mod:`repro.obs.slo` burn-rate monitor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Generator, NamedTuple

import numpy as np

from repro.algorithms.deflate import deflate_compress
from repro.algorithms.lz4 import lz4_compress
from repro.dpu.specs import Algo, Direction
from repro.serve import ServeRequest

__all__ = [
    "TenantProfile",
    "TrafficConfig",
    "Arrival",
    "TrafficSchedule",
    "build_schedule",
    "traffic_process",
    "DEFAULT_TENANTS",
    "MIN_BYTES",
    "MAX_BYTES",
]

_POOL_SIZE = 4

#: Every drawn request size is clipped to [MIN_BYTES, MAX_BYTES].
MIN_BYTES = 256.0
MAX_BYTES = 4e6


@dataclass(frozen=True)
class TenantProfile:
    """One synthetic client population."""

    name: str
    weight: float = 1.0
    direction: Direction = Direction.COMPRESS
    algo: Algo = Algo.DEFLATE
    size_dist: str = "lognormal"   # "lognormal" | "pareto"
    median_bytes: float = 64e3     # lognormal median / Pareto minimum
    sigma: float = 1.0             # lognormal shape
    pareto_alpha: float = 1.5      # Lomax tail index (lower = heavier)
    slo_p99_s: "float | None" = None

    def __post_init__(self) -> None:
        if self.size_dist not in ("lognormal", "pareto"):
            raise ValueError(f"unknown size_dist {self.size_dist!r}")
        if self.weight <= 0:
            raise ValueError(f"tenant weight {self.weight} must be > 0")


DEFAULT_TENANTS = (
    # Bulk writer: compress-heavy, strongly heavy-tailed object sizes.
    TenantProfile("bulk", weight=2.0, direction=Direction.COMPRESS,
                  size_dist="pareto", median_bytes=32e3, pareto_alpha=1.5,
                  slo_p99_s=0.050),
    # Interactive reader: decompress, tighter lognormal sizes and SLO.
    TenantProfile("reader", weight=3.0, direction=Direction.DECOMPRESS,
                  size_dist="lognormal", median_bytes=16e3, sigma=0.7,
                  slo_p99_s=0.020),
    # Archival restore: rare, large decompress objects.
    TenantProfile("restore", weight=1.0, direction=Direction.DECOMPRESS,
                  size_dist="pareto", median_bytes=128e3, pareto_alpha=1.2,
                  slo_p99_s=0.100),
)


@dataclass(frozen=True)
class TrafficConfig:
    """Shape of one open-loop run."""

    rate_req_s: float
    duration_s: float
    seed: int = 0
    diurnal_amplitude: float = 0.3      # rate swings +-30 % by default
    actual_bytes: int = 1024            # real payload size (wall-clock only)
    tenants: "tuple[TenantProfile, ...]" = DEFAULT_TENANTS

    def __post_init__(self) -> None:
        if self.rate_req_s <= 0:
            raise ValueError(f"rate {self.rate_req_s} must be > 0")
        if self.duration_s <= 0:
            raise ValueError(f"duration {self.duration_s} must be > 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError(
                f"diurnal amplitude {self.diurnal_amplitude} outside [0, 1)"
            )
        if not self.tenants:
            raise ValueError("TrafficConfig needs at least one tenant")


class Arrival(NamedTuple):
    """One precomputed request arrival."""

    t_s: float
    tenant: str
    direction: Direction
    algo: Algo
    sim_bytes: float
    pool_index: int


class TrafficSchedule:
    """A fully materialized arrival sequence plus its payload pools."""

    __slots__ = ("config", "arrivals", "_pools")

    def __init__(self, config: TrafficConfig, arrivals: "list[Arrival]",
                 pools: "dict[tuple[Algo, Direction], tuple[bytes, ...]]",
                 ) -> None:
        self.config = config
        self.arrivals = arrivals
        self._pools = pools

    def __len__(self) -> int:
        return len(self.arrivals)

    def payload(self, arrival: Arrival) -> bytes:
        """The actual bytes the codec will see for this arrival."""
        pool = self._pools[(arrival.algo, arrival.direction)]
        return pool[arrival.pool_index % len(pool)]

    def request(self, arrival: Arrival, req_id: object = None) -> ServeRequest:
        # Positional: one request is built per arrival.
        return ServeRequest(arrival.direction, self.payload(arrival),
                            arrival.sim_bytes, req_id, arrival.tenant,
                            arrival.algo)


@lru_cache(maxsize=32)
def _payload_pool(seed: int, actual_bytes: int, algo: Algo,
                  direction: Direction) -> "tuple[bytes, ...]":
    """A small deterministic pool of real payloads.

    Compress-direction entries are mildly compressible pseudo-random
    bytes; decompress-direction entries are those bytes pre-compressed
    with the tenant's codec (the gateway decompresses eagerly, so the
    input must be a valid stream).  Arrivals cycle through the pool,
    but repeats are not cached: the gateway runs the codec on every
    admitted request, so ``actual_bytes`` sets the wall-clock cost per
    request.
    """
    rng = np.random.default_rng((seed, int(algo_index(algo)), 777))
    pool = []
    for i in range(_POOL_SIZE):
        # Tile a short random motif: repetitive enough to deflate, so
        # decompress-direction streams are shorter than their output.
        motif = rng.integers(0, 256, size=max(64, actual_bytes // 8),
                             dtype=np.uint8).tobytes()
        raw = (motif * (actual_bytes // len(motif) + 1))[:actual_bytes]
        if direction is Direction.COMPRESS:
            pool.append(raw)
        elif algo is Algo.DEFLATE:
            pool.append(bytes(deflate_compress(raw, None)))
        elif algo is Algo.LZ4:
            pool.append(bytes(lz4_compress(raw)))
        else:
            # Fallback for codecs without a direct import here: zlib's
            # raw-DEFLATE is not our container, so just use DEFLATE's.
            pool.append(bytes(deflate_compress(raw, None)))
    return tuple(pool)


def algo_index(algo: Algo) -> int:
    """Stable small integer per algo (seed-mixing helper)."""
    return sorted(a.value for a in Algo).index(algo.value)


def build_schedule(config: TrafficConfig) -> TrafficSchedule:
    """Materialize the whole run's arrivals from the seed.

    Deterministic: a fixed draw order (arrival gaps, thinning accepts,
    tenant choices, sizes — each from the same generator in sequence)
    makes the schedule a pure function of ``config``.
    """
    rng = np.random.default_rng(config.seed)
    peak = config.rate_req_s * (1.0 + config.diurnal_amplitude)

    # Homogeneous candidates at the peak rate, extended until the run
    # window is covered.
    times = np.array([], dtype=np.float64)
    t_end = 0.0
    while t_end < config.duration_s:
        n = int(peak * config.duration_s * 1.25) + 64
        gaps = rng.exponential(1.0 / peak, size=n)
        chunk = t_end + np.cumsum(gaps)
        times = np.concatenate([times, chunk])
        t_end = float(times[-1])
    times = times[times < config.duration_s]

    # Thinning: accept with probability rate(t)/peak, one diurnal
    # cycle per run.
    rate_t = config.rate_req_s * (
        1.0 + config.diurnal_amplitude
        * np.sin(2.0 * math.pi * times / config.duration_s)
    )
    keep = rng.random(len(times)) * peak <= rate_t
    times = times[keep]
    n = len(times)

    weights = np.array([t.weight for t in config.tenants])
    tenant_idx = rng.choice(len(config.tenants), size=n,
                            p=weights / weights.sum())

    # Sizes: draw both families for every arrival (fixed draw count
    # keeps the stream aligned regardless of tenant mix), select per
    # tenant profile, then clip.
    normals = rng.standard_normal(n)
    lomax = rng.pareto(
        np.array([config.tenants[i].pareto_alpha for i in tenant_idx])
    ) if n else np.array([])
    medians = np.array([config.tenants[i].median_bytes for i in tenant_idx])
    sigmas = np.array([config.tenants[i].sigma for i in tenant_idx])
    lognormal_sizes = medians * np.exp(sigmas * normals)
    pareto_sizes = medians * (1.0 + lomax)
    is_pareto = np.array(
        [config.tenants[i].size_dist == "pareto" for i in tenant_idx]
    )
    sizes = np.clip(
        np.where(is_pareto, pareto_sizes, lognormal_sizes),
        MIN_BYTES, MAX_BYTES,
    )

    arrivals = []
    pools: "dict[tuple[Algo, Direction], tuple[bytes, ...]]" = {}
    for i in range(n):
        profile = config.tenants[int(tenant_idx[i])]
        key = (profile.algo, profile.direction)
        if key not in pools:
            pools[key] = _payload_pool(
                config.seed, config.actual_bytes, *key
            )
        arrivals.append(Arrival(
            t_s=float(times[i]),
            tenant=profile.name,
            direction=profile.direction,
            algo=profile.algo,
            sim_bytes=float(sizes[i]),
            pool_index=i,
        ))
    return TrafficSchedule(config, arrivals, pools)


def traffic_process(
    env,
    schedule: TrafficSchedule,
    submit: "Callable[[ServeRequest], object]",
) -> Generator:
    """Sim process: replay ``schedule`` open-loop into ``submit``.

    Open-loop means arrivals never wait for completions — exactly the
    overload regime the admission split exists for.  Returns the list
    of tickets ``submit`` handed back (shed tickets included).
    """
    tickets = []
    for i, arrival in enumerate(schedule.arrivals):
        delay = arrival.t_s - env.now
        if delay > 0.0:
            yield env.timeout(delay)
        tickets.append(submit(schedule.request(arrival, req_id=i)))
    return tickets
