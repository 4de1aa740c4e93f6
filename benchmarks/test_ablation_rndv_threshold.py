"""Ablation: PEDAL's rendezvous-threshold compression rule (paper §IV).

PEDAL skips compression below the RNDV threshold "due to the latency
overhead of compression and decompression operation, which prevent
compression techniques from benefiting short messages".

An honest finding of this model: on an *unloaded* 200 Gb/s link, raw
transfers beat compressed ones at every size (the C-Engine's ~2.9 GB/s
is an order of magnitude below the wire) — the paper's latency wins are
against its compression-enabled baseline, not against raw MPI.  The
threshold rule still matters: the relative penalty of compressing is
catastrophic for short messages and shrinks steadily with size, which
is exactly the behaviour this sweep quantifies.  Compression *does* win
outright once the payload's wire time exceeds the codec time — e.g. on
slower/contended fabrics — as the reduced-bandwidth sweep at the end
shows.
"""

from repro.datasets import get_dataset
from repro.mpi import CommConfig, CommMode, run_mpi

ACTUAL = 16 * 1024


def _latency(nominal, eager_threshold, device="bf2"):
    payload = get_dataset("silesia/xml").generate(ACTUAL)

    def program(ctx):
        if ctx.rank == 0:
            t0 = ctx.wtime()
            yield from ctx.send(1, payload, sim_bytes=nominal)
            yield from ctx.recv(source=1)
            return (ctx.wtime() - t0) / 2
        data = yield from ctx.recv(source=0)
        yield from ctx.send(0, data, sim_bytes=nominal)
        return None

    cfg = CommConfig(
        mode=CommMode.PEDAL,
        design="C-Engine_DEFLATE",
        eager_threshold=eager_threshold,
    )
    return run_mpi(program, 2, device, cfg).returns[0]


def test_rndv_threshold_rule(benchmark):
    def sweep():
        rows = []
        for nominal in (16e3, 64e3, 256e3, 1e6, 5.1e6, 48.85e6):
            passthrough = _latency(nominal, eager_threshold=2**62)  # never compress
            compressed = _latency(nominal, eager_threshold=0)  # always compress
            rows.append((nominal, passthrough, compressed))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    penalties = [(n, c / p) for n, p, c in rows]

    # The compression penalty is enormous for short messages...
    assert penalties[0][1] > 100
    # ...and decays monotonically with message size...
    factors = [f for _, f in penalties]
    assert factors == sorted(factors, reverse=True)
    # ...but never drops below 1 on this unloaded 200 Gb/s fabric.
    assert factors[-1] > 1.0


def test_compression_wins_on_slow_fabric(benchmark):
    """Shrink the wire to 5 Gb/s: now data reduction pays outright,
    and the threshold rule's crossover appears inside the sweep."""
    from dataclasses import replace

    from repro.dpu import make_device
    from repro.sim import Environment

    def latency(nominal, eager_threshold):
        env = Environment()
        devices = []
        for _ in range(2):
            device = make_device(env, "bf2")
            slow_nic = replace(device.spec.nic, rate_gbps=5.0)
            device.spec = replace(device.spec, nic=slow_nic)
            devices.append(device)
        payload = get_dataset("silesia/xml").generate(ACTUAL)

        def program(ctx):
            if ctx.rank == 0:
                t0 = ctx.wtime()
                yield from ctx.send(1, payload, sim_bytes=nominal)
                yield from ctx.recv(source=1)
                return (ctx.wtime() - t0) / 2
            data = yield from ctx.recv(source=0)
            yield from ctx.send(0, data, sim_bytes=nominal)
            return None

        cfg = CommConfig(
            mode=CommMode.PEDAL,
            design="C-Engine_DEFLATE",
            eager_threshold=eager_threshold,
        )
        return run_mpi(program, 2, devices=devices, env=env, comm_config=cfg).returns[0]

    # Small message: passthrough still wins.
    small_passthrough = benchmark.pedantic(
        latency, args=(64e3, 2**62), rounds=1, iterations=1
    )
    assert small_passthrough < latency(64e3, 0)
    # Large message on the slow wire: compression now wins outright.
    assert latency(48.85e6, 0) < latency(48.85e6, 2**62)
