"""The MPI job runtime: ranks, barrier, timing, modes, failures."""

import numpy as np
import pytest

from repro.algorithms.deflate import deflate_compress
from repro.errors import MpiAbortError, SimDeadlockError
from repro.mpi import CommConfig, CommMode, run_mpi
from repro.plan.codecs import CodecConfig


class TestBasics:
    def test_single_rank(self):
        def program(ctx):
            return (ctx.rank, ctx.size)
            yield  # pragma: no cover

        result = run_mpi(program, 1)
        assert result.returns == [(0, 1)]

    def test_rank_identity(self):
        def program(ctx):
            yield ctx.env.timeout(0)
            return ctx.rank

        assert run_mpi(program, 5).returns == [0, 1, 2, 3, 4]

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError):
            run_mpi(lambda ctx: iter(()), 0)

    def test_device_list_length_checked(self, env, bf2):
        with pytest.raises(ValueError):
            run_mpi(lambda ctx: iter(()), 2, devices=[bf2], env=env)

    def test_heterogeneous_cluster(self, env):
        from repro.dpu import make_device

        devices = [make_device(env, "bf2"), make_device(env, "bf3")]

        def program(ctx):
            yield ctx.env.timeout(0)
            return ctx.device.generation

        result = run_mpi(program, 2, devices=devices, env=env)
        assert result.returns == [2, 3]


class TestSendRecv:
    def test_pingpong_roundtrip(self, text_payload):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, text_payload)
                back = yield from ctx.recv(source=1)
                return back == text_payload
            data = yield from ctx.recv(source=0)
            yield from ctx.send(0, data)
            return True

        assert all(run_mpi(program, 2).returns)

    def test_deadlock_detected(self):
        def program(ctx):
            # Everyone receives, nobody sends.
            yield from ctx.recv(source=(ctx.rank + 1) % ctx.size)

        with pytest.raises(SimDeadlockError):
            run_mpi(program, 2)

    def test_abort(self):
        def program(ctx):
            yield ctx.env.timeout(0)
            if ctx.rank == 1:
                ctx.abort("bad input")
            return "ok"

        with pytest.raises(MpiAbortError):
            run_mpi(program, 2)

    def test_wtime_monotonic(self):
        def program(ctx):
            t0 = ctx.wtime()
            yield ctx.env.timeout(1.5)
            return ctx.wtime() - t0

        assert run_mpi(program, 1).returns[0] == pytest.approx(1.5)


class TestBarrier:
    def test_barrier_synchronises(self):
        def program(ctx):
            yield ctx.env.timeout(float(ctx.rank))  # staggered arrival
            yield from ctx.barrier()
            return ctx.wtime()

        result = run_mpi(program, 4)
        assert all(t == pytest.approx(3.0) for t in result.returns)

    def test_barrier_reusable(self):
        def program(ctx):
            times = []
            for round_no in range(3):
                yield ctx.env.timeout(ctx.rank * 0.1 + 0.01)
                yield from ctx.barrier()
                times.append(ctx.wtime())
            return times

        result = run_mpi(program, 3)
        for round_no in range(3):
            marks = {r[round_no] for r in result.returns}
            assert len(marks) == 1  # all ranks agree per round


class TestWireRates:
    """Raw pt2pt over ``run_mpi`` runs at the NIC's link rate: 200 Gb/s
    (25 GB/s) on BF-2, twice that on BF-3.  The actual payload is
    64 KiB; ``sim_bytes`` sets the simulated size."""

    PAYLOAD = b"A" * 65536
    SIZES = [1 << 16, 1 << 20, 1 << 22]

    def _one_way_latency(self, size):
        """Half a ping-pong's round trip."""
        def program(ctx):
            if ctx.rank == 0:
                t0 = ctx.wtime()
                yield from ctx.send(1, self.PAYLOAD, sim_bytes=size)
                yield from ctx.recv(source=1)
                return (ctx.wtime() - t0) / 2
            data = yield from ctx.recv(source=0)
            yield from ctx.send(0, data, sim_bytes=size)
            return None

        return run_mpi(program, 2, "bf2").returns[0]

    def _stream_bandwidth(self, kind, window, size=1 << 24):
        """Bytes per second of ``window`` in-flight isends, then an ack."""
        def program(ctx):
            if ctx.rank == 0:
                t0 = ctx.wtime()
                yield from ctx.waitall([
                    ctx.isend(1, self.PAYLOAD, tag=i, sim_bytes=size)
                    for i in range(window)
                ])
                yield from ctx.recv(source=1, tag=window)
                return window * size / (ctx.wtime() - t0)
            for i in range(window):
                yield from ctx.recv(source=0, tag=i)
            yield from ctx.send(0, b"ack", tag=window)
            return None

        return run_mpi(program, 2, kind).returns[0]

    def test_one_way_latency_approaches_wire_rate(self):
        # 16 MiB over 25 GB/s ~= 671 us plus protocol overheads.
        size = 1 << 24
        assert self._one_way_latency(size) == pytest.approx(size / 25e9,
                                                            rel=0.05)

    def test_latency_grows_with_size(self):
        latencies = [self._one_way_latency(n) for n in self.SIZES]
        assert latencies == sorted(latencies)

    def test_bandwidth_grows_with_size(self):
        bandwidths = [self._stream_bandwidth("bf2", 8, n) for n in self.SIZES]
        assert bandwidths == sorted(bandwidths)

    def test_streamed_bandwidth_saturates_the_link(self):
        assert self._stream_bandwidth("bf2", 16) == pytest.approx(
            25e9, rel=0.05)

    def test_bf3_bandwidth_doubles_bf2(self):
        ratio = (self._stream_bandwidth("bf3", 8)
                 / self._stream_bandwidth("bf2", 8))
        assert ratio == pytest.approx(2.0, rel=0.05)


class TestModes:
    def _pingpong(self, payload, sim_bytes):
        def program(ctx):
            if ctx.rank == 0:
                t0 = ctx.wtime()
                yield from ctx.send(1, payload, sim_bytes=sim_bytes)
                yield from ctx.recv(source=1)
                return (ctx.wtime() - t0) / 2
            data = yield from ctx.recv(source=0)
            yield from ctx.send(0, data, sim_bytes=sim_bytes)
            return None

        return program

    def test_mode_requires_design(self):
        with pytest.raises(ValueError):
            CommConfig(mode=CommMode.PEDAL)

    def test_pedal_init_runs_in_mpi_init(self, text_payload):
        cfg = CommConfig(mode=CommMode.PEDAL, design="C-Engine_DEFLATE")
        result = run_mpi(self._pingpong(text_payload, 1e6), 2, "bf2", cfg)
        assert result.init_seconds > 0.05  # DOCA init + pool prewarm
        assert len(result.init_breakdowns) == 2
        for breakdown in result.init_breakdowns:
            assert breakdown.total() == pytest.approx(result.init_seconds)

    def test_pedal_contexts_are_finalized_when_the_job_ends(self, text_payload):
        """``run_mpi`` closes what ``MPI_Init`` opened: every rank's
        context is torn down (pool drained, session closed) once the
        returns are taken, without moving the job's sim figures."""
        cfg = CommConfig(mode=CommMode.PEDAL, design="C-Engine_DEFLATE")

        def send(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, text_payload, sim_bytes=1e6)
                return None
            data = yield from ctx.recv(source=0)
            return data

        result = run_mpi(send, 2, "bf2", cfg)
        assert result.returns == [None, text_payload]
        for layer in result.layers:
            assert layer.pedal is not None
            assert not layer.pedal.is_initialized
            assert not layer.pedal.session.is_open
        assert result.env.now == result.init_seconds + result.elapsed_seconds

    def test_raw_mode_has_no_init_cost(self, text_payload):
        result = run_mpi(self._pingpong(text_payload, 1e6), 2)
        assert result.init_seconds == 0.0

    def test_ordering_raw_vs_pedal_vs_naive(self, text_payload):
        latencies = {}
        for mode, design in [
            (CommMode.RAW, None),
            (CommMode.PEDAL, "C-Engine_DEFLATE"),
            (CommMode.NAIVE, "C-Engine_DEFLATE"),
        ]:
            cfg = CommConfig(mode=mode, design=design)
            result = run_mpi(self._pingpong(text_payload, 5.1e6), 2, "bf2", cfg)
            latencies[mode] = result.returns[0]
        # For this message size: raw < pedal << naive.
        assert latencies[CommMode.RAW] < latencies[CommMode.PEDAL]
        assert latencies[CommMode.PEDAL] * 10 < latencies[CommMode.NAIVE]

    def test_pedal_passthrough_below_threshold(self):
        small = b"tiny" * 100  # default sim size << rndv threshold

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, small)
                return None
            data = yield from ctx.recv(source=0)
            return data

        cfg = CommConfig(mode=CommMode.PEDAL, design="C-Engine_DEFLATE")
        result = run_mpi(program, 2, "bf2", cfg)
        assert result.returns[1] == small

    def test_ndarray_through_pedal_sz3(self, smooth_field):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, smooth_field, sim_bytes=10e6)
                return None
            data = yield from ctx.recv(source=0)
            return data

        cfg = CommConfig(mode=CommMode.PEDAL, design="SoC_SZ3")
        result = run_mpi(program, 2, "bf2", cfg)
        out = result.returns[1]
        assert isinstance(out, np.ndarray)
        err = np.abs(out.astype(np.float64) - smooth_field.astype(np.float64)).max()
        assert err <= 1e-4 + 1e-6

    def test_compression_layer_accounting(self, text_payload):
        cfg = CommConfig(mode=CommMode.PEDAL, design="SoC_DEFLATE")
        result = run_mpi(self._pingpong(text_payload, 5.1e6), 2, "bf2", cfg)
        assert result.layers[0].compress_seconds > 0
        assert result.layers[0].decompress_seconds > 0  # echo comes back

    def test_job_zero_fills_no_more_scratch_than_its_payload(
            self, binary_payload, scratch_pool):
        """Rank bring-up costs no host scratch: a 4-rank PEDAL broadcast
        zero-fills what compressing its one payload once zero-fills.

        The payload is ~6 600 tokens, so its one DEFLATE block is packed
        through ``write_code_array`` and its scratch; a block of a few
        hundred tokens is packed without any.
        """
        def broadcast(ctx):
            data = binary_payload if ctx.rank == 0 else None
            out = yield from ctx.bcast(data, root=0, sim_bytes=5.1e6)
            return out == binary_payload

        deflate_compress(binary_payload, CodecConfig().deflate)  # not memoised
        once = scratch_pool.stats.zeroed_bytes
        cfg = CommConfig(mode=CommMode.PEDAL, design="SoC_DEFLATE")
        result = run_mpi(broadcast, 4, "bf2", cfg)
        assert all(result.returns)
        assert 0 < scratch_pool.stats.zeroed_bytes - once <= once
