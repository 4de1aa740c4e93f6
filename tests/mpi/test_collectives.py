"""Bcast over the simulated runtime."""

import numpy as np
import pytest

from repro.mpi import CommConfig, CommMode, run_mpi


class TestBcast:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8])
    @pytest.mark.parametrize("root", [0, 1])
    def test_all_ranks_receive(self, n, root):
        if root >= n:
            pytest.skip("root outside communicator")
        payload = b"broadcast me " * 10

        def program(ctx):
            data = payload if ctx.rank == root else None
            out = yield from ctx.bcast(data, root=root)
            return out

        result = run_mpi(program, n)
        assert all(r == payload for r in result.returns)

    def test_ndarray_payload(self):
        arr = np.arange(1000, dtype=np.float64)

        def program(ctx):
            data = arr if ctx.rank == 0 else None
            out = yield from ctx.bcast(data, root=0)
            return float(out.sum())

        result = run_mpi(program, 4)
        assert all(v == pytest.approx(arr.sum()) for v in result.returns)

    def test_binomial_faster_than_linear_chain(self):
        """The tree must finish in O(log p) serialized hops."""
        payload = b"x" * (1 << 20)

        def program(ctx):
            data = payload if ctx.rank == 0 else None
            yield from ctx.bcast(data, root=0)
            return ctx.wtime()

        t8 = max(run_mpi(program, 8).returns)
        t2 = max(run_mpi(program, 2).returns)
        # log2(8)=3 levels; allow generous slack over the 1-level time.
        assert t8 < 4.5 * t2


    @pytest.mark.parametrize("algorithm", ["binomial", "scatter_allgather"])
    def test_time_grows_with_size(self, algorithm):
        def bcast_time(size):
            def program(ctx):
                data = b"A" * 65536 if ctx.rank == 0 else None
                t0 = ctx.wtime()
                yield from ctx.bcast(data, root=0, sim_bytes=size,
                                     algorithm=algorithm)
                return ctx.wtime() - t0

            return max(run_mpi(program, 4).returns)

        times = [bcast_time(n) for n in (1 << 16, 1 << 20, 1 << 22)]
        assert times == sorted(times)

    def test_more_ranks_cost_more(self):
        def program(ctx):
            data = b"A" * 65536 if ctx.rank == 0 else None
            yield from ctx.bcast(data, root=0, sim_bytes=1 << 22)
            return ctx.wtime()

        t8 = max(run_mpi(program, 8).returns)
        t2 = max(run_mpi(program, 2).returns)
        assert t8 > t2


class TestCollectivesWithCompression:
    def test_bcast_under_pedal(self):
        payload = (b"pattern! " * 40000)[: 1 << 18]

        def program(ctx):
            data = payload if ctx.rank == 0 else None
            out = yield from ctx.bcast(data, root=0, sim_bytes=5.1e6)
            return out == payload

        cfg = CommConfig(mode=CommMode.PEDAL, design="C-Engine_DEFLATE")
        result = run_mpi(program, 4, "bf2", cfg)
        assert all(result.returns)

    def test_mixed_sizes_into_one_rank_under_pedal(self):
        """Messages of different sizes from every rank reach one
        receiver intact through the LZ4 shim."""
        def program(ctx):
            if ctx.rank:
                blob = bytes([ctx.rank]) * (200000 + ctx.rank)
                yield from ctx.send(0, blob)
                return None
            sizes = []
            for src in range(1, ctx.size):
                blob = yield from ctx.recv(source=src)
                assert blob == bytes([src]) * (200000 + src)
                sizes.append(len(blob))
            return sizes

        cfg = CommConfig(mode=CommMode.PEDAL, design="SoC_LZ4")
        result = run_mpi(program, 3, "bf2", cfg)
        assert result.returns[0] == [200001, 200002]
