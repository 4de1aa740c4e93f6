"""Non-blocking operations and the scatter + ring-allgather Bcast."""

import numpy as np
import pytest

from repro.mpi import CommConfig, CommMode, run_mpi


class TestIsendIrecv:
    def test_isend_wait(self, text_payload):
        def program(ctx):
            if ctx.rank == 0:
                req = ctx.isend(1, text_payload)
                yield from req.wait()
                return req.complete
            data = yield from ctx.recv(source=0)
            return data == text_payload

        assert all(run_mpi(program, 2).returns)

    def test_irecv_returns_data(self, text_payload):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, text_payload)
                return None
            req = ctx.irecv(source=0)
            data = yield from req.wait()
            return data == text_payload

        assert run_mpi(program, 2).returns[1]

    def test_overlap_two_inflight_sends(self):
        """Both messages progress concurrently; neither blocks the other."""
        big = b"A" * 200000

        def program(ctx):
            if ctx.rank == 0:
                r1 = ctx.isend(1, big, tag=1)
                r2 = ctx.isend(1, big, tag=2)
                yield from ctx.waitall([r1, r2])
                return ctx.wtime()
            a = yield from ctx.recv(source=0, tag=2)  # out of posting order
            b = yield from ctx.recv(source=0, tag=1)
            return a == big and b == big

        result = run_mpi(program, 2)
        assert result.returns[1] is True

    def test_exchange_pattern_no_deadlock(self):
        """Symmetric exchange: blocking sends would deadlock; isend must not."""
        payload = b"x" * 300000

        def program(ctx):
            peer = 1 - ctx.rank
            req = ctx.isend(peer, payload)
            data = yield from ctx.recv(source=peer)
            yield from req.wait()
            return data == payload

        assert all(run_mpi(program, 2).returns)

    def test_complete_flag_before_and_after(self):
        def program(ctx):
            if ctx.rank == 0:
                req = ctx.isend(1, b"y" * 200000)
                started = req.complete  # not yet (rendezvous pending)
                yield from req.wait()
                return (started, req.complete)
            yield ctx.env.timeout(1.0)
            yield from ctx.recv(source=0)
            return None

        started, finished = run_mpi(program, 2).returns[0]
        assert started is False and finished is True


class TestScatterAllgatherBcast:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("root", [0, 1])
    def test_bytes_payload(self, n, root):
        if root >= n:
            pytest.skip("root outside communicator")
        payload = bytes(range(256)) * 300

        def program(ctx):
            data = payload if ctx.rank == root else None
            out = yield from ctx.bcast(
                data, root=root, algorithm="scatter_allgather"
            )
            return out == payload

        assert all(run_mpi(program, n).returns)

    def test_ndarray_payload(self):
        arr = np.arange(10000, dtype=np.float32)

        def program(ctx):
            data = arr if ctx.rank == 0 else None
            out = yield from ctx.bcast(data, root=0, algorithm="scatter_allgather")
            return bool((out == arr).all())

        assert all(run_mpi(program, 4).returns)

    def test_auto_selects_by_size(self):
        payload = b"b" * 4096

        def program(ctx):
            data = payload if ctx.rank == 0 else None
            # Large nominal size on >2 ranks -> scatter_allgather path.
            out = yield from ctx.bcast(
                data, root=0, sim_bytes=8e6, algorithm="auto"
            )
            return out == payload

        assert all(run_mpi(program, 4).returns)

    def test_unknown_algorithm(self):
        def program(ctx):
            yield from ctx.bcast(b"x", algorithm="magic")

        with pytest.raises(ValueError):
            run_mpi(program, 2)

    def test_under_pedal_compression(self):
        payload = (b"compressible pattern " * 20000)[: 1 << 18]

        def program(ctx):
            data = payload if ctx.rank == 0 else None
            out = yield from ctx.bcast(
                data, root=0, sim_bytes=20.6e6, algorithm="scatter_allgather"
            )
            return out == payload

        cfg = CommConfig(mode=CommMode.PEDAL, design="C-Engine_DEFLATE")
        assert all(run_mpi(program, 4, "bf2", cfg).returns)

    def test_faster_than_binomial_for_large_messages_raw(self):
        payload = b"q" * 65536

        def make(algorithm):
            def program(ctx):
                data = payload if ctx.rank == 0 else None
                yield from ctx.bcast(
                    data, root=0, sim_bytes=48.8e6, algorithm=algorithm
                )
                return ctx.wtime()

            return program

        t_tree = max(run_mpi(make("binomial"), 8).returns)
        t_ring = max(run_mpi(make("scatter_allgather"), 8).returns)
        assert t_ring < t_tree
