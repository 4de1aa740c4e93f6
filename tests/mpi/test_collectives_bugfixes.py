"""Regression tests for the collectives hot-path bugfix sweep.

Two historical defects pinned here:

* ``bcast(algorithm="auto")`` with no ``sim_bytes`` hint treated the
  payload as zero bytes and *always* picked binomial — long messages
  silently lost the scatter+allgather bandwidth win.  The fix sizes the
  decision from the root's actual payload (shared over a tiny control
  broadcast so every rank agrees and nothing deadlocks).
* ``_split`` with ``parts > len(data)`` produces empty tail chunks;
  that is deliberate and must round-trip losslessly through
  point-to-point, Bcast's scatter and ring, and the PEDAL compression
  shim — and ``parts < 1`` must be rejected rather than return garbage.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.mpi import CommConfig, CommMode, run_mpi
from repro.mpi.collectives import BCAST_LONG_MSG_BYTES, _join, _split


def _bcast_algorithms(program, n, *run_args):
    """Run a program and return {rank: chosen bcast algorithm}."""
    tracer = obs.Tracer()
    prev = obs.set_tracer(tracer)
    try:
        result = run_mpi(program, n, *run_args)
    finally:
        obs.set_tracer(prev)
    algos = {
        span.attrs["rank"]: span.attrs["algorithm"]
        for span in tracer.find("mpi.bcast")
    }
    return result, algos


class TestBcastAutoSizing:
    def test_payload_above_threshold_switches(self):
        """The regression: a long message with no sim_bytes hint must
        pick scatter_allgather from the *actual* payload size (the old
        code sized a missing hint as 0 and always chose binomial)."""
        payload = b"x" * (BCAST_LONG_MSG_BYTES + 1)

        def program(ctx):
            data = payload if ctx.rank == 0 else None
            out = yield from ctx.bcast(data, root=0, algorithm="auto")
            return out == payload

        result, algos = _bcast_algorithms(program, 4)
        assert all(result.returns)  # no deadlock, payload intact
        assert algos == {r: "scatter_allgather" for r in range(4)}

    def test_switchover_pinned_at_threshold(self):
        """Exactly BCAST_LONG_MSG_BYTES stays binomial (strict >)."""
        payload = b"x" * BCAST_LONG_MSG_BYTES

        def program(ctx):
            data = payload if ctx.rank == 0 else None
            out = yield from ctx.bcast(data, root=0, algorithm="auto")
            return out == payload

        result, algos = _bcast_algorithms(program, 4)
        assert all(result.returns)
        assert algos == {r: "binomial" for r in range(4)}

    def test_hint_still_wins_over_payload(self):
        """An explicit sim_bytes hint decides without a control hop —
        even when the actual payload is tiny."""

        def program(ctx):
            data = b"tiny" if ctx.rank == 0 else None
            out = yield from ctx.bcast(
                data, root=0, sim_bytes=float(BCAST_LONG_MSG_BYTES + 1),
                algorithm="auto",
            )
            return out == b"tiny"

        result, algos = _bcast_algorithms(program, 4)
        assert all(result.returns)
        assert algos == {r: "scatter_allgather" for r in range(4)}

    def test_two_rank_communicator_stays_binomial(self):
        """scatter_allgather needs > 2 ranks to pay off."""
        payload = b"x" * (BCAST_LONG_MSG_BYTES * 2)

        def program(ctx):
            data = payload if ctx.rank == 0 else None
            out = yield from ctx.bcast(data, root=0, algorithm="auto")
            return out == payload

        result, algos = _bcast_algorithms(program, 2)
        assert all(result.returns)
        assert algos == {0: "binomial", 1: "binomial"}

    def test_nonzero_root_agrees_everywhere(self):
        payload = b"y" * (BCAST_LONG_MSG_BYTES + 7)

        def program(ctx):
            data = payload if ctx.rank == 2 else None
            out = yield from ctx.bcast(data, root=2, algorithm="auto")
            return out == payload

        result, algos = _bcast_algorithms(program, 5)
        assert all(result.returns)
        assert set(algos.values()) == {"scatter_allgather"}

    def test_ndarray_payload_sized_by_nbytes(self):
        """ndarray sizing must use .nbytes, not len() (element count)."""
        arr = np.zeros(BCAST_LONG_MSG_BYTES // 8 + 1, dtype=np.float64)

        def program(ctx):
            data = arr if ctx.rank == 0 else None
            out = yield from ctx.bcast(data, root=0, algorithm="auto")
            return bool((out == arr).all())

        result, algos = _bcast_algorithms(program, 4)
        assert all(result.returns)
        assert set(algos.values()) == {"scatter_allgather"}

    def test_auto_under_pedal_shim(self):
        """The control broadcast and the data broadcast both survive the
        compression shim."""
        payload = (b"pattern! " * 80000)[: BCAST_LONG_MSG_BYTES + 64]

        def program(ctx):
            data = payload if ctx.rank == 0 else None
            out = yield from ctx.bcast(data, root=0, algorithm="auto")
            return out == payload

        cfg = CommConfig(mode=CommMode.PEDAL, design="C-Engine_DEFLATE")
        result, algos = _bcast_algorithms(program, 4, "bf2", cfg)
        assert all(result.returns)
        assert set(algos.values()) == {"scatter_allgather"}


class TestSplit:
    @pytest.mark.parametrize("parts", [1, 2, 3, 5, 8])
    def test_bytes_roundtrip(self, parts):
        data = bytes(range(97))
        chunks = _split(data, parts)
        assert len(chunks) == parts
        assert _join(chunks) == data

    @pytest.mark.parametrize("parts", [1, 3, 7])
    def test_ndarray_roundtrip(self, parts):
        data = np.arange(50, dtype=np.float32)
        chunks = _split(data, parts)
        assert len(chunks) == parts
        assert (_join(chunks) == data).all()

    def test_more_parts_than_elements_pads_with_empty(self):
        chunks = _split(b"ab", 5)
        assert chunks == [b"a", b"b", b"", b"", b""]
        assert _join(chunks) == b"ab"

    def test_ndarray_empty_tail_chunks(self):
        chunks = _split(np.arange(2, dtype=np.int64), 5)
        assert [len(c) for c in chunks] == [1, 1, 0, 0, 0]
        assert (_join(chunks) == np.arange(2, dtype=np.int64)).all()

    def test_empty_payload_splits_to_all_empty(self):
        assert _split(b"", 4) == [b"", b"", b"", b""]

    @pytest.mark.parametrize("parts", [0, -1])
    def test_nonpositive_parts_rejected(self, parts):
        with pytest.raises(ValueError, match="parts must be >= 1"):
            _split(b"data", parts)


class TestEmptyChunkCollectives:
    """Empty chunks must flow through pt2pt, Bcast and the shim."""

    def test_scatter_empty_chunks(self):
        """A root-side scatter by ``isend`` delivers the empty tail."""

        def program(ctx):
            if ctx.rank == 0:
                chunks = _split(b"ab", ctx.size)
                yield from ctx.waitall(
                    [ctx.isend(dst, chunks[dst]) for dst in range(1, ctx.size)]
                )
                return chunks[0]
            mine = yield from ctx.recv(source=0)
            return mine

        result = run_mpi(program, 4)
        assert result.returns == [b"a", b"b", b"", b""]

    def test_exchange_with_empty_chunks(self):
        def program(ctx):
            # Rank r sends r bytes to everyone — rank 0 sends empties.
            mine = bytes([ctx.rank]) * ctx.rank
            requests = [ctx.isend(peer, mine)
                        for peer in range(ctx.size) if peer != ctx.rank]
            out = []
            for peer in range(ctx.size):
                if peer == ctx.rank:
                    got = mine
                else:
                    got = yield from ctx.recv(source=peer)
                assert got == bytes([peer]) * peer
                out.append(len(got))
            yield from ctx.waitall(requests)
            return out

        result = run_mpi(program, 4)
        assert all(r == [0, 1, 2, 3] for r in result.returns)

    def test_scatter_allgather_bcast_short_payload(self):
        """Forcing the long-message algorithm onto a payload shorter
        than the communicator still round-trips (empty tail chunks)."""

        def program(ctx):
            data = b"ab" if ctx.rank == 0 else None
            out = yield from ctx.bcast(
                data, root=0, algorithm="scatter_allgather"
            )
            return out == b"ab"

        assert all(run_mpi(program, 5).returns)

    def test_empty_chunks_under_pedal_shim(self):
        """Zero-byte messages pass the compression shim unharmed, in
        both Bcast's scatter and its ring."""

        def program(ctx):
            data = b"q" if ctx.rank == 0 else None
            out = yield from ctx.bcast(
                data, root=0, algorithm="scatter_allgather"
            )
            return out

        cfg = CommConfig(mode=CommMode.PEDAL, design="SoC_LZ4")
        result = run_mpi(program, 4, "bf2", cfg)
        assert result.returns == [b"q"] * 4

    def test_zero_byte_engine_billing_is_overhead_only(self, bf2):
        """A zero-byte engine job bills the fixed overhead, nothing
        proportional — the empty-chunk path stays finite and cheap."""
        from repro.dpu.specs import Algo, Direction

        t0 = bf2.cal.cengine_time(Algo.DEFLATE, Direction.COMPRESS, 0.0)
        t1 = bf2.cal.cengine_time(Algo.DEFLATE, Direction.COMPRESS, 1 << 20)
        assert 0.0 < t0 < t1
