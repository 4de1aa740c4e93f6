"""Streaming rendezvous: byte identity, overlap wins, and gating.

The streamed path must be invisible to correctness (every payload
decodes byte-identical to the whole-message twin, across designs and
collectives) and visible to the clock (per-chunk codec work overlaps
fabric transfer, so SoC-placement streaming strictly beats the
serialized whole-message path on large messages).
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.datasets import get_dataset
from repro.dpu.specs import Algo
from repro.errors import OutputOverflowError, StreamCorruptError
from repro.mpi import CommConfig, CommMode, run_mpi
from repro.mpi.communicator import ANY_TAG
from repro.mpi.protocol import EAGER_THRESHOLD_BYTES
from repro.mpi.streaming import stream_recv
from repro.plan.codecs import clear_codec_cache
from repro.sim import Event
from repro.stream import STREAM_HEADER_BYTES

SIM_4MIB = 4.0 * 1024 * 1024


def _config(streaming: bool, design: str = "SoC_DEFLATE", **kw) -> CommConfig:
    kw.setdefault("stream_chunk_bytes", 2048)
    kw.setdefault("stream_depth", 4)
    return CommConfig(
        mode=CommMode.PEDAL, design=design, streaming=streaming, **kw
    )


@pytest.fixture(scope="module")
def payload() -> bytes:
    return get_dataset("net_telemetry").generate(16 * 1024)


def _pt2pt(config: CommConfig, payload: bytes, sim_bytes: float):
    """Returns (one-way seconds, received bytes)."""

    def program(ctx):
        if ctx.rank == 0:
            t0 = ctx.wtime()
            yield from ctx.send(1, payload, sim_bytes=sim_bytes)
            yield from ctx.recv(source=1)
            return ctx.wtime() - t0
        data = yield from ctx.recv(source=0)
        yield from ctx.send(0, data, sim_bytes=sim_bytes)
        return bytes(data)

    result = run_mpi(program, 2, "bf2", config)
    return result.returns[0], result.returns[1]


class TestByteIdentity:
    @pytest.mark.parametrize(
        "design", ["SoC_DEFLATE", "C-Engine_DEFLATE", "SoC_LZ4"]
    )
    def test_streamed_equals_whole(self, payload, design):
        _, streamed = _pt2pt(_config(True, design), payload, SIM_4MIB)
        _, whole = _pt2pt(_config(False, design), payload, SIM_4MIB)
        assert streamed == whole == payload

    def test_streamed_across_chunk_sizes(self, payload):
        for chunk_bytes in (333, 4096, len(payload) + 1):
            cfg = _config(True, stream_chunk_bytes=chunk_bytes)
            _, got = _pt2pt(cfg, payload, SIM_4MIB)
            assert got == payload

    def test_bcast_streamed_identical(self, payload):
        def program(ctx):
            data = payload if ctx.rank == 0 else None
            data = yield from ctx.bcast(data, root=0, sim_bytes=SIM_4MIB)
            return bytes(data) == payload

        result = run_mpi(program, 4, "bf2", _config(True))
        assert all(result.returns)

    def test_irecv_of_streamed_message(self, payload):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, payload, sim_bytes=SIM_4MIB)
                return True
            req = ctx.irecv(source=0)
            (data,) = yield from ctx.waitall([req])
            return bytes(data) == payload

        result = run_mpi(program, 2, "bf2", _config(True))
        assert all(result.returns)


class TestOverlapWins:
    def test_soc_streaming_beats_whole_message(self, payload):
        streamed_t, _ = _pt2pt(_config(True), payload, SIM_4MIB)
        whole_t, _ = _pt2pt(_config(False), payload, SIM_4MIB)
        assert streamed_t < whole_t

    def test_win_grows_with_message_size(self, payload):
        ratios = []
        for sim_mb in (1.0, 16.0):
            sim = sim_mb * 1024 * 1024
            streamed_t, _ = _pt2pt(_config(True), payload, sim)
            whole_t, _ = _pt2pt(_config(False), payload, sim)
            ratios.append(whole_t / streamed_t)
        assert ratios[-1] >= ratios[0] * 0.999  # monotone (within noise)
        assert ratios[-1] > 1.0

    def test_layer_counters_updated(self, payload):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, payload, sim_bytes=SIM_4MIB)
            else:
                yield from ctx.recv(source=0)

        result = run_mpi(program, 2, "bf2", _config(True))
        assert result.layers[0].compress_seconds > 0
        assert result.layers[1].decompress_seconds > 0


class TestGating:
    """wants_stream: streaming applies only where it is well-defined —
    PEDAL mode, a streamable single-stage codec, bytes payloads above
    the compress threshold."""

    def _wants(self, config: CommConfig, data, sim_bytes: float) -> bool:
        from repro.mpi import streaming

        def program(ctx):
            yield ctx.env.timeout(0)
            return streaming.wants_stream(ctx.layer, data, sim_bytes)

        return run_mpi(program, 1, "bf2", config).returns[0]

    def test_streams_above_threshold(self, payload):
        assert self._wants(_config(True), payload, SIM_4MIB)

    def test_disabled_by_default(self, payload):
        assert not self._wants(_config(False), payload, SIM_4MIB)

    def test_raw_mode_never_streams(self, payload):
        cfg = CommConfig(streaming=True, stream_chunk_bytes=2048)
        assert not self._wants(cfg, payload, SIM_4MIB)

    def test_below_threshold_stays_whole(self, payload):
        assert not self._wants(
            _config(True), payload, float(EAGER_THRESHOLD_BYTES)
        )

    def test_lossy_design_stays_whole(self, payload):
        assert not self._wants(
            _config(True, design="C-Engine_SZ3"), payload, SIM_4MIB
        )

    def test_non_bytes_payload_stays_whole(self):
        arr = np.zeros(1024, dtype=np.float32)
        assert not self._wants(_config(True), arr, SIM_4MIB)

    def test_empty_payload_stays_whole(self):
        assert not self._wants(_config(True), b"", SIM_4MIB)

    def test_small_messages_still_roundtrip_with_streaming_enabled(self):
        small = b"tiny message"

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, small, sim_bytes=256.0)
                return True
            data = yield from ctx.recv(source=0)
            return bytes(data) == small

        result = run_mpi(program, 2, "bf2", _config(True))
        assert all(result.returns)


class TestStreamedAlgos:
    @pytest.mark.parametrize("design", ["SoC_LZ4", "C-Engine_LZ4"])
    def test_lz4_designs_stream(self, payload, design):
        from repro.mpi import streaming

        def program(ctx):
            yield ctx.env.timeout(0)
            cfg = ctx.layer.config
            dsg = cfg.resolved_design()
            assert dsg.algo is Algo.LZ4
            return streaming.wants_stream(ctx.layer, payload, SIM_4MIB)

        assert run_mpi(program, 1, "bf2", _config(True, design)).returns[0]


class _Frames:
    """The receive-side frame store of a streamed message, passing every
    frame through ``edit`` and keeping what it delivers (``None`` ends
    the stream)."""

    def __init__(self, store, edit=lambda frame: frame) -> None:
        self._store = store
        self._edit = edit
        self.delivered: list[bytes] = []

    def get(self):
        got = self._store.get()
        passed = Event(got.env)
        got.callbacks.append(lambda event: passed.succeed(self._pass(event.value)))
        return passed

    def _pass(self, frame):
        if frame is not None:
            frame = self._edit(frame)
            self.delivered.append(frame)
        return frame


def _echo(config: CommConfig, payload: bytes, edit=lambda frame: frame):
    """Rank 0 streams ``payload`` to rank 1, which echoes it back.
    Returns (the job result, the frames rank 1 received)."""
    seen: list[_Frames] = []

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, payload, sim_bytes=SIM_4MIB)
            return bytes((yield from ctx.recv(source=1)))
        envlp = yield from ctx.comm.recv(ctx.rank, 0, ANY_TAG)
        envlp.payload = _Frames(envlp.payload, edit)
        seen.append(envlp.payload)
        data = yield from stream_recv(ctx, envlp)
        yield from ctx.send(0, data, sim_bytes=SIM_4MIB)
        return bytes(data)

    result = run_mpi(program, 2, "bf2", config)
    return result, seen[0].delivered


class TestCodecMemo:
    """Streamed chunks get their bytes from the real-codec memo: an
    echoed message re-sends chunks the memo already holds, and a warm
    memo changes nothing but host time."""

    @pytest.mark.parametrize("design, compress, decompress", [
        ("SoC_DEFLATE", "deflate_compress", "deflate_decompress"),
        ("C-Engine_DEFLATE", "deflate_compress", "deflate_decompress"),
        ("SoC_LZ4", "lz4_compress", "lz4_decompress"),
    ])
    def test_cold_and_warm_runs_agree(self, payload, codec_calls, design,
                                      compress, decompress):
        config = _config(True, design)

        def observed():
            result, frames = _echo(config, payload)
            return {
                "delivered": result.returns,
                "sim_s": (result.init_seconds, result.elapsed_seconds),
                "init": [b.as_dict() for b in result.init_breakdowns],
                "codec_s": [(layer.compress_seconds, layer.decompress_seconds)
                            for layer in result.layers],
                "frames": frames,
            }

        clear_codec_cache()
        cold = observed()
        warm = observed()
        assert cold == warm
        assert cold["delivered"] == [payload, payload]
        assert len(cold["frames"]) == 8
        # Once per distinct chunk and direction across two jobs of two
        # streamed messages each.
        chunks = {payload[i:i + 2048] for i in range(0, len(payload), 2048)}
        assert codec_calls == {compress: len(chunks), decompress: len(chunks)}

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_understated_raw_len_is_a_corrupt_stream(self, payload, warm):
        """A frame declaring one byte fewer than its chunk decodes must
        fail as a corrupt stream, the codec stopped at the cap, whether
        or not the memo already holds the full chunk."""
        config = _config(True)
        if warm:
            _echo(config, payload)  # the honest message fills the memo
        raw_len = STREAM_HEADER_BYTES + 5  # first data frame's raw_len field

        def understate(frame: bytes) -> bytes:
            if not frame.startswith(b"RST1"):
                return frame
            out = bytearray(frame)
            (declared,) = struct.unpack_from("<I", out, raw_len)
            struct.pack_into("<I", out, raw_len, declared - 1)
            return bytes(out)

        with pytest.raises(StreamCorruptError) as info:
            _echo(config, payload, understate)
        assert isinstance(info.value.__cause__, OutputOverflowError)
