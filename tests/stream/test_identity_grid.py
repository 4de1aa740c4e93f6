"""One cross-path identity grid for the RST1 container.

Every producer — one-shot ``stream_compress``, ``Compressor`` fed ragged
slices, ``serve.StreamingSession.compress`` and the frames
``mpi.streaming.stream_send`` ships — must emit the same container at
every (algo, chunk_bytes, payload) point, and every decoder must decode
it.  A gateway session also decodes a container of any algo, whatever
its own: the container's header names the chunk codec.
"""

from __future__ import annotations

import itertools
import os

import numpy as np
import pytest

from repro.dpu import make_device
from repro.dpu.specs import Algo
from repro.mpi import CommConfig, CommMode, run_mpi
from repro.mpi.communicator import ANY_TAG
from repro.mpi.streaming import stream_recv
from repro.plan.codecs import CodecConfig
from repro.plan.designs import CompressionDesign, Placement
from repro.serve import ServeConfig, ServeGateway, StreamingSession
from repro.sim import Environment
from repro.stream import (
    Compressor,
    Decompressor,
    StreamConfig,
    stream_compress,
    stream_decompress,
)

BASE_SEED = int(os.environ.get("REPRO_FUZZ_SEED", "20260806"))
ALGOS = [Algo.DEFLATE, Algo.AC, Algo.LZ4]
CHUNKS = [1, 7, 1024, 4096]  # 4096 is larger than every payload below
SIZES = ["empty", "one byte", "exact multiple", "ragged"]
_SIM_BYTES = 4.0 * 1024 * 1024  # far above the rendezvous threshold


def _payload(size: str, chunk_bytes: int) -> bytes:
    base = 3 * min(chunk_bytes, 1024)
    n = {"empty": 0, "one byte": 1, "exact multiple": base,
         "ragged": base + 5}[size]
    rng = np.random.default_rng(BASE_SEED + n)
    return rng.choice(
        np.frombuffer(b"grid\x00\x00", dtype=np.uint8), size=n
    ).tobytes()


def _session(algo: Algo, chunk_bytes: int):
    env = Environment()
    gateway = ServeGateway(env, [make_device(env, "bf2")],
                           ServeConfig(max_pending=10_000))
    return env, StreamingSession(gateway, algo=algo, chunk_bytes=chunk_bytes)


def _run(env, generator):
    return env.run(until=env.process(generator))


def _ragged_feed(data: bytes, config: StreamConfig) -> bytes:
    comp = Compressor(config)
    out, pos, steps = bytearray(), 0, itertools.cycle((1, 5, 0, 3, 11, 2))
    while pos < len(data):
        step = next(steps)
        out += comp.feed(data[pos:pos + step])
        pos += step
    return bytes(out + comp.flush())


class _Tee:
    """The receive-side frame store of a streamed message, keeping a copy
    of every frame it delivers (``None`` ends the stream)."""

    def __init__(self, store, frames: list) -> None:
        self._store = store
        self._frames = frames

    def get(self):
        event = self._store.get()
        event.callbacks.append(self._keep)
        return event

    def _keep(self, event) -> None:
        if event.value is not None:
            self._frames.append(event.value)


def _mpi(data: bytes, config: StreamConfig) -> "tuple[bytes, bytes]":
    """(the frames ``stream_send`` shipped, joined; what the receiver
    decoded from them)."""
    frames: list[bytes] = []

    def program(ctx):
        if ctx.rank == 0:
            yield from ctx.send(1, data, sim_bytes=_SIM_BYTES)
            return None
        envlp = yield from ctx.comm.recv(ctx.rank, 0, ANY_TAG)
        assert envlp.meta.get("stream")
        envlp.payload = _Tee(envlp.payload, frames)
        return (yield from stream_recv(ctx, envlp))

    result = run_mpi(program, 2, "bf2", CommConfig(
        mode=CommMode.PEDAL, design=CompressionDesign(config.algo, Placement.SOC),
        codecs=config.codecs, streaming=True,
        stream_chunk_bytes=config.chunk_bytes))
    return b"".join(frames), bytes(result.returns[1])


def _sliced(blob: bytes) -> bytes:
    dec = Decompressor()
    out = b"".join(dec.feed(blob[i:i + 7]) for i in range(0, len(blob), 7))
    dec.flush()
    return out


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("chunk_bytes", CHUNKS)
@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.value)
def test_every_producer_emits_one_container(algo, chunk_bytes, size):
    data = _payload(size, chunk_bytes)
    config = StreamConfig(algo=algo, chunk_bytes=chunk_bytes,
                          codecs=CodecConfig())
    env, session = _session(algo, chunk_bytes)
    produced = {
        "one-shot": stream_compress(data, config),
        "ragged feed": _ragged_feed(data, config),
        "StreamingSession": _run(env, session.compress(data)),
    }
    if data:  # an empty message never takes the streaming rendezvous
        produced["stream_send"], received = _mpi(data, config)
        assert received == data
    reference = produced["one-shot"]
    assert {name: blob == reference for name, blob in produced.items()} \
        == dict.fromkeys(produced, True)
    # Every producer's output is this one container; every decoder reads it.
    assert stream_decompress(reference) == data
    assert _sliced(reference) == data
    assert _run(env, session.decompress(reference)) == data


@pytest.mark.parametrize("container_algo", ALGOS, ids=lambda a: a.value)
@pytest.mark.parametrize("session_algo", ALGOS, ids=lambda a: a.value)
def test_session_decodes_any_containers_algo(session_algo, container_algo):
    data = _payload("ragged", 1024)
    blob = stream_compress(
        data, StreamConfig(algo=container_algo, chunk_bytes=1024))
    env, session = _session(session_algo, 1024)
    assert _run(env, session.decompress(blob)) == data
