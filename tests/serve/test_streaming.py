"""StreamingSession: gateway-backed chunked (de)compression.

The session must produce containers byte-identical to the one-shot
:func:`repro.stream.stream_compress` (same codec config) so streams
move freely between the serving plane and the MPI fabric path.  Its
errors on hostile containers are rows of ``tests/stream/test_hostile.py``
and its cross-path identity rows of ``tests/stream/test_identity_grid.py``;
what stays here is what the gateway side alone owns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dpu import make_device
from repro.dpu.specs import Algo
from repro.errors import AdmissionError
from repro.serve import ServeConfig, ServeGateway, StreamingSession
from repro.sim import Environment
from repro.stream import stream_compress, stream_decompress

CHUNK = 1024


def _payload(size: int = 5000, seed: int = 11) -> bytes:
    rng = np.random.default_rng(seed)
    return rng.choice(
        np.frombuffer(b"serve\x00\x00\x00", dtype=np.uint8), size=size
    ).tobytes()


def _run(generator, env):
    proc = env.process(generator)
    return env.run(until=proc)


@pytest.fixture
def gateway():
    env = Environment()
    devices = [make_device(env, kind) for kind in ("bf2", "bf3")]
    return ServeGateway(env, devices, ServeConfig(max_pending=10_000)), env


class TestContainerIdentity:
    @pytest.mark.parametrize("algo", [Algo.DEFLATE, Algo.AC, Algo.LZ4])
    def test_matches_one_shot_stream_compress(self, gateway, algo):
        gw, env = gateway
        session = StreamingSession(gw, algo=algo, chunk_bytes=CHUNK)
        payload = _payload()
        blob = _run(session.compress(payload), env)
        assert blob == stream_compress(payload, session.config)

    def test_mpi_side_can_decode_gateway_container(self, gateway):
        gw, env = gateway
        session = StreamingSession(gw, chunk_bytes=CHUNK)
        payload = _payload(seed=12)
        blob = _run(session.compress(payload), env)
        assert stream_decompress(blob) == payload

    def test_roundtrip_through_gateway_both_ways(self, gateway):
        gw, env = gateway
        session = StreamingSession(gw, algo=Algo.LZ4, chunk_bytes=CHUNK)
        payload = _payload(seed=14)
        blob = _run(session.compress(payload), env)
        assert _run(session.decompress(blob), env) == payload

    def test_empty_payload(self, gateway):
        gw, env = gateway
        session = StreamingSession(gw, chunk_bytes=CHUNK)
        blob = _run(session.compress(b""), env)
        assert blob == stream_compress(b"", session.config)
        assert _run(session.decompress(blob), env) == b""


class TestAdmission:
    def test_shed_chunk_is_an_admission_error(self):
        env = Environment()
        gw = ServeGateway(env, [make_device(env, "bf2")],
                          ServeConfig(max_pending=1))
        session = StreamingSession(gw, chunk_bytes=CHUNK)
        with pytest.raises(AdmissionError):
            _run(session.compress(_payload()), env)
