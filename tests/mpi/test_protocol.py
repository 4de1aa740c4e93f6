"""Eager/rendezvous selection and the PEDAL compression rule.

Both deciders read the *same* byte domain — the pre-compression
(``sim_uncompressed``) size — so a message is compressed iff it is
rendezvous.  The boundary tests pin the convention at exactly the
threshold and one byte above it, and the communicator tests prove the
protocol choice ignores the post-compression wire size.
"""

import pytest

from repro.dpu import make_device
from repro.errors import MpiConfigError
from repro.mpi.communicator import Communicator
from repro.mpi.network import Fabric
from repro.mpi.pedal_integration import CommConfig
from repro.mpi.protocol import (
    EAGER_THRESHOLD_BYTES,
    Protocol,
    protocol_for,
    should_compress,
)


class TestProtocolSelection:
    def test_small_is_eager(self):
        assert protocol_for(1024) is Protocol.EAGER

    def test_threshold_inclusive_eager(self):
        assert protocol_for(EAGER_THRESHOLD_BYTES) is Protocol.EAGER

    def test_large_is_rendezvous(self):
        assert protocol_for(EAGER_THRESHOLD_BYTES + 1) is Protocol.RENDEZVOUS

    def test_custom_threshold(self):
        assert protocol_for(100, eager_threshold=10) is Protocol.RENDEZVOUS
        assert protocol_for(100, eager_threshold=1000) is Protocol.EAGER


class TestShouldCompress:
    def test_pedal_only_compresses_rendezvous_path(self):
        # Paper §IV: PEDAL operates on RNDV, not Eager.
        assert not should_compress(EAGER_THRESHOLD_BYTES)
        assert should_compress(EAGER_THRESHOLD_BYTES + 1)

    def test_custom_threshold(self):
        assert should_compress(2048, rndv_threshold=1024)
        assert not should_compress(512, rndv_threshold=1024)


class TestDecidersAgreeAtBoundary:
    """The bug this sweep fixed: protocol_for used wire bytes while
    should_compress used sim bytes, so a compressible rendezvous
    message could shrink below the eager threshold and go out eager —
    compressed.  Both deciders now share the pre-compression domain
    and must flip at the same byte."""

    @pytest.mark.parametrize(
        "sim_bytes", [EAGER_THRESHOLD_BYTES, EAGER_THRESHOLD_BYTES + 1]
    )
    def test_compress_iff_rendezvous(self, sim_bytes):
        compressed = should_compress(sim_bytes)
        rendezvous = protocol_for(sim_bytes) is Protocol.RENDEZVOUS
        assert compressed == rendezvous

    @pytest.mark.parametrize("threshold", [0, 1, 1024])
    def test_compress_iff_rendezvous_custom_threshold(self, threshold):
        for sim_bytes in (threshold, threshold + 1):
            assert should_compress(sim_bytes, rndv_threshold=threshold) == (
                protocol_for(sim_bytes, eager_threshold=threshold)
                is Protocol.RENDEZVOUS
            )


class TestProtocolPinnedToPreCompressionSize:
    """Communicator-level: the envelope's protocol follows
    ``meta["sim_uncompressed"]``, not the (possibly much smaller)
    wire size."""

    @pytest.fixture
    def comm(self, env):
        nodes = [make_device(env, "bf2") for _ in range(2)]
        return Communicator(env, nodes, Fabric(env, nodes),
                            EAGER_THRESHOLD_BYTES)

    def _exchange(self, env, comm, wire_bytes, meta):
        box = []

        def sender(env, comm):
            yield from comm.send(0, 1, tag=0, payload="p",
                                 wire_bytes=wire_bytes, meta=meta)

        def receiver(env, comm):
            envlp = yield from comm.recv(1, source=0, tag=0)
            box.append(envlp)

        env.process(sender(env, comm))
        env.process(receiver(env, comm))
        env.run()
        return box[0]

    def test_compressed_message_stays_rendezvous(self, env, comm):
        # 1 MiB message compressed down to 100 wire bytes: still RNDV.
        envlp = self._exchange(
            env, comm, wire_bytes=100.0,
            meta={"sim_uncompressed": 2.0 ** 20, "compressed": True},
        )
        assert envlp.protocol is Protocol.RENDEZVOUS

    def test_exactly_threshold_is_eager(self, env, comm):
        envlp = self._exchange(
            env, comm, wire_bytes=float(EAGER_THRESHOLD_BYTES),
            meta={"sim_uncompressed": float(EAGER_THRESHOLD_BYTES)},
        )
        assert envlp.protocol is Protocol.EAGER

    def test_one_byte_above_threshold_is_rendezvous(self, env, comm):
        envlp = self._exchange(
            env, comm, wire_bytes=float(EAGER_THRESHOLD_BYTES + 1),
            meta={"sim_uncompressed": float(EAGER_THRESHOLD_BYTES + 1)},
        )
        assert envlp.protocol is Protocol.RENDEZVOUS

    def test_bare_send_falls_back_to_wire_bytes(self, env, comm):
        envlp = self._exchange(
            env, comm, wire_bytes=float(EAGER_THRESHOLD_BYTES * 4), meta={}
        )
        assert envlp.protocol is Protocol.RENDEZVOUS


class TestCommConfigValidation:
    """An invalid shim configuration is a construction-time typed
    error, not a misbehaving send."""

    def test_negative_threshold_rejected(self):
        with pytest.raises(MpiConfigError, match="eager_threshold"):
            CommConfig(eager_threshold=-1)

    def test_bad_stream_chunk_bytes_rejected(self):
        with pytest.raises(MpiConfigError, match="stream_chunk_bytes"):
            CommConfig(stream_chunk_bytes=0)

    def test_bad_stream_depth_rejected(self):
        with pytest.raises(MpiConfigError, match="stream_depth"):
            CommConfig(stream_depth=0)

    def test_mpi_config_error_is_typed(self):
        from repro.errors import MpiError

        assert issubclass(MpiConfigError, MpiError)
