"""Failure injection: corrupted messages and misuse must fail loudly.

The PEDAL header + per-format checksums are the integrity story of the
wire protocol; these tests flip bits at every layer and assert the
right error class surfaces (never silent corruption).
"""

import numpy as np
import pytest

from repro.core import PedalContext
from repro.dpu import make_device
from repro.errors import (
    ChecksumMismatchError,
    CorruptStreamError,
    HeaderError,
    ReproError,
)
from repro.plan.designs import Placement
from repro.sim import Environment


@pytest.fixture
def ctx(env, bf2, run_sim):
    context = PedalContext(bf2)
    run_sim(env, context.init())
    return context


def _flip(blob: bytes, index: int) -> bytes:
    out = bytearray(blob)
    out[index] ^= 0xFF
    return bytes(out)


class TestWireCorruption:
    def test_corrupt_header_sentinel(self, env, ctx, run_sim, text_payload):
        comp = run_sim(env, ctx.compress(text_payload, "C-Engine_zlib"))
        with pytest.raises(HeaderError):
            run_sim(env, ctx.decompress(_flip(comp.message, 0)))

    def test_corrupt_algo_id(self, env, ctx, run_sim, text_payload):
        comp = run_sim(env, ctx.compress(text_payload, "SoC_DEFLATE"))
        bad = bytearray(comp.message)
        bad[1] = 77  # unknown AlgoID
        with pytest.raises(HeaderError):
            run_sim(env, ctx.decompress(bytes(bad)))

    def test_zlib_payload_bitflip_detected(self, env, ctx, run_sim, text_payload):
        comp = run_sim(env, ctx.compress(text_payload, "C-Engine_zlib"))
        # Flip the adler trailer: checksum must catch it.
        with pytest.raises((ChecksumMismatchError, CorruptStreamError)):
            run_sim(env, ctx.decompress(_flip(comp.message, len(comp.message) - 1)))

    def test_lz4_frame_bitflip_detected(self, env, ctx, run_sim, text_payload):
        comp = run_sim(env, ctx.compress(text_payload, "SoC_LZ4"))
        with pytest.raises((ChecksumMismatchError, CorruptStreamError)):
            run_sim(env, ctx.decompress(_flip(comp.message, len(comp.message) - 2)))

    def test_truncated_message(self, env, ctx, run_sim, text_payload):
        comp = run_sim(env, ctx.compress(text_payload, "SoC_DEFLATE"))
        with pytest.raises(ReproError):
            run_sim(env, ctx.decompress(comp.message[: len(comp.message) // 3]))

    def test_sz3_header_corruption(self, env, ctx, run_sim, smooth_field):
        comp = run_sim(env, ctx.compress(smooth_field, "C-Engine_SZ3"))
        # Corrupt the SZ3R format header (dtype code region).
        with pytest.raises(ReproError):
            run_sim(
                env,
                ctx.decompress(_flip(comp.message, 8), Placement.CENGINE),
            )

    def test_sz3_zstdlite_backend_blob_corruption_detected(
        self, env, ctx, run_sim, smooth_field
    ):
        """The SoC design's zstd-lite backend carries an xxh32 content
        checksum, so blob corruption is caught.  (The C-Engine design's
        raw-DEFLATE backend has no integrity check — as with real
        SZ3-over-DOCA — so only the format headers protect that path.)"""
        comp = run_sim(env, ctx.compress(smooth_field, "SoC_SZ3"))
        with pytest.raises(ReproError):
            run_sim(
                env,
                ctx.decompress(
                    _flip(comp.message, len(comp.message) // 2), Placement.SOC
                ),
            )

    @pytest.mark.parametrize("position", [0.1, 0.5, 0.9])
    def test_deflate_bitflips_never_return_wrong_bytes(
        self, env, ctx, run_sim, text_payload, position
    ):
        """A flipped bit either raises or (rarely, e.g. inside a dynamic
        tree's unused entry) still decodes to the original bytes —
        never silently to different bytes for zlib (checksummed)."""
        comp = run_sim(env, ctx.compress(text_payload, "SoC_zlib"))
        index = 3 + int((len(comp.message) - 4) * position)
        try:
            dec = run_sim(env, ctx.decompress(_flip(comp.message, index)))
        except ReproError:
            return
        assert dec.data == text_payload


class TestMpiLevelCorruption:
    def test_corrupted_wire_payload_fails_at_receiver(self, text_payload):
        """Corruption injected between send and recv surfaces as an
        error in the receiving rank (and aborts the job)."""
        from repro.mpi import CommConfig, CommMode, run_mpi

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, text_payload, sim_bytes=5.1e6)
                return None
            envlp = yield from ctx.comm.recv(ctx.rank, source=0)
            envlp_payload = _flip(envlp.payload, len(envlp.payload) - 1)
            data = yield from ctx.layer.inbound(envlp_payload, envlp.meta)
            return data

        cfg = CommConfig(mode=CommMode.PEDAL, design="C-Engine_zlib")
        with pytest.raises(ReproError):
            run_mpi(program, 2, "bf2", cfg)


class TestResourceMisuse:
    def test_compress_after_finalize(self, env, ctx, run_sim, text_payload):
        from repro.errors import PedalNotInitializedError

        run_sim(env, ctx.finalize())
        with pytest.raises(PedalNotInitializedError):
            run_sim(env, ctx.compress(text_payload, "SoC_DEFLATE"))

    def test_lossy_design_rejects_bytes(self, env, ctx, run_sim, text_payload):
        from repro.errors import UnsupportedDataError

        with pytest.raises(UnsupportedDataError):
            run_sim(env, ctx.compress(text_payload, "SoC_SZ3"))

    def test_lossless_design_accepts_float_arrays_as_bytes(
        self, env, ctx, run_sim, smooth_field
    ):
        comp = run_sim(env, ctx.compress(smooth_field, "SoC_DEFLATE"))
        dec = run_sim(env, ctx.decompress(comp.message, Placement.SOC))
        out = np.frombuffer(dec.data, dtype=np.float32)
        np.testing.assert_array_equal(out, smooth_field)
