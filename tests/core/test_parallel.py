"""Parallel chunked compression (paper future-work extension)."""

import pytest

from repro.core.codecs import clear_codec_cache
from repro.core.parallel import ParallelCompressor, ParallelConfig
from repro.dpu import make_device
from repro.errors import CorruptStreamError
from repro.sim import Environment
from repro.stream import FrameParser


class TestRoundtrip:
    @pytest.mark.parametrize("n_chunks", [1, 2, 8, 13])
    def test_roundtrip(self, env, bf2, run_sim, text_payload, n_chunks):
        pc = ParallelCompressor(bf2, ParallelConfig(n_chunks=n_chunks))
        comp = run_sim(env, pc.compress(text_payload))
        dec = run_sim(env, pc.decompress(comp.payload))
        assert dec.payload == text_payload

    def test_empty_payload(self, env, bf2, run_sim):
        pc = ParallelCompressor(bf2, ParallelConfig(n_chunks=4))
        comp = run_sim(env, pc.compress(b""))
        dec = run_sim(env, pc.decompress(comp.payload))
        assert dec.payload == b""

    @pytest.mark.parametrize("data", [b"", b"abc"], ids=["empty", "3-byte"])
    def test_fewer_bytes_than_chunks(self, env, bf2, run_sim, data):
        """Only non-empty chunks are framed and fanned out, both ways."""
        pc = ParallelCompressor(bf2, ParallelConfig(n_chunks=8))
        comp = run_sim(env, pc.compress(data))
        dec = run_sim(env, pc.decompress(comp.payload))
        assert dec.payload == data
        assert comp.chunks_on_engine + comp.chunks_on_soc == len(data)
        assert dec.chunks_on_engine + dec.chunks_on_soc == len(data)
        frames = FrameParser().feed(comp.payload)
        assert [f.raw_len for f in frames[:-1]] == [1] * len(data)

    def test_invalid_chunks(self):
        with pytest.raises(ValueError):
            ParallelConfig(n_chunks=0)

    def test_corrupt_container(self, env, bf2, run_sim):
        pc = ParallelCompressor(bf2)
        with pytest.raises(CorruptStreamError):
            run_sim(env, pc.decompress(b"NOPE" + bytes(16)))

    def test_truncated_container(self, env, bf2, run_sim, text_payload):
        pc = ParallelCompressor(bf2)
        comp = run_sim(env, pc.compress(text_payload))
        with pytest.raises(CorruptStreamError):
            run_sim(env, pc.decompress(comp.payload[: len(comp.payload) // 2]))


class TestRatioTrade:
    def test_chunking_costs_some_ratio(self, env, bf2, run_sim):
        # Realistic corpus: cross-chunk match loss is bounded by the
        # 32 KiB window anyway, so the penalty is modest.
        from repro.datasets import get_dataset

        payload = get_dataset("silesia/samba").generate(64 * 1024)
        one = run_sim(
            env, ParallelCompressor(bf2, ParallelConfig(n_chunks=1)).compress(payload)
        )
        eight = run_sim(
            env, ParallelCompressor(bf2, ParallelConfig(n_chunks=8)).compress(payload)
        )
        assert len(one.payload) <= len(eight.payload) <= len(one.payload) * 1.3


class TestSimulatedSpeedup:
    NOMINAL = 48.85e6

    def _soc_time(self, env, bf2, run_sim, payload, n_chunks):
        cfg = ParallelConfig(n_chunks=n_chunks, use_cengine=False)
        result = run_sim(
            env, ParallelCompressor(bf2, cfg).compress(payload, self.NOMINAL)
        )
        return result.sim_seconds

    def test_near_linear_soc_scaling(self, env, bf2, run_sim, text_payload):
        t1 = self._soc_time(env, bf2, run_sim, text_payload, 1)
        t8 = self._soc_time(env, bf2, run_sim, text_payload, 8)
        assert t1 / t8 == pytest.approx(8.0, rel=0.05)  # 8 cores on BF2

    def test_scaling_saturates_at_core_count(self, env, bf2, run_sim, text_payload):
        t8 = self._soc_time(env, bf2, run_sim, text_payload, 8)
        t32 = self._soc_time(env, bf2, run_sim, text_payload, 32)
        # Beyond 8 chunks the 8-core pool is the limit.
        assert t32 == pytest.approx(t8, rel=0.05)

    def test_engine_assist_beats_soc_only(self, env, bf2, run_sim, text_payload):
        soc_only = self._soc_time(env, bf2, run_sim, text_payload, 8)
        hybrid_cfg = ParallelConfig(n_chunks=8, use_cengine=True)
        hybrid = run_sim(
            env,
            ParallelCompressor(bf2, hybrid_cfg).compress(text_payload, self.NOMINAL),
        )
        assert hybrid.chunks_on_engine >= 1
        assert hybrid.sim_seconds < soc_only

    def test_bf3_compress_cannot_use_engine(self, env, bf3, run_sim, text_payload):
        pc = ParallelCompressor(bf3, ParallelConfig(n_chunks=8, use_cengine=True))
        comp = run_sim(env, pc.compress(text_payload, self.NOMINAL))
        assert comp.chunks_on_engine == 0  # BF3 engine cannot compress
        dec = run_sim(env, pc.decompress(comp.payload, self.NOMINAL))
        assert dec.chunks_on_engine >= 1  # ...but can decompress


class TestDecompressEngineBilling:
    """Regression suite for the decompress billing bug: engine-bound
    chunk jobs used to bill the even *uncompressed* split, but the
    C-Engine ingests the *compressed* stream on the decompress
    direction — the same convention PedalContext and the raw-time bench
    already used.  SoC chunks keep the uncompressed convention (their
    throughputs are calibrated against it)."""

    NOMINAL = 48.85e6
    N = 8

    def _decompress_time(self, device, run_sim, payload):
        env = device.env
        pc = ParallelCompressor(device, ParallelConfig(n_chunks=self.N))
        comp = run_sim(env, pc.compress(payload, self.NOMINAL))
        dec = run_sim(env, pc.decompress(comp.payload, self.NOMINAL))
        assert dec.chunks_on_engine == self.N  # all-engine on the fast lane
        return dec.sim_seconds, comp.payload

    def test_billing_tracks_compressed_bytes(self, bf3, run_sim):
        """Two payloads with identical uncompressed (nominal) size but
        very different ratios must cost the engine differently —
        before the fix both billed the same even uncompressed split."""
        from repro.datasets import get_dataset

        dense = get_dataset("silesia/mozilla").generate(8 * 1024)
        sparse = bytes(8 * 1024)  # zeros: compresses ~100x smaller
        t_dense, c_dense = self._decompress_time(bf3, run_sim, dense)
        t_sparse, c_sparse = self._decompress_time(bf3, run_sim, sparse)
        assert len(c_sparse) < len(c_dense) / 10
        assert t_sparse < t_dense

    def test_engine_exec_matches_compressed_size_model(self, bf3, run_sim):
        """The serial (depth-1) all-engine decompress lane's span must
        match the cost model applied to the scaled compressed chunk
        sizes exactly."""
        from repro.dpu.specs import Algo, Direction

        env = bf3.env
        payload = bytes(range(256)) * 32
        pc = ParallelCompressor(
            bf3, ParallelConfig(n_chunks=self.N, pipeline_depth=1)
        )
        comp = run_sim(env, pc.compress(payload, self.NOMINAL))
        container = comp.payload
        sizes = [len(f.payload) for f in FrameParser().feed(container)
                 if not f.is_end]
        assert len(sizes) == self.N
        scale = self.NOMINAL / len(payload)
        dec = run_sim(env, pc.decompress(container, self.NOMINAL))
        assert dec.chunks_on_engine == self.N
        expected_exec = sum(
            bf3.cal.cengine_time(Algo.DEFLATE, Direction.DECOMPRESS, s * scale)
            for s in sizes
        )
        # Serial lane: total >= pure exec (map/drain add on top), and
        # exec dominates, so the total sits within a small factor.
        assert dec.sim_seconds >= expected_exec
        assert dec.sim_seconds < expected_exec * 2.0


class TestCodecMemo:
    """Chunk bytes come from the real-codec memo: a repeated round trip
    runs the codec once per distinct chunk and direction, and a warm
    memo changes nothing but host time."""

    NOMINAL = 48.85e6

    def test_cold_and_warm_round_trips_agree(self, run_sim, codec_calls):
        from repro.datasets import get_dataset

        # The last four of eight even chunks repeat the first, so the
        # payload holds 4 distinct chunks.
        head = get_dataset("silesia/samba").generate(8 * 1024)
        payload = head + head[:2048] * 4
        chunks = {payload[i:i + 2048] for i in range(0, len(payload), 2048)}
        assert len(chunks) == 4

        def round_trip():
            env = Environment()
            pc = ParallelCompressor(make_device(env, "bf2"),
                                    ParallelConfig(n_chunks=8))
            comp = run_sim(env, pc.compress(payload, self.NOMINAL))
            dec = run_sim(env, pc.decompress(comp.payload, self.NOMINAL))
            return [(r.payload, r.breakdown.as_dict(), r.chunks_on_engine,
                     r.chunks_on_soc) for r in (comp, dec)] + [env.now]

        clear_codec_cache()
        cold = round_trip()
        assert cold == round_trip()
        assert cold[1][0] == payload
        assert codec_calls == {"deflate_compress": len(chunks),
                               "deflate_decompress": len(chunks)}
