"""SoC, C-Engine, memory model, and device composition."""

import pytest

from repro.dpu import make_device
from repro.dpu.specs import Algo, Direction
from repro.errors import DocaCapabilityError
from repro.plan.charges import job_plan, op_plan
from repro.plan.designs import Placement


class TestMakeDevice:
    @pytest.mark.parametrize("kind,gen", [("bf2", 2), ("BF3", 3), ("BlueField-2", 2)])
    def test_factory(self, env, kind, gen):
        assert make_device(env, kind).generation == gen

    def test_unknown_kind(self, env):
        with pytest.raises(ValueError):
            make_device(env, "bf9")

    def test_repr(self, bf2):
        assert "BlueField-2" in repr(bf2)


class TestSoc:
    def test_run_codec_charges_time(self, env, bf2, run_sim):
        # 25 MB of SoC DEFLATE compression is one second on one core.
        ((_, _, seconds, _, _),) = op_plan(
            bf2, Algo.DEFLATE, Placement.SOC, Direction.COMPRESS, 25e6)
        assert seconds == pytest.approx(1.0)
        run_sim(env, bf2.soc.run(seconds))
        assert env.now == pytest.approx(1.0)
        assert bf2.soc.busy_seconds == pytest.approx(1.0)

    def test_core_contention(self, env, bf2):
        n = bf2.spec.soc.n_cores
        finished = []

        def job(env, soc):
            yield from soc.run(1.0)
            finished.append(env.now)

        for _ in range(n + 1):
            env.process(job(env, bf2.soc))
        env.run()
        # n jobs run in parallel; the extra one waits a full slot.
        assert finished == [1.0] * n + [2.0]

    def test_checksum_time(self, bf2):
        # A job's drain CRC runs at the 10 GB/s SoC checksum rate.
        drain = job_plan(bf2, Algo.DEFLATE, Direction.COMPRESS, 1.0, 10e9)[2]
        assert drain[2] == pytest.approx(1.0)


class TestCEngine:
    def test_supported_job(self, env, bf2, run_sim):
        seconds = run_sim(
            env, bf2.cengine.submit(Algo.DEFLATE, Direction.COMPRESS, int(5.1e6))
        )
        assert seconds > 0
        assert bf2.cengine.jobs_completed == 1

    def test_unsupported_job_rejected(self, env, bf2):
        with pytest.raises(DocaCapabilityError):
            bf2.cengine.job_time(Algo.LZ4, Direction.COMPRESS, 1000)

    def test_bf3_compression_rejected(self, env, bf3):
        with pytest.raises(DocaCapabilityError):
            bf3.cengine.job_time(Algo.DEFLATE, Direction.COMPRESS, 1000)

    def test_single_server_fifo(self, env, bf2):
        done = []

        def job(env, engine, tag):
            yield from engine.submit(Algo.DEFLATE, Direction.COMPRESS, int(29.08e6))
            done.append((tag, env.now))

        env.process(job(env, bf2.cengine, "a"))
        env.process(job(env, bf2.cengine, "b"))
        env.run()
        # Each job takes 0.25 ms + 10 ms; the second queues behind the first.
        assert done[0][0] == "a"
        assert done[1][1] == pytest.approx(2 * done[0][1])

    def test_busy_seconds_accumulates(self, env, bf2, run_sim):
        run_sim(env, bf2.cengine.submit(Algo.DEFLATE, Direction.DECOMPRESS, int(1e6)))
        assert bf2.cengine.busy_seconds > 0


class TestMemoryModel:
    def test_alloc_faster_than_dma_map(self, bf2):
        n = 10 * 1024 * 1024
        assert bf2.memory.alloc_time(n) < bf2.memory.dma_map_time(n)

    def test_doca_prep_includes_fixed_cost(self, bf2):
        small = bf2.memory.doca_buffer_prep_time(0)
        assert small >= bf2.cal.buffer_fixed_time

    def test_prep_scales_with_bytes(self, bf2):
        assert bf2.memory.doca_buffer_prep_time(
            20 * 1024 * 1024
        ) > bf2.memory.doca_buffer_prep_time(1024)

    def test_bf3_memory_faster(self, env):
        bf2 = make_device(env, "bf2")
        bf3 = make_device(env, "bf3")
        n = 50 * 1024 * 1024
        assert bf3.memory.dma_map_time(n) < bf2.memory.dma_map_time(n)
        assert bf3.memory.copy_time(n) < bf2.memory.copy_time(n)
