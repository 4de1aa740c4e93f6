"""The layer table: which ``repro`` entry points are traced, and how a
traced rep's spans and counters become the per-layer metrics.

Layers are the repo's packages.  ``bench`` is the harness itself: the
root span of a rep plus whatever workload code runs between calls into
the library (rank programs, arrival loops), i.e. the unattributed rest.
"""

from __future__ import annotations

from tracing import (END, FIRST, LAYER, NAME, NIN, NOUT, PARENT, START,
                     Entry, Span, layer_totals, self_times)

__all__ = ["ENTRIES", "LAYERS", "derive", "hottest"]

LAYERS = (
    "algorithms", "core", "select", "doca", "dpu", "sched", "sim", "mpi",
    "serve", "cluster", "stream", "obs", "faults", "util",
)

_A = "repro.algorithms."


def _request_id(_self, request, *_a, **_k):
    return request.req_id


def _batch_id(_self, _worker, batch, *_a, **_k):
    return f"batch:{batch.batch_id}"


ENTRIES: tuple[Entry, ...] = (
    # -- algorithms: the codec kernels' public calls (payload sized) -------
    Entry(_A + "deflate.compress", "deflate_compress", "algorithms", 0),
    Entry(_A + "deflate.decompress", "deflate_decompress", "algorithms", 0),
    Entry(_A + "zlib_format", "zlib_compress", "algorithms", 0),
    Entry(_A + "zlib_format", "zlib_decompress", "algorithms", 0),
    Entry(_A + "lz4.frame", "lz4_compress", "algorithms", 0),
    Entry(_A + "lz4.frame", "lz4_decompress", "algorithms", 0),
    Entry(_A + "ac.codec", "ac_compress", "algorithms", 0),
    Entry(_A + "ac.codec", "ac_decompress", "algorithms", 0),
    Entry(_A + "sz3.compressor", "sz3_compress", "algorithms", 0),
    Entry(_A + "sz3.compressor", "sz3_decompress", "algorithms", 0),
    Entry(_A + "sz3.compressor", "SZ3Compressor.compress", "algorithms", 1),
    Entry(_A + "sz3.compressor", "SZ3Compressor.decompress_stages",
          "algorithms", 0),
    Entry("repro.core.sz3_hybrid", "hybrid_sz3_compress", "algorithms", 0),
    # -- core --------------------------------------------------------------
    Entry("repro.core.codecs", "real_compress", "core"),
    Entry("repro.core.codecs", "real_decompress", "core"),
    Entry("repro.core.api", "PedalContext.init", "core"),
    Entry("repro.core.api", "PedalContext.compress", "core"),
    Entry("repro.core.api", "PedalContext.decompress", "core"),
    Entry("repro.core.api", "PedalContext.finalize", "core"),
    Entry("repro.core.baseline", "NaiveCompressor.compress", "core"),
    Entry("repro.core.baseline", "NaiveCompressor.decompress", "core"),
    Entry("repro.core.parallel", "ParallelCompressor.compress", "core"),
    Entry("repro.core.parallel", "ParallelCompressor.decompress", "core"),
    Entry("repro.core.mempool", "MemoryPool.prewarm", "core"),
    Entry("repro.core.mempool", "MemoryPool.acquire", "core"),
    # -- select ------------------------------------------------------------
    Entry("repro.select.selector", "PathSelector.choose", "select"),
    Entry("repro.select.selector", "PathSelector.crossover_bytes", "select"),
    Entry("repro.select.selector", "PathSelector.job_engine", "select"),
    # -- doca --------------------------------------------------------------
    Entry("repro.doca.sdk", "DocaSession.open", "doca"),
    Entry("repro.doca.sdk", "DocaSession.create_inventory", "doca"),
    Entry("repro.doca.sdk", "DocaSession.submit_many", "doca"),
    Entry("repro.doca.sdk", "DocaSession.close", "doca"),
    Entry("repro.doca.buffers", "BufInventory.map_buffer", "doca"),
    # -- dpu ---------------------------------------------------------------
    Entry("repro.dpu.cengine", "CEngine.submit", "dpu"),
    Entry("repro.dpu.soc", "Soc.run", "dpu"),
    Entry("repro.dpu.device", "make_device", "dpu"),
    # -- sched -------------------------------------------------------------
    Entry("repro.sched.pipeline", "PipelineScheduler.submit", "sched"),
    Entry("repro.sched.pipeline", "PipelineScheduler.submit_many", "sched"),
    Entry("repro.sched.pipeline", "PipelineScheduler._run", "sched"),
    # -- sim ---------------------------------------------------------------
    Entry("repro.sim.engine", "Environment.run", "sim"),
    Entry("repro.sim.engine", "Environment.step", "sim"),
    Entry("repro.sim.engine", "Environment.process", "sim"),
    # -- mpi ---------------------------------------------------------------
    Entry("repro.mpi.runtime", "run_mpi", "mpi"),
    Entry("repro.mpi.runtime", "RankContext.send", "mpi"),
    Entry("repro.mpi.runtime", "RankContext.recv", "mpi"),
    Entry("repro.mpi.runtime", "RankContext.bcast", "mpi"),
    Entry("repro.mpi.runtime", "RankContext.isend", "mpi"),
    Entry("repro.mpi.runtime", "RankContext.waitall", "mpi"),
    Entry("repro.mpi.pedal_integration", "CompressionLayer.mpi_init", "mpi"),
    Entry("repro.mpi.pedal_integration", "CompressionLayer.outbound", "mpi"),
    Entry("repro.mpi.pedal_integration", "CompressionLayer.inbound", "mpi"),
    Entry("repro.mpi.communicator", "Communicator.send", "mpi"),
    Entry("repro.mpi.communicator", "Communicator.recv", "mpi"),
    Entry("repro.mpi.network", "Fabric.transfer", "mpi"),
    Entry("repro.mpi.streaming", "stream_send", "mpi"),
    Entry("repro.mpi.streaming", "stream_recv", "mpi"),
    # -- serve -------------------------------------------------------------
    Entry("repro.serve.gateway", "ServeGateway.submit", "serve", None,
          _request_id),
    Entry("repro.serve.gateway", "ServeGateway.drain", "serve"),
    Entry("repro.serve.gateway", "ServeGateway._dispatch", "serve"),
    Entry("repro.serve.gateway", "ServeGateway._run_batch", "serve", None,
          _batch_id),
    Entry("repro.serve.gateway", "ServeGateway.kill_worker", "serve"),
    Entry("repro.serve.streaming", "StreamingSession.compress", "serve"),
    Entry("repro.serve.streaming", "StreamingSession.decompress", "serve"),
    # -- cluster -----------------------------------------------------------
    Entry("repro.cluster.cluster", "ServeCluster.submit", "cluster", None,
          _request_id),
    Entry("repro.cluster.cluster", "ServeCluster.drain", "cluster"),
    Entry("repro.cluster.cluster", "ServeCluster.kill_worker", "cluster"),
    Entry("repro.cluster.traffic", "build_schedule", "cluster"),
    Entry("repro.cluster.traffic", "traffic_process", "cluster"),
    # -- stream ------------------------------------------------------------
    Entry("repro.stream.api", "Compressor.feed", "stream", 1),
    Entry("repro.stream.api", "Compressor.flush", "stream", 1),
    Entry("repro.stream.api", "Decompressor.feed", "stream", 1),
    Entry("repro.stream.api", "Decompressor.flush", "stream", 1),
    Entry("repro.stream.container", "FrameParser.feed", "stream"),
    Entry("repro.stream.container", "encode_stream_header", "stream"),
    Entry("repro.stream.container", "encode_data_frame", "stream"),
    Entry("repro.stream.container", "encode_end_frame", "stream"),
    # -- obs ---------------------------------------------------------------
    Entry("repro.obs.aggregate", "FleetAggregator.scrape", "obs"),
    Entry("repro.obs.aggregate", "scrape_process", "obs"),
    Entry("repro.obs.slo", "SloMonitor.observe", "obs"),
    # -- faults ------------------------------------------------------------
    Entry("repro.faults.policy", "engine_job_with_retry", "faults"),
    Entry("repro.faults.workers", "worker_kill_process", "faults"),
    # -- util --------------------------------------------------------------
    Entry("repro.util.scratch", "ScratchPool.prewarm", "util"),
    Entry("repro.util.scratch", "ScratchPool.acquire", "util"),
    Entry("repro.util.scratch", "ScratchPool.release", "util"),
    Entry("repro.util.bitio", "BitWriter.write_code_array", "util"),
    Entry("repro.util.checksums", "crc32", "util"),
    Entry("repro.util.checksums", "adler32", "util"),
)

# Span name (module.qualname without the "repro." prefix) -> codec/direction.
_CODEC_OF = {
    "algorithms.deflate.compress.deflate_compress": ("deflate", "compress"),
    "algorithms.deflate.decompress.deflate_decompress": ("deflate", "decompress"),
    "algorithms.zlib_format.zlib_compress": ("zlib", "compress"),
    "algorithms.zlib_format.zlib_decompress": ("zlib", "decompress"),
    "algorithms.lz4.frame.lz4_compress": ("lz4", "compress"),
    "algorithms.lz4.frame.lz4_decompress": ("lz4", "decompress"),
    "algorithms.ac.codec.ac_compress": ("ac", "compress"),
    "algorithms.ac.codec.ac_decompress": ("ac", "decompress"),
    "algorithms.sz3.compressor.sz3_compress": ("sz3", "compress"),
    "algorithms.sz3.compressor.sz3_decompress": ("sz3", "decompress"),
    "algorithms.sz3.compressor.SZ3Compressor.compress": ("sz3", "compress"),
    "algorithms.sz3.compressor.SZ3Compressor.decompress_stages":
        ("sz3", "decompress"),
    "core.sz3_hybrid.hybrid_sz3_compress": ("sz3", "compress"),
}
_SMALL_BLOCK_BYTES = 1024
_FRAMING = ("stream.container.",)


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(spans: "list[Span]", counts: "dict[str, float]",
           rep_wall_s: float) -> "dict[str, float]":
    """Per-layer metrics of one traced rep.

    ``spans`` are the rep's spans (root first); ``counts`` are the
    sim-side and count-type quantities the worker read from the
    library's public counters and objects.  ``bench.*`` metrics that
    need the untraced run are filled in by the caller.
    """
    own = self_times(spans)
    dur = [s[END] - s[START] for s in spans]
    out: dict[str, float] = {}

    totals = layer_totals(spans)
    layer_self = {layer: totals.get(layer, (0.0, 0))[0]
                  for layer in (*LAYERS, "bench")}
    # Inclusive seconds / calls / bytes per span name.
    by_name: dict[str, list] = {}
    # Seconds of outermost codec spans beneath each span (for "excluding
    # the codec" per-request costs).
    codec_under = [0.0] * len(spans)
    codec: dict[tuple[str, str], list] = {}
    small: dict[tuple[str, str], list] = {}
    framing_self = 0.0
    memo_calls = memo_misses = 0
    is_memo = [False] * len(spans)

    for i, span in enumerate(spans):
        layer, name = span[LAYER], span[NAME]
        slot = by_name.setdefault(name, [0.0, 0, 0, 0])
        slot[0] += dur[i]
        slot[1] += 1 if span[FIRST] else 0
        slot[2] += span[NIN]
        slot[3] += span[NOUT]
        if name.startswith(_FRAMING):
            framing_self += own[i]
        if name in ("core.codecs.real_compress", "core.codecs.real_decompress"):
            memo_calls += 1
            is_memo[i] = True
        parent = span[PARENT]
        if layer == "algorithms" and (
            parent < 0 or spans[parent][LAYER] != "algorithms"
        ):
            key = _CODEC_OF.get(name)
            if key is not None:
                raw = span[NIN] if key[1] == "compress" else span[NOUT]
                packed = span[NOUT] if key[1] == "compress" else span[NIN]
                agg = codec.setdefault(key, [0.0, 0, 0, 0])
                agg[0] += dur[i]
                agg[1] += 1
                agg[2] += raw
                agg[3] += packed
                if 0 < raw <= _SMALL_BLOCK_BYTES:
                    sm = small.setdefault(key, [0.0, 0])
                    sm[0] += dur[i]
                    sm[1] += 1
            if parent >= 0 and is_memo[parent]:
                memo_misses += 1
            up = parent
            while up >= 0:
                codec_under[up] += dur[i]
                up = spans[up][PARENT]

    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
        out[f"{layer}.calls"] = float(totals.get(layer, (0.0, 0))[1])
    out["bench.self_s"] = layer_self["bench"]
    out["bench.layers_sum_ratio"] = _div(sum(layer_self.values()), rep_wall_s)

    def mean_s(name: str) -> float:
        slot = by_name.get(name)
        return _div(slot[0], slot[1]) if slot else 0.0

    def total_s(name: str) -> float:
        slot = by_name.get(name)
        return slot[0] if slot else 0.0

    def calls(name: str) -> float:
        slot = by_name.get(name)
        return float(slot[1]) if slot else 0.0

    # -- algorithms ----------------------------------------------------------
    for algo in ("deflate", "zlib", "lz4", "ac", "sz3"):
        comp = codec.get((algo, "compress"), [0.0, 0, 0, 0])
        dec = codec.get((algo, "decompress"), [0.0, 0, 0, 0])
        out[f"algorithms.{algo}.compress_mb_s"] = _div(comp[2] / 1e6, comp[0])
        out[f"algorithms.{algo}.decompress_mb_s"] = _div(dec[2] / 1e6, dec[0])
        out[f"algorithms.{algo}.ratio"] = _div(comp[2], comp[3])
    for algo in ("deflate", "lz4"):
        comp = small.get((algo, "compress"), [0.0, 0])
        dec = small.get((algo, "decompress"), [0.0, 0])
        out[f"algorithms.{algo}.small_compress_us"] = _div(comp[0] * 1e6, comp[1])
        out[f"algorithms.{algo}.small_decompress_us"] = _div(dec[0] * 1e6, dec[1])

    # -- core ------------------------------------------------------------------
    out["core.init_ms"] = mean_s("core.api.PedalContext.init") * 1e3
    out["core.compress_us_per_op"] = mean_s("core.api.PedalContext.compress") * 1e6
    out["core.decompress_us_per_op"] = (
        mean_s("core.api.PedalContext.decompress") * 1e6)
    naive_s = (total_s("core.baseline.NaiveCompressor.compress")
               + total_s("core.baseline.NaiveCompressor.decompress"))
    naive_n = (calls("core.baseline.NaiveCompressor.compress")
               + calls("core.baseline.NaiveCompressor.decompress"))
    out["core.naive_us_per_op"] = _div(naive_s * 1e6, naive_n)
    par_s = (total_s("core.parallel.ParallelCompressor.compress")
             + total_s("core.parallel.ParallelCompressor.decompress"))
    par_n = (calls("core.parallel.ParallelCompressor.compress")
             + calls("core.parallel.ParallelCompressor.decompress"))
    out["core.parallel_ms_per_op"] = _div(par_s * 1e3, par_n)
    out["core.memo_hit_ratio"] = (
        1.0 - _div(memo_misses, memo_calls) if memo_calls else 0.0)

    # -- select / doca / dpu / sched ---------------------------------------------
    out["select.decisions"] = calls("select.selector.PathSelector.choose")
    out["select.us_per_decision"] = (
        mean_s("select.selector.PathSelector.choose") * 1e6)
    out["doca.jobs"] = counts.get("cengine.jobs", 0.0)
    out["doca.sim_init_s"] = counts.get("sim.doca_init_s", 0.0)
    out["doca.sim_buffer_prep_s"] = counts.get("sim.buffer_prep_s", 0.0)
    out["dpu.cengine_sim_busy_s"] = counts.get("dev.cengine_busy_s", 0.0)
    out["dpu.soc_sim_busy_s"] = counts.get("dev.soc_busy_s", 0.0)
    out["dpu.cengine_jobs"] = counts.get("dev.cengine_jobs", 0.0)
    out["dpu.soc_fallbacks"] = (counts.get("pedal.fallback_soc", 0.0)
                                + counts.get("faults.fallbacks", 0.0))
    out["sched.jobs"] = counts.get("sched.jobs", 0.0)
    out["sched.steals"] = counts.get("sched.soc_steals", 0.0)
    out["sched.retries"] = counts.get("sched.retries", 0.0)
    out["sched.sim_queue_wait_s"] = counts.get("cengine.queue_wait_s.sum", 0.0)

    # -- sim -----------------------------------------------------------------
    out["sim.events"] = calls("sim.engine.Environment.step")
    sim_self = layer_self["sim"]
    out["sim.wall_us_per_event"] = _div(sim_self * 1e6, out["sim.events"])
    out["sim.processes"] = calls("sim.engine.Environment.process")

    # -- mpi -----------------------------------------------------------------
    out["mpi.jobs"] = calls("mpi.runtime.run_mpi")
    out["mpi.messages"] = (calls("mpi.communicator.Communicator.send")
                           + calls("mpi.streaming.stream_send"))
    out["mpi.rank_init_ms"] = (
        mean_s("mpi.pedal_integration.CompressionLayer.mpi_init") * 1e3)
    out["mpi.sim_wire_s"] = counts.get("ret.mpi.network.Fabric.transfer", 0.0)
    out["mpi.stream_chunks"] = counts.get("mpi.stream_chunks", 0.0)

    # -- serve / cluster -------------------------------------------------------
    def per_request_us(name: str) -> float:
        total = n = 0.0
        for i, span in enumerate(spans):
            if span[NAME] == name:
                total += dur[i] - codec_under[i]
                n += 1
        return _div(total * 1e6, n)

    out["serve.offered"] = counts.get("serve.offered", 0.0)
    out["serve.completed"] = counts.get("serve.completed", 0.0)
    out["serve.shed"] = counts.get("serve.shed", 0.0)
    out["serve.batches"] = calls("serve.gateway.ServeGateway._run_batch")
    out["serve.mean_batch_msgs"] = _div(
        counts.get("serve.batched_msgs", 0.0), out["serve.batches"])
    out["serve.submit_us_per_request"] = per_request_us(
        "serve.gateway.ServeGateway.submit")
    out["serve.sim_peak_pending"] = counts.get("serve.peak_pending", 0.0)
    out["cluster.offered"] = counts.get("cluster.offered", 0.0)
    out["cluster.shed_global"] = counts.get("cluster.shed_global", 0.0)
    out["cluster.shed_shard"] = counts.get("cluster.shed_shard", 0.0)
    out["cluster.failovers"] = counts.get("cluster.failovers", 0.0)
    out["cluster.sim_recovery_ratio"] = counts.get("cluster.recovery_ratio", 0.0)
    out["cluster.submit_us_per_request"] = per_request_us(
        "cluster.cluster.ServeCluster.submit")

    # -- stream ------------------------------------------------------------------
    feed_c = by_name.get("stream.api.Compressor.feed", [0.0, 0, 0, 0])
    flush_c = by_name.get("stream.api.Compressor.flush", [0.0, 0, 0, 0])
    feed_d = by_name.get("stream.api.Decompressor.feed", [0.0, 0, 0, 0])
    out["stream.compress_mb_s"] = _div(feed_c[2] / 1e6, feed_c[0] + flush_c[0])
    out["stream.decompress_mb_s"] = _div(feed_d[3] / 1e6, feed_d[0])
    out["stream.frames"] = calls("stream.container.encode_data_frame")
    out["stream.framing_self_s"] = framing_self

    # -- obs / faults / util -------------------------------------------------------
    out["obs.spans"] = counts.get("obs.spans", 0.0)
    out["obs.scrapes"] = counts.get("obs.scrapes", 0.0)
    out["obs.slo_alerts"] = counts.get("obs.slo_alerts", 0.0)
    out["faults.kills"] = counts.get("faults.kills", 0.0)
    out["util.scratch_prewarm_ms"] = (
        total_s("util.scratch.ScratchPool.prewarm") * 1e3)
    return out


def hottest(spans: "list[Span]", top: int = 3) -> "list[tuple[str, float]]":
    """The ``top`` span names by self time (README's per-workload findings)."""
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[NAME]] = totals.get(span[NAME], 0.0) + own
    return sorted(totals.items(), key=lambda kv: -kv[1])[:top]
