"""``mpi_osu``: OSU-shaped ``run_mpi`` jobs (Fig. 10 / Fig. 11 shapes).

Ping-pong latency sweeps, one windowed ``isend`` bandwidth job and two
4-rank broadcasts, all with repeated payloads (memo hits, like OSU's
constant buffers).  The host work is ``mpi`` + ``sim`` + every rank's
``PedalContext.init`` — whose ``ScratchPool.prewarm`` is ~30 ms per
rank and dominates — while the codecs do next to nothing.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.codecs import CodecConfig, real_compress
from repro.core.designs import design as lookup_design
from repro.datasets import get_dataset
from repro.mpi import CommConfig, CommMode, run_mpi

from workloads.base import (RepAccount, Workload, device_counts, digest_of,
                            sz3_within_bound)

__all__ = ["MpiOsu", "PAPER_CLAIMS"]

KIB, MIB = 1024, 1024 * 1024
_XML, _EXAALT = "silesia/xml", "exaalt-dataset1"

# Held-out paper claims (Fig. 10) evaluated from this workload's jobs.
PAPER_CLAIMS = {
    "fig10_bf2_cengine_deflate_speedup_vs_baseline_128KiB": 88.0,
    "fig10_bf3_soc_latency_reduction_vs_bf2_soc": 0.40,
    "fig10_bf2_sz3_latency_reduction_vs_baseline_10MB": 0.473,
}

_BW_WINDOW = 16
_BCAST_RANKS = 4


def _same(sent: Any, got: Any, hops: int = 1) -> bool:
    """Receive == send (within ``hops`` SZ3 error bounds when lossy)."""
    if isinstance(sent, np.ndarray):
        return sz3_within_bound(sent, got, hops)
    return bytes(got) == sent


class MpiOsu(Workload):
    name = "mpi_osu"

    def __init__(self, inputs, quick=False) -> None:
        super().__init__(inputs, quick)
        nbytes = 2 * KIB if quick else 8 * KIB
        (self.text,) = inputs.windows("mpi.xml", _XML, 256 * KIB, 1, nbytes)
        (self.field,) = inputs.float_windows(
            "mpi.sz3", _EXAALT, 256 * KIB, 1, nbytes // 4)
        xml_nominal = get_dataset(_XML).nominal_bytes
        sz3_nominal = get_dataset(_EXAALT).nominal_bytes
        self.sizes = {
            "deflate": (128 * KIB, 1 * MIB, xml_nominal),
            "sz3": (128 * KIB, sz3_nominal),
        }
        # (kind, mode, design, nominal) ping-pong jobs, in seeded order.
        jobs = []
        for design in ("SoC_DEFLATE", "C-Engine_DEFLATE", "C-Engine_SZ3"):
            algo = "sz3" if design.endswith("SZ3") else "deflate"
            for nominal in self.sizes[algo]:
                jobs.append(("bf2", CommMode.PEDAL, design, nominal))
                if design != "SoC_DEFLATE":
                    jobs.append(("bf2", CommMode.NAIVE, design, nominal))
        for nominal in self.sizes["deflate"][1:]:
            jobs.append(("bf3", CommMode.PEDAL, "SoC_DEFLATE", nominal))
        if quick:
            jobs = jobs[:4]
        self.jobs = [jobs[i] for i in inputs.order("mpi.order", len(jobs))]
        self.bcasts = (("binomial", 1 * MIB),) if quick else (
            ("binomial", 1 * MIB), ("auto", 8 * MIB))

    def _payload(self, design: str) -> Any:
        return self.field if design.endswith("SZ3") else self.text

    # -- the timed body ----------------------------------------------------

    def _pingpong(self, kind, mode, design, nominal):
        payload = self._payload(design)

        def program(ctx):
            if ctx.rank == 0:
                t0 = ctx.wtime()
                yield from ctx.send(1, payload, sim_bytes=nominal)
                echo = yield from ctx.recv(source=1)
                return (ctx.wtime() - t0) / 2.0, echo
            data = yield from ctx.recv(source=0)
            yield from ctx.send(0, data, sim_bytes=nominal)
            return None, data

        return run_mpi(program, 2, kind, CommConfig(mode=mode, design=design))

    def _bandwidth(self):
        payload, nominal = self.text, 1 * MIB

        def program(ctx):
            if ctx.rank == 0:
                t0 = ctx.wtime()
                requests = [ctx.isend(1, payload, tag=i, sim_bytes=nominal)
                            for i in range(_BW_WINDOW)]
                yield from ctx.waitall(requests)
                yield from ctx.recv(source=1, tag=0x5A)  # window ack
                return _BW_WINDOW * nominal / (ctx.wtime() - t0), []
            got = []
            for i in range(_BW_WINDOW):
                got.append((yield from ctx.recv(source=0, tag=i)))
            yield from ctx.send(0, b"ack", tag=0x5A)
            return None, got

        return run_mpi(program, 2, "bf2", CommConfig(
            mode=CommMode.PEDAL, design="C-Engine_DEFLATE"))

    def _bcast(self, algorithm: str, nominal: float):
        payload = self.text

        def program(ctx):
            data = payload if ctx.rank == 0 else None
            t0 = ctx.wtime()
            data = yield from ctx.bcast(
                data, root=0, sim_bytes=nominal, algorithm=algorithm)
            return ctx.wtime() - t0, data

        return run_mpi(program, _BCAST_RANKS, "bf2", CommConfig(
            mode=CommMode.PEDAL, design="C-Engine_DEFLATE"))

    def rep(self) -> dict:
        out: dict = {"pingpong": [], "bcast": []}
        for i, job in enumerate(self.jobs):
            self.mark(i)
            out["pingpong"].append(self._pingpong(*job))
        self.mark("bw")
        out["bw"] = self._bandwidth()
        for algorithm, nominal in self.bcasts:
            self.mark(f"bcast:{algorithm}")
            out["bcast"].append(self._bcast(algorithm, nominal))
        return out

    # -- untimed accounting ------------------------------------------------

    def _results(self, out: dict) -> list:
        return [*out["pingpong"], out["bw"], *out["bcast"]]

    def _paper_rel_err(self, out: dict) -> float:
        latency = {job: res.returns[0][0]
                   for job, res in zip(self.jobs, out["pingpong"])}

        def lat(kind, mode, design, nominal) -> "float | None":
            return latency.get((kind, mode, design, nominal))

        measured: dict[str, float] = {}
        small = self.sizes["deflate"][0]
        pedal = lat("bf2", CommMode.PEDAL, "C-Engine_DEFLATE", small)
        naive = lat("bf2", CommMode.NAIVE, "C-Engine_DEFLATE", small)
        if pedal and naive:
            measured["fig10_bf2_cengine_deflate_speedup_vs_baseline_128KiB"] = (
                naive / pedal)
        reductions = [
            1.0 - lat("bf3", CommMode.PEDAL, "SoC_DEFLATE", n)
            / lat("bf2", CommMode.PEDAL, "SoC_DEFLATE", n)
            for n in self.sizes["deflate"]
            if lat("bf3", CommMode.PEDAL, "SoC_DEFLATE", n)
            and lat("bf2", CommMode.PEDAL, "SoC_DEFLATE", n)]
        if reductions:
            measured["fig10_bf3_soc_latency_reduction_vs_bf2_soc"] = max(reductions)
        full = self.sizes["sz3"][-1]
        pedal = lat("bf2", CommMode.PEDAL, "C-Engine_SZ3", full)
        naive = lat("bf2", CommMode.NAIVE, "C-Engine_SZ3", full)
        if pedal and naive:
            measured["fig10_bf2_sz3_latency_reduction_vs_baseline_10MB"] = (
                1.0 - pedal / naive)
        if not measured:  # the quick size class runs too few jobs
            return 0.0
        return max(abs(value - PAPER_CLAIMS[key]) / PAPER_CLAIMS[key]
                   for key, value in measured.items())

    def account(self, out: dict) -> RepAccount:
        results = self._results(out)
        # Compressed sizes come from the codec memo the jobs just filled.
        codecs = CodecConfig()
        sizes: dict[str, tuple[int, int]] = {}

        def stream_sizes(design: str) -> tuple[int, int]:
            if design not in sizes:
                real = real_compress(
                    lookup_design(design), self._payload(design), codecs)
                sizes[design] = (real.original_bytes, len(real.payload))
            return sizes[design]

        raw = packed = ops = 0
        for (_kind, _mode, design, _n), _res in zip(self.jobs, out["pingpong"]):
            ops += 2
            a, b = stream_sizes(design)
            raw, packed = raw + 2 * a, packed + 2 * b
        a, b = stream_sizes("C-Engine_DEFLATE")
        hops = _BW_WINDOW + (_BCAST_RANKS - 1) * len(out["bcast"])
        ops += hops
        raw, packed = raw + hops * a, packed + hops * b
        timings = [r.returns[0][0] for r in results]
        return RepAccount(
            ops=ops, raw_bytes=raw, packed_bytes=packed,
            digest=digest_of([
                *timings, *(r.init_seconds + r.elapsed_seconds for r in results)]),
            sim={
                "sim_s": sum(r.init_seconds + r.elapsed_seconds for r in results),
                "paper_rel_err": self._paper_rel_err(out),
            },
            counts=device_counts(
                layer.device for r in results for layer in r.layers),
        )

    def verify(self, out: dict) -> list[str]:
        failures = []
        for job, res in zip(self.jobs, out["pingpong"]):
            sent = self._payload(job[2])
            if not _same(sent, res.returns[1][1]):
                failures.append(f"mpi_osu: {job} rank 1 received wrong data")
            if not _same(sent, res.returns[0][1], hops=2):
                failures.append(f"mpi_osu: {job} rank 0 echo differs")
        got = out["bw"].returns[1][1]
        failures += [
            f"mpi_osu: bw message {i} differs"
            for i in range(_BW_WINDOW)
            if i >= len(got) or bytes(got[i]) != self.text]
        for (algorithm, _n), res in zip(self.bcasts, out["bcast"]):
            failures += [
                f"mpi_osu: bcast {algorithm} rank {rank} differs"
                for rank in range(1, _BCAST_RANKS)
                if bytes(res.returns[rank][1]) != self.text]
        return failures
