"""``stream_paths``: the three streaming implementations on one payload.

``repro.stream`` feed/flush, the MPI streaming rendezvous and
``serve.StreamingSession`` each do real work here and almost none in the
other workloads, and all three must emit byte-identical RST1 containers —
the guard for collapsing them into one engine plus two adapters.  The
streamed MPI jobs run beside their whole-message twins, so ``sim_s``
carries the overlap win exactly.
"""

from __future__ import annotations

from typing import Any

from repro.dpu.device import make_device
from repro.dpu.specs import Algo
from repro.mpi import CommConfig, CommMode, run_mpi
from repro.mpi.communicator import ANY_TAG
from repro.mpi.streaming import stream_recv
from repro.serve import ServeConfig, ServeGateway, StreamingSession
from repro.sim import Environment
from repro.stream import Compressor, Decompressor, StreamConfig

from workloads.base import RepAccount, Workload, device_counts, digest_of

__all__ = ["StreamPaths"]

KIB, MIB = 1024, 1024 * 1024
_DESIGN = "SoC_DEFLATE"
_STREAM_DEPTH = 4


class _TeeStore:
    """Wraps the receive-side frame store of a streamed message and keeps
    a copy of every container frame as it is delivered."""

    def __init__(self, inner: Any, frames: list) -> None:
        self._inner = inner
        self._frames = frames

    def get(self):
        event = self._inner.get()
        event.callbacks.append(self._keep)
        return event

    def _keep(self, event) -> None:
        if event.value is not None:  # None is the end-of-stream sentinel
            self._frames.append(event.value)


class StreamPaths(Workload):
    name = "stream_paths"

    def __init__(self, inputs, quick=False) -> None:
        super().__init__(inputs, quick)
        nbytes, self.chunk = (8 * KIB, 2 * KIB) if quick else (48 * KIB, 8 * KIB)
        # The telemetry stream is bursty: a window's ratio swings 3-40x with
        # where it lands.  So every seed gets the same 1 KiB blocks (the
        # head of the stream) and picks only their order.
        head = inputs.corpus("net_telemetry", nbytes)
        order = inputs.order("stream.blocks", nbytes // KIB)
        self.data = b"".join(head[i * KIB:(i + 1) * KIB] for i in order)
        self.cuts = inputs.ragged_cuts("stream.cuts", nbytes, 9)
        self.nominals = (4 * MIB,) if quick else (4 * MIB, 16 * MIB)

    # -- the three implementations -------------------------------------------

    def _feed_flush(self, algo: Algo) -> tuple[bytes, bytes]:
        comp = Compressor(StreamConfig(algo=algo, chunk_bytes=self.chunk))
        container = bytearray()
        for lo, hi in zip(self.cuts, self.cuts[1:]):
            container += comp.feed(self.data[lo:hi])
        container += comp.flush()
        dec = Decompressor()
        restored = bytearray()
        step = max(1, len(container) // 5)
        for lo in range(0, len(container), step):
            restored += dec.feed(bytes(container[lo:lo + step]))
        dec.flush()
        return bytes(container), bytes(restored)

    def _mpi(self, streaming: bool, nominal: float):
        payload = self.data
        frames: list[bytes] = []

        def program(ctx):
            if ctx.rank == 0:
                t0 = ctx.wtime()
                yield from ctx.send(1, payload, sim_bytes=nominal)
                echo = yield from ctx.recv(source=1)
                return (ctx.wtime() - t0) / 2.0, echo
            if streaming:
                # RankContext.recv with a tee on the frame store, so the
                # container the sender shipped can be compared byte for byte.
                envlp = yield from ctx.comm.recv(ctx.rank, 0, ANY_TAG)
                envlp.payload = _TeeStore(envlp.payload, frames)
                data = yield from stream_recv(ctx, envlp)
            else:
                data = yield from ctx.recv(source=0)
            yield from ctx.send(0, data, sim_bytes=nominal)
            return None, data

        result = run_mpi(program, 2, "bf2", CommConfig(
            mode=CommMode.PEDAL, design=_DESIGN, streaming=streaming,
            stream_chunk_bytes=self.chunk, stream_depth=_STREAM_DEPTH))
        return result, b"".join(frames)

    def _serve(self) -> dict:
        env = Environment()
        gateway = ServeGateway(
            env, [make_device(env, "bf2")],
            ServeConfig(max_pending=4 * (len(self.data) // self.chunk + 1)))
        session = StreamingSession(gateway, Algo.DEFLATE, self.chunk)
        nominal = float(self.nominals[0])
        out: dict = {"env": env, "gateway": gateway}

        def client(env):
            out["container"] = yield from session.compress(self.data, nominal)
            out["restored"] = yield from session.decompress(
                out["container"], nominal)
            yield from gateway.drain()

        env.run(until=env.process(client(env)))
        return out

    def rep(self) -> dict:
        out: dict = {"api": {}, "mpi": []}
        for algo in (Algo.LZ4, Algo.DEFLATE):
            self.mark(f"api:{algo.value}")
            out["api"][algo] = self._feed_flush(algo)
        for nominal in self.nominals:
            for streaming in (False, True):
                self.mark(f"mpi:{nominal}:{'stream' if streaming else 'whole'}")
                out["mpi"].append((streaming, nominal,
                                   *self._mpi(streaming, nominal)))
        self.mark("serve")
        out["serve"] = self._serve()
        return out

    # -- untimed accounting ------------------------------------------------

    def account(self, out: dict) -> RepAccount:
        containers = [c for c, _ in out["api"].values()]
        containers += [c for streaming, _n, _r, c in out["mpi"] if streaming]
        containers.append(out["serve"]["container"])
        results = [r for _s, _n, r, _c in out["mpi"]]
        latency = {(s, n): r.returns[0][0] for s, n, r, _c in out["mpi"]}
        sim = {"sim_s": out["serve"]["env"].now + sum(
            r.init_seconds + r.elapsed_seconds for r in results)}
        for nominal in self.nominals:
            # Reported with the sim metrics; README quotes it per size.
            sim[f"overlap_win_{int(nominal) // MIB}mib"] = (
                latency[(False, nominal)] / latency[(True, nominal)])
        devices = [layer.device for r in results for layer in r.layers]
        devices += [w.device for w in out["serve"]["gateway"].workers]
        return RepAccount(
            ops=2 * len(out["api"]) + 2 * len(out["mpi"]) + 2,
            raw_bytes=len(self.data) * len(containers),
            packed_bytes=sum(len(c) for c in containers),
            digest=digest_of([*containers, *sorted(latency.values())]),
            sim=sim, counts=device_counts(devices))

    def verify(self, out: dict) -> list[str]:
        failures = []
        reference, _ = out["api"][Algo.DEFLATE]
        for algo, (container, restored) in out["api"].items():
            if restored != self.data:
                failures.append(f"stream_paths: feed/flush {algo.value} "
                                "does not decode to the input")
        for streaming, nominal, result, container in out["mpi"]:
            label = f"mpi {'stream' if streaming else 'whole'} @{nominal}"
            if streaming and container != reference:
                failures.append(f"stream_paths: {label} container differs "
                                "from repro.stream's")
            if bytes(result.returns[1][1]) != self.data:
                failures.append(f"stream_paths: {label} receive != send")
            if bytes(result.returns[0][1]) != self.data:
                failures.append(f"stream_paths: {label} echo != send")
        if out["serve"]["container"] != reference:
            failures.append("stream_paths: serve.StreamingSession container "
                            "differs from repro.stream's")
        if out["serve"]["restored"] != self.data:
            failures.append("stream_paths: serve.StreamingSession does not "
                            "decode to the input")
        return failures
