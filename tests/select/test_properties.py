"""Property-based guarantees of the path selector (hypothesis).

Two contracts from the issue, over sizes in [1 B, 64 MiB]:

* **No regret** — the selector's choice is never beaten by a capable
  path it rejected by more than ``regress.SELECT_TOLERANCE`` (checked
  against the *simulator*, not the model's own numbers).
* **Byte identity** — ``path="auto"`` produces the exact same message
  bytes as every forced path for the lossless designs (routing is a
  latency decision, never a format decision).
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.bench.regress import SELECT_TOLERANCE
from repro.core.api import PedalContext
from repro.dpu import make_device
from repro.dpu.specs import Algo, Direction
from repro.select import ALL_PATHS, PATH_CENGINE, PATH_SOC, PathSelector
from repro.sim import Environment

MAX_BYTES = 64 * 2**20
SIZES = st.integers(min_value=1, max_value=MAX_BYTES)
PAYLOAD = (b"the quick brown fox jumps over the lazy dog. " * 100)[:4096]

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _fresh_context(kind: str):
    env = Environment()
    ctx = PedalContext(make_device(env, kind))
    proc = env.process(ctx.init())
    env.run(until=proc)
    return env, ctx


def _seconds(env, gen) -> float:
    proc = env.process(gen)
    return env.run(until=proc).sim_seconds


@settings(max_examples=15, **_SETTINGS)
@given(n=SIZES, kind=st.sampled_from(["bf2", "bf3"]))
@example(n=6304, kind="bf2")    # just under the BF-2 compress crossover
@example(n=6305, kind="bf2")    # just over it
@example(n=1, kind="bf2")
@example(n=MAX_BYTES, kind="bf3")
def test_auto_never_beaten_beyond_tolerance(n, kind):
    """Simulated auto latency <= best forced latency * (1 + tolerance)."""
    env, ctx = _fresh_context(kind)
    forced = {
        path: _seconds(env, ctx.compress(
            PAYLOAD, Algo.DEFLATE, sim_bytes=float(n), path=path
        ))
        for path in ALL_PATHS
    }
    auto = _seconds(env, ctx.compress(
        PAYLOAD, Algo.DEFLATE, sim_bytes=float(n), path="auto"
    ))
    assert auto <= min(forced.values()) * (1.0 + SELECT_TOLERANCE)


@settings(max_examples=15, **_SETTINGS)
@given(
    n=SIZES,
    algo=st.sampled_from([Algo.DEFLATE, Algo.ZLIB, Algo.LZ4]),
)
def test_auto_bytes_identical_to_every_forced_path(n, algo):
    """The routed path never changes the wire format (lossless)."""
    env, ctx = _fresh_context("bf2")
    messages = {
        path: env.run(until=env.process(ctx.compress(
            PAYLOAD, algo, sim_bytes=float(n), path=path
        ))).message
        for path in ("auto",) + ALL_PATHS
    }
    assert messages["auto"] == messages[PATH_SOC] == messages[PATH_CENGINE]


@settings(max_examples=40, **_SETTINGS)
@given(
    n=SIZES,
    direction=st.sampled_from([Direction.COMPRESS, Direction.DECOMPRESS]),
    algo=st.sampled_from([Algo.DEFLATE, Algo.ZLIB, Algo.LZ4, Algo.SZ3]),
    kind=st.sampled_from(["bf2", "bf3"]),
)
def test_choice_is_argmin_of_corrected_costs(n, direction, algo, kind):
    """The crossover-cache decision equals the direct argmin of the
    plan-sum costs — no rejected capable path is ever cheaper."""
    sel = PathSelector(make_device(Environment(), kind))
    decision = sel.choose(algo, direction, float(n))
    assert decision.predicted_seconds == min(decision.costs.values())
    for path, cost in decision.costs.items():
        assert decision.predicted_seconds <= cost
    # ...and the tie-break is stable: engine on exact ties.
    if PATH_CENGINE in decision.costs and \
            decision.costs[PATH_CENGINE] == decision.costs[PATH_SOC]:
        assert decision.path == PATH_CENGINE


@settings(max_examples=25, **_SETTINGS)
@given(n=SIZES)
def test_bf3_compress_never_routes_to_engine(n):
    """BF-3's C-Engine is decompress-only — auto must never pick it
    for compression, at any size."""
    sel = PathSelector(make_device(Environment(), "bf3"))
    assert sel.choose(Algo.DEFLATE, Direction.COMPRESS, float(n)).path \
        == PATH_SOC
