"""TimeBreakdown <-> span round-trips on real PEDAL and naive flows."""

import pytest

from repro.core.api import PedalContext
from repro.core.baseline import NaiveCompressor
from repro.datasets import get_dataset
from repro.dpu.device import make_device
from repro.obs import Tracer, tracing
from repro.plan.designs import design
from repro.sim import Environment, TimeBreakdown


ACTUAL_BYTES = 16 * 1024


def drive(env, generator):
    proc = env.process(generator)
    return env.run(until=proc)


def payload():
    return get_dataset("silesia/xml").generate(ACTUAL_BYTES)


class TestBindForwarding:
    def test_bind_mirrors_add_onto_span(self):
        with tracing() as tr:
            span = tr.span("op")
            with span:
                tb = TimeBreakdown().bind(span)
                tb.add("compression", 1.5)
                tb.add("buffer_prep", 0.5)
                tb.add("compression", 0.25)
        assert span.phases == [
            ("compression", 1.5), ("buffer_prep", 0.5), ("compression", 0.25),
        ]
        rebuilt = TimeBreakdown.from_spans([span])
        assert rebuilt.as_dict() == tb.as_dict()
        assert list(rebuilt.as_dict()) == list(tb.as_dict())  # same order

    def test_bind_null_span_is_noop(self):
        from repro.obs import NULL_SPAN

        tb = TimeBreakdown().bind(NULL_SPAN)
        tb.add("compression", 1.0)
        assert NULL_SPAN.phases == []
        assert tb.get("compression") == 1.0

    def test_merge_does_not_reforward(self):
        """fig7 merges compress+decompress breakdowns after the ops ran;
        the merged charges must not be double-recorded on the span."""
        with tracing() as tr:
            span = tr.span("op")
            with span:
                a = TimeBreakdown().bind(span)
                a.add("compression", 1.0)
            b = TimeBreakdown()
            b.add("decompression", 2.0)
            a.merge(b)
        assert span.phases == [("compression", 1.0)]
        assert a.get("decompression") == 2.0

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            TimeBreakdown().add("compression", -0.1)


class TestPedalRoundtrip:
    def test_from_spans_matches_legacy_exactly(self):
        dsg = design("C-Engine_DEFLATE")
        with tracing() as tr:
            env = Environment()
            device = make_device(env, "bf2")
            ctx = PedalContext(device)
            drive(env, ctx.init())
            comp = drive(env, ctx.compress(payload(), dsg, 1 << 20))
            dec = drive(env, ctx.decompress(comp.message, dsg.placement, 1 << 20))

        comp_root = tr.find("pedal.compress")[0]
        dec_root = tr.find("pedal.decompress")[0]
        rebuilt_comp = TimeBreakdown.from_spans(tr.subtree(comp_root))
        rebuilt_dec = TimeBreakdown.from_spans(tr.subtree(dec_root))
        assert rebuilt_comp.as_dict() == comp.breakdown.as_dict()
        assert rebuilt_dec.as_dict() == dec.breakdown.as_dict()
        # Exact equality, not approx: same floats, same accumulation order.
        assert rebuilt_comp.total() == comp.breakdown.total()

    def test_untraced_run_unchanged(self):
        """The same flow with tracing disabled produces the same breakdown."""
        dsg = design("C-Engine_DEFLATE")

        def run(traced):
            env = Environment()
            device = make_device(env, "bf2")
            ctx = PedalContext(device)
            if traced:
                with tracing():
                    drive(env, ctx.init())
                    comp = drive(env, ctx.compress(payload(), dsg, 1 << 20))
            else:
                drive(env, ctx.init())
                comp = drive(env, ctx.compress(payload(), dsg, 1 << 20))
            return comp.breakdown.as_dict()

        assert run(traced=True) == run(traced=False)


class TestNaiveRoundtrip:
    def test_from_spans_matches_legacy_exactly(self):
        dsg = design("C-Engine_DEFLATE")
        with tracing() as tr:
            env = Environment()
            device = make_device(env, "bf2")
            naive = NaiveCompressor(device)
            comp = drive(env, naive.compress(payload(), dsg, 1 << 20))
            dec = drive(
                env, naive.decompress(comp.message, dsg.placement, 1 << 20)
            )

        comp_root = tr.find("naive.compress")[0]
        dec_root = tr.find("naive.decompress")[0]
        assert (
            TimeBreakdown.from_spans(tr.subtree(comp_root)).as_dict()
            == comp.breakdown.as_dict()
        )
        assert (
            TimeBreakdown.from_spans(tr.subtree(dec_root)).as_dict()
            == dec.breakdown.as_dict()
        )

    def test_naive_trace_contains_per_op_overhead_spans(self):
        dsg = design("C-Engine_DEFLATE")
        with tracing() as tr:
            env = Environment()
            device = make_device(env, "bf2")
            naive = NaiveCompressor(device)
            comp = drive(env, naive.compress(payload(), dsg, 1 << 20))
            drive(env, naive.decompress(comp.message, dsg.placement, 1 << 20))

        # Naive pays DOCA init + buffer prep on every op (Fig. 7).
        assert len(tr.find("doca.init")) == 2
        assert len(tr.find("buffer.prep")) >= 2
        roots = tr.find("naive.compress") + tr.find("naive.decompress")
        for init_span in tr.find("doca.init"):
            assert any(init_span.is_descendant_of(r) for r in roots)
