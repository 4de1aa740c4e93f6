"""Real-codec dispatch and memoisation."""

import ast
import gc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.algorithms.ac import ACConfig
from repro.algorithms.deflate import DeflateConfig, deflate_compress
from repro.algorithms.sz3 import SZ3Config
from repro.dpu.specs import Algo
from repro.errors import CodecError, UnsupportedDataError
from repro.plan import codecs
from repro.plan.codecs import (
    CodecConfig,
    clear_codec_cache,
    real_compress,
    real_decompress,
)
from repro.plan.designs import CompressionDesign, Placement, design


CFG = CodecConfig()


class TestDispatch:
    @pytest.mark.parametrize("label", ["SoC_DEFLATE", "SoC_zlib", "SoC_LZ4"])
    def test_lossless_roundtrip(self, label, text_payload):
        dsg = design(label)
        result = real_compress(dsg, text_payload, CFG)
        data, _stage = real_decompress(dsg.algo, result.payload)
        assert data == text_payload
        assert result.original_bytes == len(text_payload)

    def test_lossless_accepts_ndarray(self):
        arr = np.arange(100, dtype=np.int32)
        result = real_compress(design("SoC_DEFLATE"), arr, CFG)
        data, _ = real_decompress(Algo.DEFLATE, result.payload)
        assert data == arr.tobytes()

    def test_lossless_rejects_other_types(self):
        with pytest.raises(UnsupportedDataError):
            real_compress(design("SoC_DEFLATE"), 12345, CFG)

    def test_sz3_requires_ndarray(self, text_payload):
        with pytest.raises(UnsupportedDataError):
            real_compress(design("SoC_SZ3"), text_payload, CFG)

    def test_zlib_reports_stage_bytes(self, text_payload):
        result = real_compress(design("C-Engine_zlib"), text_payload, CFG)
        assert result.cengine_stage_bytes == len(result.payload) - 6

    def test_sz3_placement_changes_backend(self, smooth_field):
        soc = real_compress(design("SoC_SZ3"), smooth_field, CFG)
        ce = real_compress(design("C-Engine_SZ3"), smooth_field, CFG)
        assert soc.payload[8] != ce.payload[8]  # backend id differs

    def test_sz3_decompress_reports_stage_bytes(self, smooth_field):
        result = real_compress(design("C-Engine_SZ3"), smooth_field, CFG)
        data, stage = real_decompress(Algo.SZ3, result.payload)
        assert stage == result.cengine_stage_bytes
        assert data.shape == smooth_field.shape


class TestMemoisation:
    def test_identical_inputs_share_result(self, text_payload):
        clear_codec_cache()
        a = real_compress(design("SoC_DEFLATE"), text_payload, CFG)
        b = real_compress(design("SoC_DEFLATE"), bytes(text_payload), CFG)
        assert a is b  # same cached object

    def test_different_design_not_shared(self, text_payload):
        a = real_compress(design("SoC_DEFLATE"), text_payload, CFG)
        b = real_compress(design("SoC_LZ4"), text_payload, CFG)
        assert a is not b

    def test_different_data_not_shared(self, text_payload):
        a = real_compress(design("SoC_DEFLATE"), text_payload, CFG)
        b = real_compress(design("SoC_DEFLATE"), text_payload + b"!", CFG)
        assert a is not b

    def test_ndarray_fingerprint_includes_shape(self):
        flat = np.zeros(16, dtype=np.float32)
        square = np.zeros((4, 4), dtype=np.float32)
        a = real_compress(design("SoC_SZ3"), flat, CFG)
        b = real_compress(design("SoC_SZ3"), square, CFG)
        assert a is not b

    def test_ndarray_key_reads_values_not_layout(self):
        """A strided view of an equal array hits the same entry; the same
        bytes under another dtype do not."""
        clear_codec_cache()
        field = np.linspace(0.0, 1.0, 64, dtype=np.float32)
        view = np.repeat(field, 2)[::2]
        assert not view.flags.c_contiguous and np.array_equal(view, field)
        a = real_compress(design("SoC_SZ3"), field, CFG)
        assert real_compress(design("SoC_SZ3"), view, CFG) is a
        ints = field.view(np.int32)
        lossless = design("SoC_DEFLATE")
        assert (real_compress(lossless, ints, CFG)
                is not real_compress(lossless, field, CFG))

    def test_clear_cache(self, text_payload):
        a = real_compress(design("SoC_DEFLATE"), text_payload, CFG)
        clear_codec_cache()
        b = real_compress(design("SoC_DEFLATE"), text_payload, CFG)
        assert a is not b
        assert a.payload == b.payload

    def test_decompress_memoised(self, text_payload):
        result = real_compress(design("SoC_DEFLATE"), text_payload, CFG)
        a = real_decompress(Algo.DEFLATE, result.payload)
        b = real_decompress(Algo.DEFLATE, result.payload)
        assert a is b


class TestMemoKeys:
    """The memo keys a bytes payload by its value and a config by a token
    for its value: equal inputs share one entry, unequal ones never do."""

    def test_bytes_bytearray_and_memoryview_share_one_entry(self, text_payload):
        clear_codec_cache()
        dsg = design("SoC_DEFLATE")
        a = real_compress(dsg, text_payload, CFG)
        assert real_compress(dsg, bytearray(text_payload), CFG) is a
        assert real_compress(dsg, memoryview(text_payload), CFG) is a
        assert len(codecs._COMPRESS_CACHE) == 1
        blob = a.payload
        d = real_decompress(Algo.DEFLATE, blob)
        assert real_decompress(Algo.DEFLATE, bytearray(blob)) is d
        assert real_decompress(Algo.DEFLATE, memoryview(blob)) is d
        assert len(codecs._DECOMPRESS_CACHE) == 1

    def test_bytes_payload_is_its_own_key(self, text_payload):
        """No digest: the key holds the payload, so equality is exact."""
        clear_codec_cache()
        real_compress(design("SoC_LZ4"), text_payload, CFG)
        (key,) = codecs._COMPRESS_CACHE
        assert key[-1] is text_payload

    @pytest.mark.parametrize("config", [
        CodecConfig(deflate=DeflateConfig(strategy="fixed")),
        CodecConfig(sz3=SZ3Config(error_bound=1e-3)),
        CodecConfig(ac=ACConfig(order=1)),
    ], ids=["deflate", "sz3", "ac"])
    def test_configs_that_differ_in_any_field_never_share(self, config, text_payload):
        dsg = design("SoC_DEFLATE")
        default = real_compress(dsg, text_payload, CodecConfig())
        other = real_compress(dsg, text_payload, config)
        assert other is not default
        assert real_compress(dsg, text_payload, CodecConfig()) is default
        assert real_compress(dsg, text_payload, config) is other

    def test_equal_configs_share_entries(self, text_payload):
        dsg = design("SoC_DEFLATE")
        fixed = lambda: CodecConfig(deflate=DeflateConfig(strategy="fixed"))
        assert fixed() is not fixed()
        a = real_compress(dsg, text_payload, fixed())
        assert real_compress(dsg, text_payload, fixed()) is a

    def test_reused_config_id_never_aliases_an_old_entry(self, text_payload):
        """Configs are made, used and dropped one after another, so
        CPython is free to hand a dropped config's id to the next one;
        every result still carries its own config's bytes."""
        clear_codec_cache()
        dsg = design("SoC_DEFLATE")
        for _ in range(3):
            for strategy in ("fixed", "dynamic", "stored"):
                config = CodecConfig(deflate=DeflateConfig(strategy=strategy))
                got = real_compress(dsg, text_payload, config).payload
                assert got == deflate_compress(text_payload, config.deflate)
                del config
                gc.collect()

    def test_many_equal_configs_never_clear_the_memo(self, text_payload):
        """Every PedalContext makes its own CodecConfig: a stream of
        equal configs turns the id table over without dropping a run."""
        clear_codec_cache()
        dsg = design("SoC_LZ4")
        first = real_compress(dsg, text_payload, CodecConfig())
        for _ in range(3 * codecs._CACHE_LIMIT):
            assert real_compress(dsg, text_payload, CodecConfig()) is first
        assert len(codecs._CONFIG_VALUES) == 1

    def test_config_table_stays_bounded(self, text_payload):
        clear_codec_cache()
        dsg = design("SoC_LZ4")
        for i in range(codecs._CACHE_LIMIT + 8):
            config = CodecConfig(sz3=SZ3Config(error_bound=1e-4 * (i + 1)))
            real_compress(dsg, text_payload, config)
            assert len(codecs._CONFIG_TOKENS) <= codecs._CACHE_LIMIT
            assert len(codecs._CONFIG_VALUES) <= codecs._CACHE_LIMIT


class TestCappedDecode:
    """``max_output`` bounds a memo hit exactly as it bounds a cold
    decode, so whether a capped decode fails never depends on what the
    memo holds."""

    @pytest.mark.parametrize("dsg", [
        design("SoC_DEFLATE"), design("SoC_LZ4"), design("SoC_zlib"),
        CompressionDesign(Algo.AC, Placement.SOC),
    ], ids=lambda d: d.algo.value)
    def test_hit_over_the_cap_raises_like_a_cold_decode(self, dsg, text_payload):
        blob = real_compress(dsg, text_payload, CFG).payload
        n = len(text_payload)
        with pytest.raises(CodecError) as cold:
            real_decompress(dsg.algo, blob, max_output=n - 1)
        warm = real_decompress(dsg.algo, blob)
        with pytest.raises(CodecError) as hit:
            real_decompress(dsg.algo, blob, max_output=n - 1)
        assert type(hit.value) is type(cold.value)
        assert real_decompress(dsg.algo, blob, max_output=n) is warm

    def test_a_capped_miss_fills_the_memo(self, text_payload):
        blob = real_compress(design("SoC_DEFLATE"), text_payload, CFG).payload
        capped = real_decompress(Algo.DEFLATE, blob, max_output=len(text_payload))
        assert capped[0] == text_payload
        assert real_decompress(Algo.DEFLATE, blob) is capped

    def test_sz3_takes_no_cap(self, smooth_field):
        blob = real_compress(design("SoC_SZ3"), smooth_field, CFG).payload
        with pytest.raises(ValueError):
            real_decompress(Algo.SZ3, blob, max_output=smooth_field.nbytes)


def _names(path: Path) -> set[str]:
    """Every name a module's code imports, reads or reads an attribute by."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_simulated_ops_get_their_bytes_from_the_memo():
    """Source guard: under ``repro.core``, ``repro.plan`` and
    ``repro.mpi`` every codec call that produces the bytes of a
    simulated op goes through ``real_compress`` / ``real_decompress``.
    Only the memo's own module and the stage-split hybrids it calls may
    name a codec kernel, the ``byte_codec`` choice or the stream
    engine's ``chunk_codec``.
    (``autodesign.estimate_ratio``'s LZ4 block probe sizes a prefix
    sample and ships no bytes, so it is not in the list.)"""
    src = Path(repro.__file__).parent
    banned = {"deflate_compress", "deflate_decompress", "lz4_compress",
              "lz4_decompress", "ac_compress", "ac_decompress", "byte_codec",
              "chunk_codec", "hybrid_zlib_compress", "hybrid_zlib_decompress",
              "hybrid_sz3_compress", "SZ3Compressor"}
    allowed = {"plan/codecs.py", "plan/zlib_hybrid.py", "plan/sz3_hybrid.py",
               "core/sz3_hybrid.py"}  # the last re-exports hybrid_sz3_compress
    checked = set()
    for path in sorted([*src.glob("core/*.py"), *src.glob("plan/*.py"),
                        *src.glob("mpi/*.py")]):
        rel = path.relative_to(src).as_posix()
        if rel in allowed:
            continue
        checked.add(rel)
        hits = _names(path) & banned
        assert not hits, f"{rel} runs a codec past the memo: {sorted(hits)}"
    assert {"core/api.py", "core/baseline.py", "core/parallel.py",
            "plan/charges.py", "mpi/streaming.py",
            "mpi/pedal_integration.py"} <= checked
    assert _names(src / "plan/codecs.py") >= banned - {"chunk_codec"}
