"""Design resolution: the paper's Table III per-device placements."""

import pytest

from repro.dpu.specs import Algo, Direction
from repro.plan.designs import design
from repro.plan.registry import cengine_core_algo, resolve


class TestCoreAlgo:
    def test_zlib_and_sz3_submit_deflate(self):
        assert cengine_core_algo(Algo.ZLIB) is Algo.DEFLATE
        assert cengine_core_algo(Algo.SZ3) is Algo.DEFLATE

    def test_deflate_lz4_submit_themselves(self):
        assert cengine_core_algo(Algo.DEFLATE) is Algo.DEFLATE
        assert cengine_core_algo(Algo.LZ4) is Algo.LZ4


class TestSocPlacement:
    @pytest.mark.parametrize(
        "label", ["SoC_DEFLATE", "SoC_zlib", "SoC_LZ4", "SoC_SZ3"]
    )
    def test_soc_designs_never_fall_back(self, bf2, label):
        resolved = resolve(bf2, design(label))
        assert resolved.compress_engine == "soc"
        assert resolved.decompress_engine == "soc"
        assert not resolved.any_fallback


class TestTable3OnBf2:
    """Table III, BF2 column: DEFLATE/zlib/SZ3 engine-capable both ways."""

    @pytest.mark.parametrize("label", ["C-Engine_DEFLATE", "C-Engine_zlib", "C-Engine_SZ3"])
    def test_deflate_class_designs_full_engine(self, bf2, label):
        resolved = resolve(bf2, design(label))
        assert resolved.compress_engine == "cengine"
        assert resolved.decompress_engine == "cengine"
        assert not resolved.any_fallback

    def test_lz4_fully_falls_back(self, bf2):
        resolved = resolve(bf2, design("C-Engine_LZ4"))
        assert resolved.compress_engine == "soc"
        assert resolved.decompress_engine == "soc"
        assert resolved.any_fallback


class TestTable3OnBf3:
    """Table III, BF3 column: decompression only (the paper's asymmetry)."""

    @pytest.mark.parametrize("label", ["C-Engine_DEFLATE", "C-Engine_zlib", "C-Engine_SZ3"])
    def test_compress_falls_back_decompress_does_not(self, bf3, label):
        resolved = resolve(bf3, design(label))
        assert resolved.compress_engine == "soc"
        assert resolved.decompress_engine == "cengine"
        assert resolved.uses_fallback(Direction.COMPRESS)
        assert not resolved.uses_fallback(Direction.DECOMPRESS)

    def test_lz4_decompress_native(self, bf3):
        resolved = resolve(bf3, design("C-Engine_LZ4"))
        assert resolved.compress_engine == "soc"
        assert resolved.decompress_engine == "cengine"

    def test_engine_for_helper(self, bf3):
        resolved = resolve(bf3, design("C-Engine_DEFLATE"))
        assert resolved.engine_for(Direction.COMPRESS) == "soc"
        assert resolved.engine_for(Direction.DECOMPRESS) == "cengine"
