"""The eight designs and the 3-byte PEDAL header."""

import pytest

from repro.dpu.specs import Algo
from repro.errors import HeaderError, UnknownDesignError
from repro.plan.designs import (
    ALGO_IDS,
    ALL_DESIGNS,
    LOSSLESS_DESIGNS,
    LOSSY_DESIGNS,
    CompressionDesign,
    Placement,
    design,
)
from repro.plan.header import HEADER_SIZE, PedalHeader


class TestDesigns:
    def test_exactly_eight_designs(self):
        # Paper §III-B: "up to eight compression designs".
        assert len(ALL_DESIGNS) == 8
        assert len(LOSSLESS_DESIGNS) == 6
        assert len(LOSSY_DESIGNS) == 2

    def test_labels_match_figure_legends(self):
        labels = {d.label for d in ALL_DESIGNS}
        assert labels == {
            "SoC_DEFLATE", "C-Engine_DEFLATE",
            "SoC_LZ4", "C-Engine_LZ4",
            "SoC_zlib", "C-Engine_zlib",
            "SoC_SZ3", "C-Engine_SZ3",
        }

    def test_lookup_by_label_case_insensitive(self):
        d = design("c-engine_deflate")
        assert d.algo is Algo.DEFLATE
        assert d.placement is Placement.CENGINE

    def test_lookup_passthrough(self):
        d = CompressionDesign(Algo.SZ3, Placement.SOC)
        assert design(d) is d

    def test_unknown_label(self):
        with pytest.raises(UnknownDesignError):
            design("GPU_DEFLATE")

    def test_lossy_flag(self):
        assert design("SoC_SZ3").is_lossy
        assert not design("SoC_LZ4").is_lossy

    def test_str_is_label(self):
        assert str(design("SoC_zlib")) == "SoC_zlib"

    def test_algo_ids_unique_and_nonzero(self):
        ids = list(ALGO_IDS.values())
        assert len(set(ids)) == len(ids)
        assert 0 not in ids  # zero is the passthrough marker


class TestHeader:
    def test_layout(self):
        # Fig. 5: 0xFF | AlgoID | 0xFF.
        blob = PedalHeader.for_algo(Algo.ZLIB).encode()
        assert len(blob) == HEADER_SIZE == 3
        assert blob[0] == 0xFF and blob[2] == 0xFF
        assert blob[1] == ALGO_IDS[Algo.ZLIB]

    @pytest.mark.parametrize("algo", list(Algo))
    def test_roundtrip(self, algo):
        decoded = PedalHeader.decode(PedalHeader.for_algo(algo).encode() + b"payload")
        assert decoded.algo is algo
        assert decoded.is_compressed

    def test_passthrough(self):
        blob = PedalHeader.passthrough().encode()
        decoded = PedalHeader.decode(blob)
        assert decoded.algo is None
        assert not decoded.is_compressed

    def test_short_message_rejected(self):
        with pytest.raises(HeaderError):
            PedalHeader.decode(b"\xff\x01")

    def test_bad_sentinels_rejected(self):
        with pytest.raises(HeaderError):
            PedalHeader.decode(b"\x00\x01\xff")
        with pytest.raises(HeaderError):
            PedalHeader.decode(b"\xff\x01\x00")

    def test_unknown_algo_id_rejected(self):
        with pytest.raises(HeaderError):
            PedalHeader.decode(bytes([0xFF, 200, 0xFF]))

    def test_looks_compressed(self):
        assert PedalHeader.looks_compressed(b"\xff\x01\xff...")
        assert not PedalHeader.looks_compressed(b"\x00\x01\xff")
        assert not PedalHeader.looks_compressed(b"\xff")
