"""Synthetic dataset generators and the Table IV registry."""

import numpy as np
import pytest

from repro.datasets import DATASETS, get_dataset, lossless_datasets, lossy_datasets
from repro.util.stats import byte_entropy
from tests.conftest import generate_fresh

N = 64 * 1024


class TestRegistry:
    def test_nine_datasets(self):
        # Paper Table IV (five lossless + three lossy) plus the
        # post-paper hypersparse telemetry stream; kind "telemetry"
        # keeps the Table IV figure sweeps at their pinned row counts.
        assert len(DATASETS) == 9
        assert len(lossless_datasets()) == 5
        assert len(lossy_datasets()) == 3
        assert get_dataset("net_telemetry").kind == "telemetry"

    def test_nominal_sizes_match_table4(self):
        expected = {
            "silesia/xml": 5.1,
            "silesia/mr": 9.51,
            "silesia/samba": 20.61,
            "obs_error": 30.0,
            "silesia/mozilla": 48.85,
            "exaalt-dataset1": 10.0,
            "exaalt-dataset3": 31.0,
            "exaalt-dataset2": 64.0,
        }
        for key, mb in expected.items():
            assert get_dataset(key).nominal_mb == pytest.approx(mb)

    def test_sorted_by_size(self):
        sizes = [d.nominal_bytes for d in lossless_datasets()]
        assert sizes == sorted(sizes)

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            get_dataset("silesia/dickens")

    def test_sim_scale(self):
        ds = get_dataset("silesia/xml")
        assert ds.sim_scale(1_000_000) == pytest.approx(5.1)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            get_dataset("silesia/xml").generate(0)


class TestGeneration:
    @pytest.mark.parametrize("key", sorted(DATASETS))
    def test_deterministic(self, key):
        ds = get_dataset(key)
        a = generate_fresh(ds, N)
        b = generate_fresh(ds, N)
        if isinstance(a, np.ndarray):
            np.testing.assert_array_equal(a, b)
        else:
            assert a == b

    @pytest.mark.parametrize("key", sorted(DATASETS))
    def test_requested_size(self, key):
        ds = get_dataset(key)
        data = ds.generate(N)
        assert ds.payload_nbytes(data) == pytest.approx(N, abs=64)

    def test_lossless_are_bytes(self):
        for ds in lossless_datasets():
            assert isinstance(ds.generate(4096), bytes)

    def test_lossy_are_float32(self):
        for ds in lossy_datasets():
            arr = ds.generate(4096)
            assert isinstance(arr, np.ndarray)
            assert arr.dtype == np.float32
            assert np.isfinite(arr).all()

    def test_different_sizes_share_prefix_character(self):
        # Not byte-identical prefixes (rng reseeds by size), but the
        # compressibility class must be stable across sizes.
        from repro.algorithms.lz4 import lz4_block_compress

        ds = get_dataset("silesia/xml")
        small, large = ds.generate(32 * 1024), ds.generate(128 * 1024)
        r_small = len(small) / len(lz4_block_compress(small))
        r_large = len(large) / len(lz4_block_compress(large))
        assert r_small == pytest.approx(r_large, rel=0.35)


class TestCompressibilityOrdering:
    """Byte-entropy ordering must reflect the paper's Table V ordering."""

    def test_xml_below_samba_entropy(self):
        # Order-0 entropy tracks LZ compressibility only within a data
        # class; compare like with like (xml vs samba are both text).
        entropies = {
            ds.key: byte_entropy(ds.generate(N)) for ds in lossless_datasets()
        }
        assert entropies["silesia/xml"] < entropies["silesia/samba"]

    def test_obs_error_highest_entropy(self):
        entropies = {
            ds.key: byte_entropy(ds.generate(N)) for ds in lossless_datasets()
        }
        assert entropies["obs_error"] == max(entropies.values())

    def test_exaalt_profiles_ordered(self):
        # dataset1 is the "hottest" (least compressible under SZ3).
        from repro.algorithms.sz3 import SZ3Config, sz3_compress

        cfg = SZ3Config(error_bound=1e-4)
        ratios = {}
        for ds in lossy_datasets():
            arr = ds.generate(N)
            ratios[ds.key] = arr.nbytes / len(sz3_compress(arr, cfg))
        assert ratios["exaalt-dataset1"] < ratios["exaalt-dataset2"]
        assert ratios["exaalt-dataset1"] < ratios["exaalt-dataset3"]

    def test_exaalt_invalid_index(self):
        from repro.datasets.exaalt import generate_exaalt

        with pytest.raises(ValueError):
            generate_exaalt(4, 1024)


class TestNetTelemetry:
    """The hypersparse telemetry stream must be *extremely* sparse."""

    def test_hypersparse_profile(self):
        data = get_dataset("net_telemetry").generate(N)
        # Most bytes are zero (sorted-coordinate deltas + empty
        # histogram regions), so order-0 entropy is far below text.
        zero_fraction = data.count(0) / len(data)
        assert zero_fraction > 0.6
        assert byte_entropy(data) < 3.0

    def test_stresses_ratio_model(self):
        # Much more compressible than every Table IV lossless dataset:
        # the extreme-sparsity regime the GraphBLAS-on-DPU traffic
        # lives in, which whole-corpus-tuned ratio estimators misprice.
        from repro.algorithms.lz4 import lz4_block_compress

        telemetry = get_dataset("net_telemetry").generate(N)
        ratio = len(telemetry) / len(lz4_block_compress(telemetry))
        for ds in lossless_datasets():
            blob = ds.generate(N)
            assert ratio > len(blob) / len(lz4_block_compress(blob))
