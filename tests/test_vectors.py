import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedproj import backend
from fedproj.compressors import k_eff
from fedproj.vectors import StreamPurpose, derive_stream, stream_keys

# chi-square quantiles with upper tail 1e-3 at 63 and 5 degrees of freedom,
# chi2.isf(1e-3, df) as scipy 1.17.1 computes them: a statistic below one
# is the same test as p > 1e-3
CHI2_63_ISF_1E3 = 103.44237731987324
CHI2_5_ISF_1E3 = 20.515005652432876


def chi_square(counts: np.ndarray) -> float:
    """Pearson's statistic of ``counts`` against equal expected counts."""
    expected = counts.sum() / counts.size
    return float(np.sum((counts - expected) ** 2 / expected))


class TestStreams:
    def test_same_tuple_replays(self):
        s1 = derive_stream(123, 4, 7, StreamPurpose.COMPRESSOR)
        s2 = derive_stream(123, 4, 7, StreamPurpose.COMPRESSOR)
        assert np.array_equal(s1.uniforms(100), s2.uniforms(100))
        assert np.array_equal(s1.normals(51), s2.normals(51))

    def test_sequential_draws_match_one_shot(self):
        s1 = derive_stream(9, 0, 0, StreamPurpose.GRADIENT_NOISE)
        s2 = derive_stream(9, 0, 0, StreamPurpose.GRADIENT_NOISE)
        a = np.concatenate([s1.uniforms(10), s1.uniforms(15)])
        b = s2.uniforms(25)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("change", ["round", "purpose", "client", "seed"])
    def test_distinct_tuples_chi_square_independent(self, change):
        """Pairs of draws from the two streams fill a 8x8 grid uniformly."""
        base = dict(master_seed=42, client_id=3, round_index=11,
                    purpose=StreamPurpose.GRADIENT_NOISE)
        other = dict(base)
        if change == "round":
            other["round_index"] += 1
        elif change == "purpose":
            other["purpose"] = StreamPurpose.COMPRESSOR
        elif change == "client":
            other["client_id"] += 1
        else:
            other["master_seed"] += 1
        u1 = derive_stream(**base).uniforms(10_000)
        u2 = derive_stream(**other).uniforms(10_000)
        assert not np.array_equal(u1, u2)
        cells = (np.floor(u1 * 8).astype(int) * 8 + np.floor(u2 * 8).astype(int))
        counts = np.bincount(cells, minlength=64)
        assert chi_square(counts) < CHI2_63_ISF_1E3

    def test_uniforms_in_unit_interval(self):
        u = derive_stream(1, 0, 0, StreamPurpose.COMPRESSOR).uniforms(10_000)
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_normals_moments(self):
        z = derive_stream(5, 1, 2, StreamPurpose.GRADIENT_NOISE).normals(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.var() - 1.0) < 0.02

    def test_subset_uniform_and_sorted(self):
        keys = stream_keys(7, 0, np.arange(4000), StreamPurpose.COMPRESSOR)
        subsets = backend.stream_subset(keys, 0, 6, 2)
        assert np.all(subsets[:, 0] < subsets[:, 1]) and subsets.max() < 6
        counts = np.bincount(subsets.ravel(), minlength=6)
        assert chi_square(counts) < CHI2_5_ISF_1E3

    @given(k_fraction=st.floats(min_value=1e-9, max_value=1.0), pop=st.integers(1, 1000))
    def test_subset_bounds(self, k_fraction, pop):
        """Every subset size the compressors ask for lies in ``[1, pop]``."""
        k = k_eff(k_fraction, pop)
        assert 1 <= k <= pop
        row = backend.stream_subset(stream_keys(1, 0, 0, StreamPurpose.COMPRESSOR), 0, pop, k)
        assert row.shape == (1, k) and len(np.unique(row)) == k

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            derive_stream(1, -1, 0, StreamPurpose.COMPRESSOR)
