import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedproj import backend
from fedproj.accounting import DEFAULT_COST_MODEL, message_bits
from fedproj.compressors import (
    BiasedCompressorError,
    CompressorKind,
    CompressorSpec,
    DensePayload,
    QuantizedPayload,
    SparsePayload,
    compress,
    decode,
    estimate_beta,
    estimate_delta,
    k_eff,
)
from fedproj.vectors import StreamPurpose, stream_keys


def stream(seed=0, round_index=0):
    """Compressor stream keys of client 0 at one round (or an array of rounds)."""
    return stream_keys(seed, 0, round_index, StreamPurpose.COMPRESSOR)


def rows(g):
    return np.atleast_2d(np.asarray(g, dtype=np.float64))


def roundtrip(spec, g, keys=None, layers=None):
    """Decoded rows of ``compress`` on the rows of ``g``."""
    return decode(compress(spec, rows(g), keys, layers))


def topk_oracle(values: np.ndarray, k: int) -> np.ndarray:
    """Top-k by a full sort: magnitude descending, then index ascending."""
    order = np.lexsort((np.arange(values.shape[0]), -np.abs(values)))[:k]
    out = np.asarray(order, dtype=np.int64)
    out.sort()
    return out


def randk_expectation_by_enumeration(g: np.ndarray, k: int):
    """Exact E[C(g)] and E||C(g)||^2 by averaging over all k-subsets."""
    d = len(g)
    mean = np.zeros(d)
    second = 0.0
    subsets = list(itertools.combinations(range(d), k))
    for S in subsets:
        v = np.zeros(d)
        v[list(S)] = (d / k) * g[list(S)]
        mean += v
        second += float(v @ v)
    return mean / len(subsets), second / len(subsets)


def qsgd_outcome_enumeration(g: np.ndarray, s: int):
    """Exact E[C(g)] by enumerating every joint level outcome with its probability."""
    norm = np.linalg.norm(g)
    lows, probs_low = [], []
    for gj in g:
        scaled = abs(gj) * s / norm
        low = min(math.floor(scaled), s - 1)
        lows.append(low)
        probs_low.append(1.0 + low - scaled)
    mean = np.zeros(len(g))
    total_p = 0.0
    for picks in itertools.product([0, 1], repeat=len(g)):
        p = 1.0
        v = np.zeros(len(g))
        for j, up in enumerate(picks):
            p *= (1.0 - probs_low[j]) if up else probs_low[j]
            v[j] = norm * np.sign(g[j]) * (lows[j] + up) / s
        mean += p * v
        total_p += p
    assert total_p == pytest.approx(1.0, abs=1e-12)
    return mean


class TestSpec:
    def test_k_fraction_range(self):
        with pytest.raises(ValueError):
            CompressorSpec(CompressorKind.TOPK, k_fraction=0.0)
        with pytest.raises(ValueError):
            CompressorSpec(CompressorKind.TOPK, k_fraction=1.2)

    def test_s_levels_positive(self):
        with pytest.raises(ValueError):
            CompressorSpec(CompressorKind.QSGD, s_levels=0)

    def test_layerwise_qsgd_rejected(self):
        with pytest.raises(ValueError):
            CompressorSpec(CompressorKind.QSGD, layerwise=True)

    def test_k_eff_floor_one(self):
        assert k_eff(0.01, 10) == 1
        assert k_eff(0.1, 20) == 2
        assert k_eff(1.0, 7) == 7


class TestIdentity:
    def test_roundtrip_exact(self):
        g = rows(np.linspace(-3, 4, 9))
        msg = compress(CompressorSpec(CompressorKind.IDENTITY), g)
        assert isinstance(msg, DensePayload)
        assert np.array_equal(decode(msg), g)

    def test_bits(self):
        msg = compress(CompressorSpec(CompressorKind.IDENTITY), np.zeros((2, 100)))
        assert message_bits(DEFAULT_COST_MODEL, msg).tolist() == [3200, 3200]


class TestTopK:
    def test_two_largest_magnitudes(self):
        g = rows([[3.0, -1.0, 0.5, -4.0], [0.0, 1.0, -2.0, 0.5]])
        msg = compress(CompressorSpec(CompressorKind.TOPK, k_fraction=0.5), g)
        assert isinstance(msg, SparsePayload)
        assert msg.indices.tolist() == [[0, 3], [1, 2]]
        assert msg.values.tolist() == [[3.0, -4.0], [1.0, -2.0]]

    def test_tie_break_lowest_index(self):
        msg = compress(CompressorSpec(CompressorKind.TOPK, k_fraction=0.5),
                       rows([2.0, -2.0, 2.0, 1.0]))
        assert msg.indices.tolist() == [[0, 1]]

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(3)
        g = rows(rng.standard_normal(40))
        spec = CompressorSpec(CompressorKind.TOPK, k_fraction=0.25)
        m1, m2 = compress(spec, g), compress(spec, g)
        assert np.array_equal(m1.indices, m2.indices)
        assert np.array_equal(m1.values, m2.values)

    @given(arrays(np.float64, 12, elements=st.floats(-100, 100, allow_nan=False)))
    @example(np.full(12, 42.0378369))  # all-equal magnitudes meet the bound exactly
    @settings(max_examples=80, deadline=None)
    def test_contraction_holds_everywhere(self, raw):
        spec = CompressorSpec(CompressorKind.TOPK, k_fraction=0.25)
        delta = estimate_delta(spec, 12)
        err = roundtrip(spec, raw)[0] - raw
        gg = raw @ raw
        # relative slack: at equality the two sides differ only by rounding
        assert err @ err <= (1 - delta) * gg + 1e-12 * (1 + gg)

    def test_kernel_matches_sort_oracle(self):
        rng = np.random.default_rng(20251107)
        cases = [np.array([0.0, -0.0, 0.0, -0.0]), np.array([-7.5])]
        for _ in range(150):
            d = int(rng.integers(1, 400))
            cases += [
                rng.standard_normal(d),
                rng.integers(-3, 4, d).astype(np.float64),       # many ties
                rng.choice([-2.5, 2.5], d),                       # all magnitudes equal
                rng.choice([0.0, -0.0, 1e-300, -1.0], d),         # signed zeros
            ]
        for values in cases:
            d = values.shape[0]
            for k in sorted({1, d, max(1, d // 10), int(rng.integers(1, d + 1))}):
                got = backend.topk_indices(values, k)
                assert got.dtype == np.int64
                assert got.tolist() == topk_oracle(values, k).tolist(), (values, k)

    def test_layerwise_matches_sort_oracle(self):
        rng = np.random.default_rng(7)
        part = [(0, 50), (50, 53), (53, 153), (153, 154)]
        raw = rng.integers(-4, 5, 154).astype(np.float64)
        spec = CompressorSpec(CompressorKind.TOPK, k_fraction=0.1, layerwise=True)
        msg = compress(spec, rows(raw), layer_partition=part)
        expected = np.concatenate([
            start + topk_oracle(raw[start:stop], k_eff(0.1, stop - start))
            for start, stop in part])
        assert msg.indices[0].tolist() == expected.tolist()
        assert msg.values[0].tolist() == raw[expected].tolist()

    def test_layerwise_keeps_one_per_layer(self):
        part = [(0, 3), (3, 6)]
        g = rows([5.0, 1.0, 0.0, 0.0, 0.1, 0.2])
        msg = compress(CompressorSpec(CompressorKind.TOPK, k_fraction=0.34, layerwise=True),
                       g, layer_partition=part)
        assert msg.indices.tolist() == [[0, 5]]

    def test_nan_ranks_as_infinite(self):
        got = backend.topk_indices(np.array([1.0, np.nan, -3.0, np.inf, 2.0]), 3)
        assert got.tolist() == [1, 2, 3]


class TestRandK:
    def test_enumeration_unbiased_and_second_moment(self):
        rng = np.random.default_rng(1)
        for d, k in [(4, 2), (5, 1), (6, 3)]:
            g = rng.standard_normal(d)
            mean, second = randk_expectation_by_enumeration(g, k)
            assert np.allclose(mean, g, rtol=0, atol=1e-12)
            assert second == pytest.approx((d / k) * (g @ g), rel=1e-12)

    def test_compressor_matches_subset_semantics(self):
        g = rows([1.0, 2.0, 3.0, 4.0])
        spec = CompressorSpec(CompressorKind.RANDK, k_fraction=0.5)
        msg = compress(spec, g, stream())
        assert isinstance(msg, SparsePayload)
        assert msg.indices.shape == (1, 2)
        assert np.allclose(msg.values, 2.0 * g[0, msg.indices])

    def test_subset_frequencies_uniform(self):
        spec = CompressorSpec(CompressorKind.RANDK, k_fraction=0.5)
        seen = {}
        n = 6000
        msg = compress(spec, np.ones((n, 4)), stream(round_index=np.arange(n)))
        for picked in msg.indices:
            key = tuple(picked.tolist())
            seen[key] = seen.get(key, 0) + 1
        assert len(seen) == 6
        for count in seen.values():
            assert abs(count - n / 6) < 5 * np.sqrt(n * (1 / 6) * (5 / 6))

    def test_monte_carlo_unbiased(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal(10)
        spec = CompressorSpec(CompressorKind.RANDK, k_fraction=0.3)
        n = 20_000
        acc = roundtrip(spec, np.tile(g, (n, 1)), stream(round_index=np.arange(n))).sum(axis=0)
        stderr = np.abs(g) * (np.sqrt(10 / 3) / np.sqrt(n)) + 1e-3
        assert np.all(np.abs(acc / n - g) < 5 * stderr)

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            compress(CompressorSpec(CompressorKind.RANDK, k_fraction=0.5),
                     rows([1.0, 2.0]))

    def test_layerwise_scaling_per_layer(self):
        part = [(0, 2), (2, 6)]
        g = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
        spec = CompressorSpec(CompressorKind.RANDK, k_fraction=0.5, layerwise=True)
        msg = compress(spec, rows(g), stream(), part)
        for idx, val in zip(msg.indices[0], msg.values[0]):
            expected_scale = 2.0  # both layers keep half their coordinates
            assert val == pytest.approx(expected_scale * g[idx])

    def test_rows_match_single_row_calls(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((5, 30))
        keys = stream_keys(3, np.arange(5), 2, StreamPurpose.COMPRESSOR)
        for spec in [CompressorSpec(CompressorKind.RANDK, k_fraction=0.2),
                     CompressorSpec(CompressorKind.RANDK, k_fraction=0.2, layerwise=True),
                     CompressorSpec(CompressorKind.QSGD, s_levels=3)]:
            batched = roundtrip(spec, g, keys, ((0, 7), (7, 30)))
            for r in range(5):
                alone = roundtrip(spec, g[r], keys[r:r + 1], ((0, 7), (7, 30)))
                assert np.array_equal(batched[r], alone[0])


class TestQsgd:
    def test_two_coordinate_example(self):
        # g = (3, 4), s = 1: ratio_1 = 0.6 so level 1 appears with prob 0.6
        spec = CompressorSpec(CompressorKind.QSGD, s_levels=1)
        n = 10_000
        v = roundtrip(spec, np.tile([3.0, 4.0], (n, 1)), stream(round_index=np.arange(n)))
        assert set(v[:, 0].tolist()) <= {0.0, 5.0}
        hits = np.count_nonzero(v[:, 0] == 5.0)
        vals = v[:, 0].sum()
        stderr = np.sqrt(0.6 * 0.4 / n)
        assert abs(hits / n - 0.6) < 5 * stderr
        assert abs(vals / n - 3.0) < 5 * 5.0 * stderr

    def test_outcome_enumeration_unbiased(self):
        rng = np.random.default_rng(2)
        for d in (2, 3):
            for s in (1, 2):
                g = rng.standard_normal(d) * 3
                mean = qsgd_outcome_enumeration(g, s)
                assert np.allclose(mean, g, rtol=0, atol=1e-12)

    def test_decode_reconstruction_by_hand(self):
        payload = QuantizedPayload(norm=np.array([5.0]), signs=np.array([[0, 1]], np.uint8),
                                   levels=np.array([[1, 1]], np.int64), s_levels=1)
        assert decode(payload).tolist() == [[5.0, -5.0]]

    def test_decode_equals_select_of_negated_magnitudes(self):
        """The sign copy gives the bytes of ``where(signs == 1, -m, m)``: a
        negative entry at level 0 decodes to ``-0.0``."""
        payload = QuantizedPayload(norm=np.array([2.0]), signs=np.array([[1, 0, 1]], np.uint8),
                                   levels=np.array([[0, 0, 2]], np.int64), s_levels=2)
        assert decode(payload).tobytes() == np.array([[-0.0, 0.0, -2.0]]).tobytes()
        rng = np.random.default_rng(12)
        for s in (1, 3, 16):
            norm = np.abs(rng.standard_normal(7)) * 10.0 ** rng.integers(-300, 300, 7)
            norm[0] = 0.0
            payload = QuantizedPayload(norm=norm,
                                       signs=rng.integers(0, 2, (7, 50)).astype(np.uint8),
                                       levels=rng.integers(0, s + 1, (7, 50)), s_levels=s)
            m = payload.norm[:, None] * payload.levels / payload.s_levels
            assert decode(payload).tobytes() == np.where(payload.signs == 1, -m, m).tobytes()

    def test_zero_vector_short_circuit(self):
        """An all-zero row, ``-0.0`` entries included, encodes as norm 0 with
        every sign and level 0, and is charged like any other row."""
        g = np.zeros((3, 6))
        g[1, 2] = -1.5
        g[2] = -0.0
        msg = compress(CompressorSpec(CompressorKind.QSGD, s_levels=2), g,
                       stream_keys(0, np.arange(3), 0, StreamPurpose.COMPRESSOR))
        assert msg.norm.tolist() == [0.0, 1.5, 0.0]
        assert not msg.signs[[0, 2]].any() and not msg.levels[[0, 2]].any()
        assert message_bits(DEFAULT_COST_MODEL, msg).tolist() == [32 + 6 + 12] * 3
        assert decode(msg).tobytes() == (g + 0.0).tobytes()   # -0.0 + 0.0 is +0.0

    def test_levels_bounded(self):
        rng = np.random.default_rng(8)
        g = rows(rng.standard_normal(30))
        for s in (1, 2, 5):
            msg = compress(CompressorSpec(CompressorKind.QSGD, s_levels=s), g, stream())
            assert msg.levels.max() <= s
            assert msg.levels.min() >= 0

    def test_single_nonzero_exact(self):
        g = rows([0.0, -7.0, 0.0])
        msg = compress(CompressorSpec(CompressorKind.QSGD, s_levels=2), g, stream())
        assert np.allclose(decode(msg), g)


class TestCertificates:
    def test_identity(self):
        spec = CompressorSpec(CompressorKind.IDENTITY)
        assert estimate_beta(spec, 10) == 1.0
        assert estimate_delta(spec, 10) == 1.0

    def test_randk_beta_matches_enumeration(self):
        spec = CompressorSpec(CompressorKind.RANDK, k_fraction=0.1)
        assert estimate_beta(spec, 10) == 10.0
        rng = np.random.default_rng(11)
        for d, k_frac in [(4, 0.5), (6, 0.5), (5, 0.2)]:
            g = rng.standard_normal(d)
            spec = CompressorSpec(CompressorKind.RANDK, k_fraction=k_frac)
            _, second = randk_expectation_by_enumeration(g, k_eff(k_frac, d))
            assert second <= estimate_beta(spec, d) * (g @ g) + 1e-12

    def test_randk_beta_worst_layer(self):
        spec = CompressorSpec(CompressorKind.RANDK, k_fraction=0.1, layerwise=True)
        # layer dims 2 and 10 both keep one coordinate: worst factor is 10
        assert estimate_beta(spec, 12, ((0, 2), (2, 12))) == 10.0

    def test_beta_refused_for_topk(self):
        with pytest.raises(BiasedCompressorError):
            estimate_beta(CompressorSpec(CompressorKind.TOPK, k_fraction=0.5), 4)

    def test_topk_delta_and_witness(self):
        spec = CompressorSpec(CompressorKind.TOPK, k_fraction=0.5)
        assert estimate_delta(spec, 4) == 0.5
        witness = np.ones((1, 4))
        err = (roundtrip(spec, witness) - witness)[0]
        assert err @ err == pytest.approx((1 - 0.5) * 4.0, rel=1e-14)

    def test_topk_contraction_monte_carlo(self):
        spec = CompressorSpec(CompressorKind.TOPK, k_fraction=0.5)
        delta = estimate_delta(spec, 4)
        rng = np.random.default_rng(13)
        g = rng.standard_normal((10_000, 4))
        err = roundtrip(spec, g) - g
        for e, row in zip(err, g):
            assert e @ e <= (1 - delta) * (row @ row) + 1e-12

    def test_qsgd_beta_bound_monte_carlo(self):
        for d, s in [(8, 1), (8, 2), (20, 1)]:
            spec = CompressorSpec(CompressorKind.QSGD, s_levels=s)
            beta = estimate_beta(spec, d)
            data_rng = np.random.default_rng(d * 10 + s)
            g = data_rng.standard_normal(d)
            n = 10_000
            v = roundtrip(spec, np.tile(g, (n, 1)), stream(round_index=np.arange(n)))
            acc = np.array([row @ row for row in v])
            mean = acc.mean()
            stderr = acc.std(ddof=1) / np.sqrt(n)
            assert mean <= beta * (g @ g) * (1 + 5 * stderr / max(mean, 1e-300))

    def test_delta_for_unbiased_kinds_is_inverse_beta(self):
        spec = CompressorSpec(CompressorKind.RANDK, k_fraction=0.25)
        assert estimate_delta(spec, 8) == pytest.approx(1.0 / estimate_beta(spec, 8))


class TestMessages:
    def test_sparse_validation(self):
        with pytest.raises(ValueError):
            SparsePayload(np.array([[0, 2], [3, 1]], np.int64), np.ones((2, 2)), 4)
        with pytest.raises(ValueError):
            SparsePayload(np.array([[5]], np.int64), np.array([[1.0]]), 4)

    def test_quantized_validation(self):
        with pytest.raises(ValueError):
            QuantizedPayload(np.array([-1.0]), np.zeros((1, 2), np.uint8),
                             np.zeros((1, 2), np.int64), 1)
        with pytest.raises(ValueError):
            QuantizedPayload(np.array([1.0]), np.zeros((1, 2), np.uint8),
                             np.array([[0, 3]], np.int64), 2)
        with pytest.raises(ValueError):
            QuantizedPayload(np.array([1.0]), np.array([[0, 2]], np.uint8),
                             np.zeros((1, 2), np.int64), 2)

    def test_sparse_bits_formula(self):
        msg = compress(CompressorSpec(CompressorKind.TOPK, k_fraction=0.2),
                       rows(np.arange(1.0, 11.0)))
        assert message_bits(DEFAULT_COST_MODEL, msg).tolist() == [2 * (32 + 32)]
