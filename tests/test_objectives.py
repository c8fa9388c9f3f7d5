import numpy as np
import pytest

from fedproj.objectives import (
    NoiseKind,
    NoiseModel,
    make_logistic,
    make_quadratic,
    make_tiny_mlp,
    stochastic_gradient,
)
from fedproj.vectors import StreamPurpose, stream_keys


def central_difference(loss_fn, w: np.ndarray, step=1e-5) -> np.ndarray:
    out = np.empty_like(w)
    for j in range(len(w)):
        up, down = w.copy(), w.copy()
        up[j] += step
        down[j] -= step
        out[j] = (loss_fn(up) - loss_fn(down)) / (2 * step)
    return out


def check_gradients(obj, points, rel=1e-5):
    for w in points:
        for i in range(obj.M):
            num = central_difference(lambda x: obj._client_loss_grad(i, x)[0], w)
            ana = obj._client_grad(i, w)
            scale = max(np.linalg.norm(num), 1e-8)
            assert np.linalg.norm(ana - num) / scale <= rel


def two_point_quadratic(d=2, gap=2.0):
    centers = np.zeros((2, d))
    centers[1, 0] = gap
    return make_quadratic(2, d, centers)


def max_h2_violation(obj, points):
    """Largest excess of mean client gradient energy over ``a + b ||grad f||^2``."""
    worst = -np.inf
    for p in points:
        mean_sq, gbar = obj._probe(p)
        worst = max(worst, mean_sq - (obj.a + obj.b * float(gbar @ gbar)))
    return worst


class TestQuadratic:
    def test_canonical_constants(self):
        obj = two_point_quadratic()
        assert obj.w_star.tolist() == [1.0, 0.0]
        assert obj.a == 1.0 and obj.b == 1.0
        assert obj.mu == obj.L == 1.0
        assert obj.f_star == 0.5

    def test_single_client_homogeneous(self):
        obj = make_quadratic(1, 2, [[0.0, 0.0]])
        assert obj.a == 0.0
        assert obj.w_star.tolist() == [0.0, 0.0]

    def test_gradient_is_linear(self):
        obj = two_point_quadratic()
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.standard_normal(2)
            assert np.allclose(obj._grad_mean(w), w - obj.w_star)

    def test_loss_gap_is_half_square_distance(self):
        obj = two_point_quadratic()
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.standard_normal(2) * 3
            gap = obj.loss_grad(w)[0] - obj.f_star
            diff = w - obj.w_star
            assert gap == pytest.approx(0.5 * float(diff @ diff), rel=1e-12)

    def test_h2_identity_at_100_points(self):
        obj = two_point_quadratic()
        rng = np.random.default_rng(2)
        pts = [rng.standard_normal(2) * 5 for _ in range(100)]
        assert abs(max_h2_violation(obj, pts)) <= 1e-9

    def test_h2_tight_at_optimum(self):
        obj = two_point_quadratic()
        mean_sq, _ = obj._probe(obj.w_star)
        assert mean_sq == pytest.approx(obj.a, rel=1e-12)

    def test_empty_centers(self):
        with pytest.raises(ValueError):
            make_quadratic(0, 2, [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_centers_rejected(self, bad):
        with pytest.raises(ValueError, match="centers must be finite"):
            make_quadratic(2, 2, [[0.0, 0.0], [bad, 1.0]])

    def test_centers_shape_checked(self):
        with pytest.raises(ValueError, match="expected 3 centers"):
            make_quadratic(3, 2, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="expected \\(2,\\)"):
            make_quadratic(2, 2, np.zeros((2, 3)))


@pytest.fixture(scope="module")
def logistic_obj():
    return make_logistic(M=3, d=8, seed=11, samples_per_client=15, ridge=0.1)


@pytest.fixture(scope="module")
def mlp_obj():
    return make_tiny_mlp(M=2, d_in=5, hidden=4, seed=3, samples_per_client=12)


class TestLogistic:
    @pytest.fixture
    def obj(self, logistic_obj):
        return logistic_obj

    def test_strong_convexity_from_ridge(self, obj):
        assert obj.mu == 0.1

    def test_gradient_finite_difference(self, obj):
        rng = np.random.default_rng(3)
        pts = [rng.standard_normal(8) for _ in range(5)]
        check_gradients(obj, pts)

    def test_smoothness_certificate_holds(self, obj):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            x, y = rng.standard_normal(8), rng.standard_normal(8)
            gx, gy = obj._grad_mean(x), obj._grad_mean(y)
            assert np.linalg.norm(gx - gy) <= obj.L * np.linalg.norm(x - y) + 1e-12

    def test_symmetric_data_zero_gradient_at_origin(self):
        from fedproj.objectives import LogisticObjective
        X = np.array([[1.0, 2.0], [-1.0, -2.0]])
        y = np.array([1.0, 1.0])  # mirrored features, same label: sum y*x = 0
        obj = LogisticObjective([X], [y], ridge=0.1)
        assert np.allclose(obj._client_grad(0, np.zeros(2)), 0.0)

    def test_h2_on_probe_grid(self, obj):
        rng = np.random.default_rng(5)
        pts = [rng.standard_normal(8) * s for s in (0.1, 0.5, 1.0) for _ in range(20)]
        assert max_h2_violation(obj, pts) <= 1e-9  # a was fitted with headroom

    def test_prop_gradient_energy_bound(self, obj):
        """||grad f(x)||^2 <= 2 L f(x) for the nonnegative logistic loss."""
        rng = np.random.default_rng(6)
        for _ in range(200):
            loss, g = obj.loss_grad(rng.standard_normal(8))
            assert float(g @ g) <= 2 * obj.L * loss + 1e-9

    @pytest.mark.parametrize("M, d, n, het", [
        (6, 40, 8, 0.5), (6, 40, 8, 0.0), (4, 30, 30, 0.5), (4, 12, 20, 0.5),
        (5, 60, 1, 3.0), (24, 120, 20, 0.5)])
    def test_smoothness_equals_every_client_eigvalsh(self, M, d, n, het):
        """The screened L is bit-equal to eigvalsh(X^T X) over every client."""
        for seed in range(4):
            obj = make_logistic(M, d, seed, samples_per_client=n, ridge=0.1,
                                heterogeneity=het)
            ref = 0.1 + max(float(np.linalg.eigvalsh(X.T @ X)[-1]) / (4 * X.shape[0])
                            for X in obj.features)
            assert obj.L == ref

    def test_smoothness_screen_on_ties_and_ragged_clients(self, monkeypatch):
        from fedproj.objectives import LogisticObjective
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 60))
        cases = [[X, X.copy(), X * (1 + 1e-15)], [X * (1 + 1e-15), X],
                 [X[:5], X, X[:9] * 1.2],
                 [rng.standard_normal((k, 40)) for k in (3, 50, 7, 40)]]
        for feats in cases:
            ref = max(float(np.linalg.eigvalsh(F.T @ F)[-1]) / (4 * F.shape[0])
                      for F in feats)
            assert LogisticObjective._max_curvature(feats) == ref
        # a clear maximum leaves one d x d eigvalsh, not one per client
        sizes = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: sizes.append(a.shape[0]) or eigvalsh(a))
        feats = [rng.standard_normal((10, 60)) * s for s in (1.0, 2.0, 1.5)]
        LogisticObjective._max_curvature(feats)
        assert sorted(sizes) == [10, 10, 10, 60]

    def test_bad_construction(self):
        with pytest.raises(ValueError):
            make_logistic(2, 4, 0, samples_per_client=0, ridge=0.0)
        with pytest.raises(ValueError):
            make_logistic(2, 4, 0, samples_per_client=3, ridge=-0.1)


class TestTinyMlp:
    @pytest.fixture
    def obj(self, mlp_obj):
        return mlp_obj

    def test_zero_everything_gives_zero(self):
        from fedproj.objectives import TinyMlpObjective
        X = np.zeros((4, 3))
        y = np.zeros(4)
        obj = TinyMlpObjective([X], [y], d_in=3, hidden=2)
        w = np.zeros(obj.d)
        loss, g = obj._client_loss_grad(0, w)
        assert loss == 0.0 and np.all(g == 0.0)
        assert np.all(obj._client_grad(0, w) == 0.0)

    def test_gradient_finite_difference(self, obj):
        rng = np.random.default_rng(7)
        pts = [rng.standard_normal(obj.d) * 0.7 for _ in range(20)]
        check_gradients(obj, pts)

    def test_loss_nonnegative(self, obj):
        rng = np.random.default_rng(8)
        for _ in range(50):
            assert obj.loss_grad(rng.standard_normal(obj.d))[0] >= 0.0

    def test_layer_partition_covers(self, obj):
        spans = obj.layer_partition
        assert spans[0] == (0, 20)
        assert spans[-1][1] == obj.d

    def test_flags(self, obj):
        assert not obj.L_certified and not obj.ab_certified
        assert obj.mu == 0.0 and obj.w_star is None and obj.f_star is None


class TestFusedLossGrad:
    """``loss_grad`` folds the clients in a fixed order: ``sum`` of the losses,
    then ``/ M``; the left fold of the gradients, then ``/ M``."""

    @pytest.fixture(params=["quadratic", "logistic", "tiny_mlp"])
    def obj(self, request, logistic_obj, mlp_obj):
        if request.param == "quadratic":
            rng = np.random.default_rng(12)
            return make_quadratic(3, 6, [rng.standard_normal(6) for _ in range(3)])
        return logistic_obj if request.param == "logistic" else mlp_obj

    def test_bit_equal_to_separate_calls(self, obj):
        rng = np.random.default_rng(13)
        points = [np.zeros(obj.d)] + [rng.standard_normal(obj.d) * s
                                      for s in (0.1, 1.0, 5.0) for _ in range(4)]
        for w in points:
            parts = [obj._client_loss_grad(i, w) for i in range(obj.M)]
            acc = parts[0][1]
            for _, g in parts[1:]:
                acc = acc + g
            loss, grad = obj.loss_grad(w)
            assert loss == sum(part[0] for part in parts) / obj.M
            assert np.array_equal(grad, acc / obj.M)
            assert np.array_equal(grad, obj._grad_mean(w))

    def test_client_grads_rows_equal_client_grad(self, obj):
        rng = np.random.default_rng(14)
        for arr in [np.zeros(obj.d), rng.standard_normal(obj.d)]:
            rows = obj.client_grads(arr)
            assert rows.shape == (obj.M, obj.d)
            for i in range(obj.M):
                assert np.array_equal(rows[i], obj._client_grad(i, arr))
                assert np.array_equal(rows[i], obj._client_loss_grad(i, arr)[1])


def noise_keys(seed, obj, round_index=0):
    return stream_keys(seed, np.arange(obj.M), round_index, StreamPurpose.GRADIENT_NOISE)


class TestStochasticGradient:
    def test_sigma_zero_exact(self):
        obj = two_point_quadratic()
        w = np.array([3.0, 4.0])
        g = stochastic_gradient(obj, w, NoiseModel(0.0), noise_keys(0, obj))
        assert np.array_equal(g, w - obj.centers)

    def test_zero_at_client_optimum(self):
        obj = two_point_quadratic()
        g = stochastic_gradient(obj, np.array([2.0, 0.0]), NoiseModel(0.0), noise_keys(0, obj))
        assert np.all(g[1] == 0.0)

    @pytest.mark.parametrize("dist", [NoiseKind.GAUSSIAN_ISO, NoiseKind.UNIFORM_BALL])
    def test_monte_carlo_unbiased(self, dist):
        obj = two_point_quadratic()
        w = np.array([0.5, -0.5])
        sigma = 0.8
        noise = NoiseModel(sigma, dist)
        n = 10_000
        acc = np.zeros(2)
        for r in range(n):
            acc += stochastic_gradient(obj, w, noise, noise_keys(5, obj, r))[0]
        exact = w - obj.centers[0]
        stderr = sigma / np.sqrt(2) / np.sqrt(n)
        assert np.all(np.abs(acc / n - exact) <= 4 * stderr + 1e-12)

    def test_second_moment_bounded(self):
        noise = NoiseModel(1.5, NoiseKind.GAUSSIAN_ISO)
        total = 0.0
        n = 20_000
        keys = stream_keys(9, 0, np.arange(n), StreamPurpose.GRADIENT_NOISE)
        for xi in noise.draw(6, keys):
            total += xi @ xi
        assert total / n == pytest.approx(1.5 ** 2, rel=0.05)

        ball = NoiseModel(1.5, NoiseKind.UNIFORM_BALL)
        total = 0.0
        for xi in ball.draw(6, stream_keys(10, 0, np.arange(n), StreamPurpose.GRADIENT_NOISE)):
            nrm2 = xi @ xi
            assert nrm2 <= 1.5 ** 2 + 1e-12
            total += nrm2
        assert total / n <= 1.5 ** 2

    def test_bad_client(self):
        """One stream key per client: a key array of the wrong length is rejected."""
        obj = two_point_quadratic()
        with pytest.raises(ValueError, match="expected 2 stream keys"):
            stochastic_gradient(obj, np.zeros(2), NoiseModel(0.0),
                                stream_keys(0, np.arange(7), 0, StreamPurpose.GRADIENT_NOISE))

    @pytest.mark.parametrize("dist", [NoiseKind.GAUSSIAN_ISO, NoiseKind.UNIFORM_BALL])
    def test_noise_rows_do_not_depend_on_block_size(self, dist, monkeypatch):
        import fedproj.objectives as objectives
        obj = make_quadratic(5, 7, [np.full(7, float(i)) for i in range(5)])
        noise = NoiseModel(0.4, dist)
        whole = stochastic_gradient(obj, np.ones(7), noise, noise_keys(3, obj))
        monkeypatch.setattr(objectives, "NOISE_BLOCK_BYTES", 8 * 7 * 2)  # two rows a block
        assert np.array_equal(stochastic_gradient(obj, np.ones(7), noise, noise_keys(3, obj)),
                              whole)

