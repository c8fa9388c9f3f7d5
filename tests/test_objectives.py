import math

import numpy as np
import pytest

from fedproj.objectives import (
    FederatedObjective,
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
            ana = obj._client_loss_grad(i, w)[1]
            scale = max(np.linalg.norm(num), 1e-8)
            assert np.linalg.norm(ana - num) / scale <= rel


def two_point_quadratic(d=2, gap=2.0):
    centers = np.zeros((2, d))
    centers[1, 0] = gap
    return make_quadratic(2, d, centers)


def mean_client_energy(obj, w):
    """``(1/M) sum_i ||grad f_i(w)||^2``."""
    return np.mean([float(g @ g) for g in obj.client_loss_grads(w)[1]])


def max_h2_violation(obj, points):
    """Largest excess of mean client gradient energy over ``a + b ||grad f||^2``."""
    worst = -np.inf
    for p in points:
        gbar = obj.loss_grad(p)[1]
        worst = max(worst, mean_client_energy(obj, p) - (obj.a + obj.b * float(gbar @ gbar)))
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
            assert np.allclose(obj.loss_grad(w)[1], w - obj.w_star)

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
        assert mean_client_energy(obj, obj.w_star) == pytest.approx(obj.a, rel=1e-12)

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
            gx, gy = obj.loss_grad(x)[1], obj.loss_grad(y)[1]
            assert np.linalg.norm(gx - gy) <= obj.L * np.linalg.norm(x - y) + 1e-12

    @pytest.mark.filterwarnings("error")
    def test_gradient_weights_within_4_ulp_of_math_exp(self):
        """The weights ``y / (1 + exp(margin))`` against a ``math.exp``
        reference, read back from the gradient of one client with ``X = I``
        and 32 rows, which is exact while no weight is subnormal."""
        from fedproj.objectives import LogisticObjective
        margins = np.concatenate([[-800.0, -50.0, -1.0, -1e-9, 0.0, 1e-9, 1.0, 50.0,
                                   700.0, 710.0, 800.0, 1e300],
                                  np.random.default_rng(8).standard_normal(20) * 30.0])
        y = np.where(np.arange(32) % 3 == 0, -1.0, 1.0)
        obj = LogisticObjective([np.eye(32)], [y], ridge=0.0)
        weights = -32.0 * obj._grad_from_margins(np.eye(32), y, margins, np.zeros(32))

        def reference(m, label):
            try:
                return label / (1.0 + math.exp(m))
            except OverflowError:
                return 0.0
        ref = np.array([reference(m, label) for m, label in zip(margins, y)])
        assert np.all(np.abs(weights - ref) <= 4 * np.spacing(np.abs(ref)))

    def test_hess_operator_matches_central_difference(self, obj):
        rng = np.random.default_rng(9)
        step = 1e-4
        for _ in range(5):
            w, v = rng.standard_normal(8), rng.standard_normal(8)
            fd = (obj.loss_grad(w + step * v)[1] - obj.loss_grad(w - step * v)[1]) / (2 * step)
            assert np.linalg.norm(obj.hess_operator(w)(v) - fd) <= 1e-6 * np.linalg.norm(fd)

    def test_hess_operator_equals_per_call_product(self, obj):
        """The weights cached at ``w`` give, for every ``v``, the bytes of the
        product ``s (1 - s) (X v)`` computed at each call."""
        rng = np.random.default_rng(10)
        for scale in (0.0, 1.0, 40.0):
            w = scale * rng.standard_normal(8)
            hess = obj.hess_operator(w)
            for _ in range(3):
                v = rng.standard_normal(8)
                acc = None
                for X in obj.features:
                    s = 1.0 / (1.0 + np.exp(-(X @ w)))
                    hv = X.T @ (s * (1.0 - s) * (X @ v)) / X.shape[0]
                    acc = hv if acc is None else acc + hv
                want = acc / obj.M + obj.ridge * v
                assert hess(v).tobytes() == want.tobytes()

    def test_symmetric_data_zero_gradient_at_origin(self):
        from fedproj.objectives import LogisticObjective
        X = np.array([[1.0, 2.0], [-1.0, -2.0]])
        y = np.array([1.0, 1.0])  # mirrored features, same label: sum y*x = 0
        obj = LogisticObjective([X], [y], ridge=0.1)
        assert np.allclose(obj._client_loss_grad(0, np.zeros(2))[1], 0.0)

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
        losses, rows = obj.client_loss_grads(w)
        assert losses == [0.0] and np.all(rows == 0.0)

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

    def test_dissimilarity_is_a_probe_grid_estimate(self, obj):
        """``a`` comes from the probe grid, as logistic's does: positive on
        heterogeneous clients, and above the excess at the origin, a probe."""
        assert obj.a > 0.0
        assert max_h2_violation(obj, [np.zeros(obj.d)]) < 0.0


def left_fold(losses, rows):
    acc = rows[0]
    for g in rows[1:]:
        acc = acc + g
    return sum(losses) / len(rows), acc / len(rows)


def nine_clients_one_coordinate():
    """``np.sum`` over these nine one-column rows sums pairwise, not left to right."""
    rng = np.random.default_rng(15)
    return make_quadratic(9, 1, rng.standard_normal((9, 1))
                          * 10.0 ** rng.integers(-8, 9, size=(9, 1)))


class TestFusedLossGrad:
    """``loss_grad`` folds the clients in a fixed order: ``sum`` of the losses,
    then ``/ M``; the left fold of the gradient rows, then ``/ M``."""

    @pytest.fixture(params=["quadratic", "logistic", "tiny_mlp", "quadratic-d1-M9"])
    def obj(self, request, logistic_obj, mlp_obj):
        if request.param == "quadratic":
            rng = np.random.default_rng(12)
            return make_quadratic(3, 6, [rng.standard_normal(6) for _ in range(3)])
        if request.param == "quadratic-d1-M9":
            return nine_clients_one_coordinate()
        return logistic_obj if request.param == "logistic" else mlp_obj

    @staticmethod
    def points(obj):
        rng = np.random.default_rng(13)
        return [np.zeros(obj.d)] + [rng.standard_normal(obj.d) * s
                                    for s in (0.1, 1.0, 5.0) for _ in range(4)]

    def test_bit_equal_to_separate_calls(self, obj):
        for w in self.points(obj):
            parts = [obj._client_loss_grad(i, w) for i in range(obj.M)]
            separate = left_fold([loss for loss, _ in parts], [g for _, g in parts])
            loss, grad = obj.loss_grad(w)
            assert loss == separate[0] and np.array_equal(grad, separate[1])
            batched = left_fold(*obj.client_loss_grads(w))
            assert loss == batched[0] and np.array_equal(grad, batched[1])

    def test_client_grads_rows_equal_client_grad(self, obj):
        for w in self.points(obj):
            losses, rows = obj.client_loss_grads(w)
            assert rows.shape == (obj.M, obj.d) and len(losses) == obj.M
            for i in range(obj.M):
                loss, g = obj._client_loss_grad(i, w)
                assert losses[i] == loss and np.array_equal(rows[i], g)
            # the quadratic override is bit-equal to the base-class loop
            base_losses, base_rows = FederatedObjective.client_loss_grads(obj, w)
            assert losses == base_losses and np.array_equal(rows, base_rows)

    def test_pairwise_sum_would_differ(self):
        """The d = 1, M = 9 case tells a left fold from ``np.sum``."""
        obj = nine_clients_one_coordinate()
        assert any(not np.array_equal(np.sum(rows, axis=0) / obj.M, left_fold(losses, rows)[1])
                   for losses, rows in map(obj.client_loss_grads, self.points(obj)))


def noise_keys(seed, obj, round_index=0):
    return stream_keys(seed, np.arange(obj.M), round_index, StreamPurpose.GRADIENT_NOISE)


class TestStochasticGradient:
    def test_sigma_zero_exact(self):
        obj = two_point_quadratic()
        w = np.array([3.0, 4.0])
        rows = obj.client_loss_grads(w)[1]
        g = stochastic_gradient(rows, NoiseModel(0.0), noise_keys(0, obj))
        assert g is rows and np.array_equal(g, w - obj.centers)

    def test_zero_at_client_optimum(self):
        obj = two_point_quadratic()
        g = stochastic_gradient(obj.client_loss_grads(np.array([2.0, 0.0]))[1], NoiseModel(0.0),
                                noise_keys(0, obj))
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
            acc += stochastic_gradient(obj.client_loss_grads(w)[1], noise,
                                       noise_keys(5, obj, r))[0]
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
            stochastic_gradient(obj.client_loss_grads(np.zeros(2))[1], NoiseModel(0.0),
                                stream_keys(0, np.arange(7), 0, StreamPurpose.GRADIENT_NOISE))

    @pytest.mark.parametrize("dist", [NoiseKind.GAUSSIAN_ISO, NoiseKind.UNIFORM_BALL])
    def test_noise_rows_do_not_depend_on_block_size(self, dist, monkeypatch):
        import fedproj.objectives as objectives
        obj = make_quadratic(5, 7, [np.full(7, float(i)) for i in range(5)])
        noise = NoiseModel(0.4, dist)
        whole = stochastic_gradient(obj.client_loss_grads(np.ones(7))[1], noise,
                                    noise_keys(3, obj))
        monkeypatch.setattr(objectives, "NOISE_BLOCK_BYTES", 8 * 7 * 2)  # two rows a block
        assert np.array_equal(stochastic_gradient(obj.client_loss_grads(np.ones(7))[1], noise,
                                                  noise_keys(3, obj)), whole)

