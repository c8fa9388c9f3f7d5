import numpy as np
import pytest

from fedproj import backend
from fedproj.algorithms import (
    PROJECTION_EPS,
    AlgorithmConfig,
    AlgorithmKind,
    ClientUpload,
    History,
    MirrorDesyncError,
    assert_mirror,
    client_round,
    init_round,
    server_round,
)
from fedproj.compressors import CompressorKind, CompressorSpec, compress, decode
from fedproj.objectives import NoiseModel, make_quadratic, make_tiny_mlp, stochastic_gradient
from fedproj.vectors import StreamPurpose, stream_keys

IDENTITY = CompressorSpec(CompressorKind.IDENTITY)
TOPK_HALF = CompressorSpec(CompressorKind.TOPK, k_fraction=0.5)
ALL_KINDS = list(AlgorithmKind)


def cfg_for(kind, eta=0.5, compressor=IDENTITY, **kw):
    return AlgorithmConfig(kind=kind, eta=eta, compressor=compressor, **kw)


def quadratic_pair(d=2):
    c2 = np.zeros(d)
    c2[0] = 2.0
    return make_quadratic(2, d, [np.zeros(d), c2])


def keys(seed, obj, t, purpose):
    return stream_keys(seed, np.arange(obj.M), t, purpose)


def step(cfg, obj, clients, server, t, seed=0, noise=NoiseModel(0.0)):
    """One round of the engine, as the harness runs it; returns the gradient rows."""
    g = stochastic_gradient(obj.client_loss_grads(server.w)[1], noise,
                            keys(seed, obj, t, StreamPurpose.GRADIENT_NOISE))
    up = client_round(cfg, clients, g, keys(seed, obj, t, StreamPurpose.COMPRESSOR))
    server_round(cfg, server, up)
    assert_mirror(server, clients, seed)
    return g


def drive(cfg, obj, rounds, seed=0, sigma=0.0, w0=None):
    """Run the round engine directly; returns the iterate trajectory."""
    clients, server = init_round(cfg, np.zeros(obj.d) if w0 is None else w0, obj.M,
                                 obj.layer_partition)
    traj = [server.w.copy()]
    for t in range(rounds):
        step(cfg, obj, clients, server, t, seed, NoiseModel(sigma))
        traj.append(server.w.copy())
    return np.array(traj), server, clients


def clients_for(cfg, n_clients, dim):
    return init_round(cfg, np.zeros(dim), n_clients)[0]


def newest(history):
    return history.buf[history.newest]


def decompose(g, dbar):
    """The flat projection: every row as the one block."""
    g, dbar = np.atleast_2d(g), np.atleast_2d(dbar)
    alpha, perp = backend.project_decompose(g, dbar, ((0, g.shape[1]),), PROJECTION_EPS)
    return alpha[:, 0], perp


class TestProjectDecompose:
    def test_collinear(self):
        alpha, perp = decompose([2.0, 0.0], [1.0, 0.0])
        assert alpha[0] == 2.0
        assert np.all(perp == 0.0)

    def test_axis_split(self):
        alpha, perp = decompose([1.0, 1.0], [1.0, 0.0])
        assert alpha[0] == 1.0
        assert perp[0].tolist() == [0.0, 1.0]

    def test_degenerate_zero_direction(self):
        g = np.array([3.0, -1.0])
        alpha, perp = decompose(g, np.zeros(2))
        assert alpha[0] == 0.0
        assert np.array_equal(perp[0], g)

    def test_reconstruction_and_orthogonality_random(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((2000, 6))
        scale = rng.choice([0.0, 1e-12, 1e-3, 1.0, 1e4], 2000)
        dbar = rng.standard_normal((2000, 6)) * scale[:, None]
        alpha, perp = decompose(g, dbar)
        for r in range(2000):
            recon = alpha[r] * dbar[r] + perp[r]
            assert np.linalg.norm(recon - g[r]) <= 1e-12 * (1 + np.linalg.norm(g[r]))
            assert abs(dbar[r] @ perp[r]) <= \
                1e-9 * np.linalg.norm(dbar[r]) * np.linalg.norm(g[r])

    def test_subthreshold_direction_takes_degenerate_branch(self):
        # ||dbar||^2 below the threshold behaves exactly like dbar = 0
        g = np.array([1.0, -2.0])
        alpha, perp = decompose(g, [1e-20, 1e-20])
        assert alpha[0] == 0.0
        assert np.array_equal(perp[0], g)

    def test_blocks_equal_per_slice_calls(self):
        """Each block's coefficients and remainder are a one-block call on its
        slice, bit for bit.  A block whose dbar is zero passes g through, its
        signed zeros included."""
        rng = np.random.default_rng(3)
        g, dbar = rng.standard_normal((2, 4, 8))
        dbar[:, 2:5] = -0.0
        g[:, 2] = -0.0
        blocks = ((0, 2), (2, 5), (5, 8))
        alpha, perp = backend.project_decompose(g, dbar, blocks, PROJECTION_EPS)
        assert alpha.shape == (4, 3) and perp.shape == (4, 8)
        for j, (start, stop) in enumerate(blocks):
            a, p = backend.project_decompose(g[:, start:stop].copy(),
                                             dbar[:, start:stop].copy(),
                                             ((0, stop - start),), PROJECTION_EPS)
            assert alpha[:, j].tobytes() == a[:, 0].tobytes()
            assert perp[:, start:stop].tobytes() == p.tobytes()
        assert not alpha[:, 1].any()
        assert perp[:, 2:5].tobytes() == g[:, 2:5].tobytes()
        for gr, dr, ar, pr in zip(g[:, :2], dbar[:, :2], alpha[:, 0], perp[:, :2]):
            a0 = float(np.dot(gr, dr)) / float(np.dot(dr, dr))
            assert ar == a0 and pr.tobytes() == (gr - a0 * dr).tobytes()


class TestHistoryAverage:
    def test_round0_zero(self):
        assert np.all(History(3, 1, 3).mean() == 0.0)

    def test_partial_window_mean(self):
        history = History(3, 1, 2)
        history.push()[0] = [2.0, 0.0]
        assert history.mean()[0].tolist() == [1.0, 0.0]

    def test_window_truncation(self):
        history = History(2, 1, 2)
        for i in range(1, 6):
            history.push()[0] = float(i)
        assert history.mean()[0].tolist() == [4.5, 4.5]

    def test_buffer_length_tracks_rounds(self):
        cfg = cfg_for(AlgorithmKind.PROJFL, K=3)
        obj = quadratic_pair()
        _, _, clients = drive(cfg, obj, 1)
        assert clients.history.count == 2
        _, _, clients = drive(cfg, obj, 5)
        assert clients.history.count == 3  # capped at K

    def test_rows_are_independent(self):
        history = History(3, 2, 2)
        history.push()[:] = [[3.0, 0.0], [0.0, 6.0]]
        history.push()[:] = [[0.0, 0.0], [0.0, 3.0]]
        assert history.mean().tolist() == [[1.0, 0.0], [0.0, 3.0]]


class TestClientRound:
    def test_projfl_round0_sends_full_gradient(self):
        cfg = cfg_for(AlgorithmKind.PROJFL)
        clients = clients_for(cfg, 1, 3)
        g = np.array([[1.0, -2.0, 0.5]])
        up = client_round(cfg, clients, g, None)
        assert up.coeff.tolist() == [[0.0]]
        assert np.array_equal(up.msg.values, g)
        assert np.array_equal(newest(clients.history), g)

    def test_projfl_ef_identity_keeps_zero_error(self):
        cfg = cfg_for(AlgorithmKind.PROJFL_EF)
        obj = quadratic_pair()
        _, _, clients = drive(cfg, obj, 10)
        assert np.allclose(clients.error, 0.0, atol=1e-15)

    def test_projfl_ef_direction_carries_eta(self):
        cfg = cfg_for(AlgorithmKind.PROJFL_EF, eta=0.25)
        clients = clients_for(cfg, 1, 2)
        up = client_round(cfg, clients, np.array([[4.0, 0.0]]), None)
        assert newest(clients.history)[0].tolist() == [1.0, 0.0]  # eta*g at round 0
        assert up.coeff.tolist() == [[0.0]]

    def test_ef_error_update(self):
        cfg = cfg_for(AlgorithmKind.EF, compressor=TOPK_HALF, zeta=0.75)
        clients = clients_for(cfg, 1, 4)
        g = np.array([[3.0, -1.0, 0.5, -4.0]])
        client_round(cfg, clients, g, None)
        # carried = g (error starts 0); top-2 keeps coords 0 and 3
        assert clients.error[0].tolist() == [0.0, -1.0, 0.5, 0.0]
        carried = g + 0.75 * clients.error
        up2 = client_round(cfg, clients, g, None)
        assert np.allclose(clients.error, carried - decode(up2.msg))

    def test_ef21_gamma_one_equals_ef21_bitwise(self):
        obj = quadratic_pair()
        for seed in (0, 1):
            cfg_a = cfg_for(AlgorithmKind.EF21, compressor=TOPK_HALF)
            cfg_b = cfg_for(AlgorithmKind.EF21_GAMMA, compressor=TOPK_HALF, gamma=1.0)
            ta, _, _ = drive(cfg_a, obj, 30, seed=seed, sigma=0.3)
            tb, _, _ = drive(cfg_b, obj, 30, seed=seed, sigma=0.3)
            assert np.array_equal(ta, tb)

    def test_diana_gamma_one_equals_diana_bitwise(self):
        obj = quadratic_pair()
        randk = CompressorSpec(CompressorKind.RANDK, k_fraction=0.5)
        cfg_a = cfg_for(AlgorithmKind.DIANA, compressor=randk)
        cfg_b = cfg_for(AlgorithmKind.DIANA_GAMMA, compressor=randk, gamma=1.0)
        ta, _, _ = drive(cfg_a, obj, 30, seed=3, sigma=0.3)
        tb, _, _ = drive(cfg_b, obj, 30, seed=3, sigma=0.3)
        assert np.array_equal(ta, tb)

    def test_rows_match_single_client_runs(self):
        """A client's row evolves as it would in an engine of its own."""
        cfg = cfg_for(AlgorithmKind.PROJFL_EF, eta=0.1, compressor=TOPK_HALF, K=2)
        rng = np.random.default_rng(4)
        grads = rng.standard_normal((6, 3, 8))
        batched = clients_for(cfg, 3, 8)
        alone = [clients_for(cfg, 1, 8) for _ in range(3)]
        for g in grads:
            up = client_round(cfg, batched, g, None)
            for i in range(3):
                one = client_round(cfg, alone[i], g[i:i + 1], None)
                assert one.coeff[0] == up.coeff[i]
                assert np.array_equal(alone[i].error[0], batched.error[i])
                assert np.array_equal(newest(alone[i].history)[0], newest(batched.history)[i])


class TestServerRound:
    def test_projfl_hand_computed_first_step(self):
        # quadratic pair, w0 = 0, eta = 0.5: grad f(w0) = (-1, 0), w1 = (0.5, 0)
        cfg = cfg_for(AlgorithmKind.PROJFL, eta=0.5)
        traj, _, _ = drive(cfg, quadratic_pair(), 1)
        assert np.allclose(traj[1], [0.5, 0.0], atol=1e-15)

    def test_all_zero_uploads_leave_w(self):
        cfg = cfg_for(AlgorithmKind.FEDAVG)
        server = init_round(cfg, np.array([1.0, 1.0]), 2)[1]
        server_round(cfg, server, ClientUpload(compress(IDENTITY, np.zeros((2, 2)))))
        assert server.w.tolist() == [1.0, 1.0]

    def test_upload_count_checked(self):
        cfg = cfg_for(AlgorithmKind.FEDAVG)
        server = init_round(cfg, np.zeros(2), 2)[1]
        with pytest.raises(ValueError):
            server_round(cfg, server, ClientUpload(compress(IDENTITY, np.zeros((1, 2)))))

    def test_mirror_desync_detected(self):
        cfg = cfg_for(AlgorithmKind.PROJFL)
        _, server, clients = drive(cfg, quadratic_pair(), 3)
        clients.history.buf += 1.0
        with pytest.raises(MirrorDesyncError):
            assert_mirror(server, clients)

    @pytest.mark.parametrize("kind, array", [(AlgorithmKind.PROJFL_EF, "history"),
                                             (AlgorithmKind.EF21, "direction")])
    def test_mirror_desync_names_seed_round_client_and_array(self, kind, array):
        obj = make_quadratic(4, 3, [np.full(3, float(i)) for i in range(4)])
        cfg = cfg_for(kind, eta=0.1, compressor=TOPK_HALF)
        _, server, clients = drive(cfg, obj, 3, seed=5, sigma=0.2)
        state = clients.history.buf[0] if array == "history" else clients.state
        state[2, 1] = np.nextafter(state[2, 1], np.inf)   # one entry of client 2, one ulp
        with pytest.raises(MirrorDesyncError,
                           match=f"seed 5, round 3: .* client 2 differs .* {array}$"):
            assert_mirror(server, clients, 5)


class TestReductionLadder:
    def gd_trajectory(self, obj, eta, rounds):
        w = np.zeros(obj.d)
        traj = [w.copy()]
        for _ in range(rounds):
            w = w - eta * obj.loss_grad(w)[1]
            traj.append(w.copy())
        return np.array(traj)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_identity_sigma0_matches_plain_gd(self, kind):
        obj = quadratic_pair()
        cfg = cfg_for(kind, eta=0.5, diana_beta=0.0)
        traj, _, _ = drive(cfg, obj, 100)
        ref = self.gd_trajectory(obj, 0.5, 100)
        assert np.max(np.abs(traj - ref)) <= 1e-10

    def test_contraction_factor_exact(self):
        obj = quadratic_pair()
        cfg = cfg_for(AlgorithmKind.PROJFL, eta=0.5)
        traj, _, _ = drive(cfg, obj, 100)
        w_star = obj.w_star
        d0 = np.linalg.norm(traj[0] - w_star)
        for t in (1, 5, 20, 100):
            assert np.linalg.norm(traj[t] - w_star) == pytest.approx(0.5 ** t * d0, abs=1e-10)


def tilde_w(server, clients):
    """The error-shifted iterate ``w - mean_i(e_i)``."""
    return server.w - np.mean(clients.error, axis=0)


class TestTildeW:
    def test_identity_compressor_tilde_equals_w(self):
        cfg = cfg_for(AlgorithmKind.PROJFL_EF)
        _, server, clients = drive(cfg, quadratic_pair(), 5)
        assert np.allclose(tilde_w(server, clients), server.w)

    def test_round0_tilde_is_w0(self):
        cfg = cfg_for(AlgorithmKind.PROJFL_EF, compressor=TOPK_HALF)
        clients, server = init_round(cfg, np.array([1.0, -1.0]), 2)
        assert np.array_equal(tilde_w(server, clients), server.w)

    def test_step_identity_of_error_shifted_iterate(self):
        """tilde_w_{t+1} - tilde_w_t == -eta * mean gradient, every round."""
        obj = quadratic_pair(d=6)
        cfg = cfg_for(AlgorithmKind.PROJFL_EF, eta=0.1,
                      compressor=CompressorSpec(CompressorKind.TOPK, k_fraction=0.34))
        clients, server = init_round(cfg, np.zeros(6), 2)
        for t in range(50):
            tilde_before = tilde_w(server, clients)
            g = step(cfg, obj, clients, server, t)
            expected = tilde_before - cfg.eta * np.mean(g, axis=0)
            assert np.max(np.abs(tilde_w(server, clients) - expected)) <= 1e-10


class TestDecompositionInvariant:
    def test_every_round_reconstructs(self):
        obj = quadratic_pair(d=8)
        cfg = cfg_for(AlgorithmKind.PROJFL, eta=0.3,
                      compressor=CompressorSpec(CompressorKind.RANDK, k_fraction=0.25))
        noise = NoiseModel(0.5)
        clients, server = init_round(cfg, np.zeros(8), 2)
        for t in range(40):
            g = stochastic_gradient(obj.client_loss_grads(server.w)[1], noise,
                                    keys(1, obj, t, StreamPurpose.GRADIENT_NOISE))
            dbar = clients.history.mean()
            alpha, perp = decompose(g, dbar)
            for i in range(2):
                recon = alpha[i] * dbar[i] + perp[i]
                assert np.linalg.norm(recon - g[i]) <= 1e-12 * (1 + np.linalg.norm(g[i]))
                assert abs(np.dot(dbar[i], perp[i])) <= \
                    1e-9 * np.linalg.norm(dbar[i]) * np.linalg.norm(g[i]) + 1e-30
            up = client_round(cfg, clients, g, keys(1, obj, t, StreamPurpose.COMPRESSOR))
            server_round(cfg, server, up)


class TestLayerwiseProjection:
    PART = ((0, 2), (2, 4))

    def first_round(self):
        cfg = cfg_for(AlgorithmKind.PROJFL, eta=0.5, projection_layerwise=True)
        clients, server = init_round(cfg, np.zeros(4), 1, self.PART)
        clients.history.buf[0, 0] = [1.0, 0.0, 0.0, 1.0]
        up = client_round(cfg, clients, np.array([[2.0, 1.0, 3.0, 5.0]]), None)
        return cfg, clients, server, up

    def test_per_layer_coefficients(self):
        _, _, _, up = self.first_round()
        assert up.coeff.tolist() == [[2.0, 5.0]]
        assert up.n_scalars == 2

    def test_server_reconstructs_with_partition(self):
        cfg, clients, server, up = self.first_round()
        server.mirror_history.buf[0, 0] = [1.0, 0.0, 0.0, 1.0]
        server_round(cfg, server, up)
        assert np.array_equal(newest(server.mirror_history), newest(clients.history))
        assert_mirror(server, clients)

    @pytest.mark.parametrize("layerwise", [True, False])
    def test_both_sides_share_one_block_tuple(self, layerwise):
        """``init_round`` resolves the blocks once: both sides hold the same
        tuple, the model's layers or the one flat block."""
        obj = make_tiny_mlp(3, 4, 3, 0, 10)
        cfg = cfg_for(AlgorithmKind.PROJFL, compressor=TOPK_HALF,
                      projection_layerwise=layerwise)
        clients, server = init_round(cfg, np.zeros(obj.d), obj.M, obj.layer_partition)
        assert clients.blocks is server.blocks
        assert clients.blocks == (obj.layer_partition if layerwise else ((0, obj.d),))
        assert clients.layer_partition is obj.layer_partition
        drive(cfg, obj, 3, sigma=0.1)   # every round checks the mirror


class TestConfigValidation:
    def test_bad_eta(self):
        with pytest.raises(ValueError):
            cfg_for(AlgorithmKind.PROJFL, eta=0.0)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            cfg_for(AlgorithmKind.PROJFL, K=0)

    def test_bad_diana_params(self):
        with pytest.raises(ValueError):
            cfg_for(AlgorithmKind.DIANA, diana_alpha=0.0)
        with pytest.raises(ValueError):
            cfg_for(AlgorithmKind.DIANA, diana_beta=1.0)
