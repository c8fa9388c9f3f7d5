import dataclasses

import numpy as np
import pytest

import fedproj.harness
from fedproj.accounting import CostModel
from fedproj.algorithms import AlgorithmConfig, AlgorithmKind
from fedproj.compressors import CompressorKind, CompressorSpec
from fedproj.harness import (
    ObjectiveConfig,
    RunConfig,
    VerifierError,
    _geometric_weights,
    build_objective,
    locate_optimum,
    read_metrics_csv,
    run,
    eta_cap,
    run_seed,
    verify,
    write_metrics_csv,
)
from fedproj.objectives import (
    LogisticObjective,
    NoiseModel,
    ObjectiveKind,
    stochastic_gradient,
)
from fedproj.vectors import StreamPurpose, derive_stream, stream_keys

QUAD = ObjectiveConfig(ObjectiveKind.QUADRATIC, d=2, clients=2)
IDENTITY = CompressorSpec(CompressorKind.IDENTITY)


def quad_config(kind=AlgorithmKind.PROJFL, eta=0.5, compressor=IDENTITY,
                rounds=50, seeds=(0,), sigma=0.0, d=2, **alg_kw):
    ocfg = ObjectiveConfig(ObjectiveKind.QUADRATIC, d=d, clients=2)
    return RunConfig(
        objective=ocfg,
        algorithm=AlgorithmConfig(kind=kind, eta=eta, compressor=compressor, **alg_kw),
        noise=NoiseModel(sigma),
        rounds=rounds,
        seeds=tuple(seeds),
    )


def run_built(cfg, jobs=1):
    """Every seed of ``cfg`` on the objective its config builds."""
    return run(cfg, build_objective(cfg.objective), jobs)


class TestRun:
    def test_exact_gd_contraction(self):
        cfg = quad_config(rounds=30)
        res = run_built(cfg)[0]
        d0 = res.rows[0].dist_to_opt_sq
        for m in res.rows:
            assert m.dist_to_opt_sq == pytest.approx(0.25 ** m.round * d0, abs=1e-12)

    def test_uplink_sum_past_int64_does_not_wrap(self):
        """A qsgd row at ``value_bits = 2**62`` still fits an int64, the two
        clients' sum does not: each round records M times the row's count."""
        cfg = dataclasses.replace(
            quad_config(AlgorithmKind.FEDAVG, compressor=CompressorSpec(CompressorKind.QSGD),
                        rounds=2, d=3),
            cost_model=CostModel(value_bits=2**62))
        per_row = 2**62 + 3 * (1 + 1)   # the norm, then a sign and a 1-bit level each
        rows = run_built(cfg)[0].rows
        assert [m.uplink_bits for m in rows] == [0, 2 * per_row, 2 * per_row]
        assert rows[-1].cum_uplink_bits == 4 * per_row

    def test_zero_rounds_single_row(self):
        cfg = quad_config(rounds=0)
        res = run_built(cfg)[0]
        assert len(res.rows) == 1
        assert res.rows[0].round == 0
        assert res.rows[0].cum_total_bits == 0

    def test_row_count_and_monotone_bits(self):
        cfg = quad_config(rounds=20, compressor=CompressorSpec(CompressorKind.TOPK, k_fraction=0.5))
        res = run_built(cfg)[0]
        assert len(res.rows) == 21
        totals = [m.cum_total_bits for m in res.rows]
        assert totals == sorted(totals)
        assert totals[-1] > 0

    def test_csv_determinism(self, tmp_path):
        cfg = quad_config(kind=AlgorithmKind.PROJFL_EF, eta=0.1,
                          compressor=CompressorSpec(CompressorKind.TOPK, k_fraction=0.5),
                          rounds=25, seeds=(0, 1), sigma=0.3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(p1, run_built(cfg))
        write_metrics_csv(p2, run_built(cfg))
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_roundtrip_preserves_metrics(self, tmp_path):
        cfg = quad_config(rounds=10, seeds=(3, 4), sigma=0.2,
                          compressor=CompressorSpec(CompressorKind.RANDK, k_fraction=0.5))
        results = run_built(cfg)
        path = tmp_path / "m.csv"
        write_metrics_csv(path, results)
        loaded = read_metrics_csv(path)
        assert [r.seed for r in loaded] == [3, 4]
        for a, b in zip(results, loaded):
            for ma, mb in zip(a.rows, b.rows):
                assert ma.loss == mb.loss
                assert ma.grad_norm_sq == mb.grad_norm_sq
                assert ma.cum_total_bits == mb.cum_total_bits

    def test_parallel_equals_sequential(self, tmp_path):
        cfg = quad_config(rounds=15, seeds=(0, 1, 2, 3), sigma=0.4,
                          compressor=CompressorSpec(CompressorKind.RANDK, k_fraction=0.5))
        seq = run_built(cfg, jobs=1)
        par = run_built(cfg, jobs=2)
        p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
        write_metrics_csv(p1, seq)
        write_metrics_csv(p2, par)
        assert p1.read_bytes() == p2.read_bytes()

    def test_client_order_independence(self):
        """A client's draws do not depend on the other clients (keyed streams):
        the batched gradient rows equal draws made client by client, in reverse."""
        obj = build_objective(ObjectiveConfig(ObjectiveKind.QUADRATIC, d=5, clients=4,
                                              centers="random"))
        noise = NoiseModel(0.5)
        rng = np.random.default_rng(0)
        for t in range(30):
            w = rng.standard_normal(5)
            rows = stochastic_gradient(obj.client_loss_grads(w)[1], noise, stream_keys(
                5, np.arange(4), t, StreamPurpose.GRADIENT_NOISE))
            for i in (3, 2, 1, 0):
                key = derive_stream(5, i, t, StreamPurpose.GRADIENT_NOISE).key
                alone = obj._client_loss_grad(i, w)[1] + noise.draw(5, key)[0]
                assert np.array_equal(rows[i], alone)

    @pytest.mark.parametrize("cadence", [1, 3])
    @pytest.mark.parametrize("threshold, stops", [(1e12, False), (1.0, True)])
    def test_one_oracle_pass_per_point(self, monkeypatch, cadence, threshold, stops):
        """Each point ``w_t`` costs one gradient per client: it gives row ``t``
        and round ``t``'s step.  A seed that stops at ``diverged_at`` has
        ``diverged_at + 1`` points."""
        ocfg = ObjectiveConfig(ObjectiveKind.LOGISTIC, d=6, clients=3, samples_per_client=10)
        obj = build_objective(ocfg)
        calls = []
        grad = LogisticObjective._grad_from_margins
        monkeypatch.setattr(LogisticObjective, "_grad_from_margins",
                            lambda self, *args: calls.append(1) or grad(self, *args))
        cfg = RunConfig(objective=ocfg,
                        algorithm=AlgorithmConfig(AlgorithmKind.PROJFL, eta=0.5,
                                                  compressor=CompressorSpec(
                                                      CompressorKind.RANDK, k_fraction=0.5)),
                        noise=NoiseModel(0.1), rounds=7, seeds=(0, 1), cadence=cadence,
                        divergence_threshold=threshold)
        results = run(cfg, obj)
        stopped = [r.diverged_at for r in results if r.diverged_at is not None]
        assert len(stopped) == (2 if stops else 0) and all(1 < t < 7 for t in stopped)
        points = sum((r.diverged_at or cfg.rounds) + 1 for r in results)
        assert len(calls) == obj.M * points

    def test_divergence_guard(self):
        cfg = quad_config(eta=3.0, rounds=200)  # |1 - eta| = 2: diverges
        res = run_built(cfg)[0]
        assert res.diverged_at is not None
        assert res.rows[-1].round == res.diverged_at

    def test_stop_off_cadence_records_its_row(self):
        """A seed that stops between recorded rounds still records the row of
        the point it stops at: its last row is round ``diverged_at``."""
        cfg = RunConfig(objective=QUAD,
                        algorithm=AlgorithmConfig(AlgorithmKind.FEDAVG, eta=3.0,
                                                  compressor=IDENTITY),
                        rounds=10, seeds=(0,), cadence=3, divergence_threshold=10.0)
        res = run_seed(cfg, build_objective(QUAD), 0)   # ||w_t||: 3, 3, 9, 15
        assert res.diverged_at == 4
        assert [m.round for m in res.rows] == [0, 3, 4]

    @pytest.mark.parametrize("kind, compressor, d, forms", [
        (AlgorithmKind.PROJFL, CompressorSpec(CompressorKind.RANDK, k_fraction=0.25), 64,
         {"bitmap", "dense"}),
        (AlgorithmKind.FEDAVG, CompressorSpec(CompressorKind.TOPK, k_fraction=1 / 256), 256,
         {"pairs"}),
    ])
    def test_downlink_ledger(self, monkeypatch, kind, compressor, d, forms):
        """Row ``t``'s ``downlink_bits`` is M times the cheapest form of round
        ``t - 1``'s broadcast, min(32 d, 64 n, d + 32 n) + 2 bits, with ``n``
        the changed float32 coordinates; the cumulative columns are running
        sums."""
        M = 4
        ocfg = ObjectiveConfig(ObjectiveKind.QUADRATIC, d=d, clients=M,
                               centers="random", center_scale=1.5)
        cfg = RunConfig(objective=ocfg,
                        algorithm=AlgorithmConfig(kind, eta=0.2, compressor=compressor),
                        noise=NoiseModel(0.2), rounds=12, seeds=(0,))
        changed = []
        server_round = fedproj.harness.server_round

        def counting(alg, server, upload):
            w_prev = server.w.astype(np.float32)
            server_round(alg, server, upload)
            w_next = server.w.astype(np.float32)
            changed.append(int(np.count_nonzero(w_prev.view(np.uint32)
                                                != w_next.view(np.uint32))))

        monkeypatch.setattr(fedproj.harness, "server_round", counting)
        rows = run_built(cfg)[0].rows
        costs = [dict(dense=32 * d, pairs=64 * n, bitmap=d + 32 * n) for n in changed]
        assert [m.downlink_bits for m in rows] == \
            [0] + [M * (min(c.values()) + 2) for c in costs]
        assert {min(c, key=c.get) for c in costs} == forms
        cum_up = cum_down = 0
        for m in rows:
            cum_up += m.uplink_bits
            cum_down += m.downlink_bits
            assert (m.cum_uplink_bits, m.cum_downlink_bits, m.cum_total_bits) == \
                (cum_up, cum_down, cum_up + cum_down)

    def test_cadence_thins_rows(self):
        cfg = RunConfig(objective=QUAD,
                        algorithm=AlgorithmConfig(AlgorithmKind.FEDAVG, eta=0.5,
                                                  compressor=IDENTITY),
                        rounds=10, seeds=(0,), cadence=5)
        res = run_built(cfg)[0]
        assert [m.round for m in res.rows] == [0, 5, 10]


class TestSelectOutput:
    """The geometric output rule whose exact expectation ``verify("t2.1", ...)``
    takes over the recorded trajectory."""

    def test_geometric_weight_ratio(self):
        # eta*mu/2 = 0.5: each iterate weighs twice the one before
        w = _geometric_weights(4, eta=1.0, mu=1.0)
        assert w.sum() == pytest.approx(1.0, rel=1e-15)
        assert np.allclose(w[1:] / w[:-1], 2.0, rtol=1e-14)

    def test_geometric_requires_mu(self):
        with pytest.raises(ValueError):
            _geometric_weights(2, eta=0.1, mu=0.0)


class TestTheorem1Verifier:
    def test_identity_zero_slack_every_round(self):
        cfg = quad_config(rounds=60, seeds=(0, 1, 2))
        obj = build_objective(cfg.objective)
        results = run(cfg, obj)
        report = verify("t1.1", results, obj, cfg)
        assert report.status == "PASS"
        for row in report.per_round:
            assert row["stderr"] == 0.0
            assert row["lhs"] <= row["rhs"] * (1 + 1e-12)
        assert report.tail_ok

    def test_randk_strongly_convex_passes(self):
        d, kf = 20, 0.1
        beta = 10.0
        eta = 1.0 / (1.0 + 1.0 * (beta - 1) / 2)  # cap for mu=L=1, b=1, M=2
        cfg = quad_config(eta=eta, rounds=150, seeds=tuple(range(40)), d=d,
                          compressor=CompressorSpec(CompressorKind.RANDK, k_fraction=kf))
        obj = build_objective(cfg.objective)
        results = run(cfg, obj)
        assert eta_cap("t1.1", obj, beta) == pytest.approx(eta)
        report = verify("t1.1", results, obj, cfg)
        assert report.status == "PASS"
        assert report.constants["beta"] == beta

    def test_eta_above_cap_raises(self):
        cfg = quad_config(eta=1.1, rounds=5)  # cap is 1.0 for identity
        obj = build_objective(cfg.objective)
        results = run(cfg, obj)
        with pytest.raises(VerifierError):
            verify("t1.1", results, obj, cfg)

    def test_topk_skipped(self):
        cfg = quad_config(eta=0.5, rounds=5,
                          compressor=CompressorSpec(CompressorKind.TOPK, k_fraction=0.5))
        obj = build_objective(cfg.objective)
        results = run(cfg, obj)
        report = verify("t1.1", results, obj, cfg)
        assert report.status == "SKIPPED"

    def test_tiny_mlp_skipped_no_certified_L(self):
        ocfg = ObjectiveConfig(ObjectiveKind.TINY_MLP, clients=2, d_in=4, hidden=3,
                               samples_per_client=10)
        obj = build_objective(ocfg)
        cfg = RunConfig(objective=ocfg,
                        algorithm=AlgorithmConfig(AlgorithmKind.PROJFL, eta=0.01,
                                                  compressor=IDENTITY),
                        rounds=3, seeds=(0,))
        results = run(cfg, obj)
        report = verify("t1.3", results, obj, cfg)
        assert report.status == "SKIPPED"
        assert "certified L" in report.reason

    def test_wrong_algorithm_rejected(self):
        cfg = quad_config(kind=AlgorithmKind.FEDAVG, rounds=3)
        obj = build_objective(cfg.objective)
        results = run(cfg, obj)
        with pytest.raises(VerifierError):
            verify("t1.1", results, obj, cfg)

    def test_item2_convex_bound(self):
        beta = 4.0
        eta = 0.5 / (1.0 + (beta - 1) / 2)  # cap 1/(2L) * damping
        cfg = quad_config(eta=eta, rounds=100, seeds=tuple(range(20)), d=8,
                          compressor=CompressorSpec(CompressorKind.RANDK, k_fraction=0.25))
        obj = build_objective(cfg.objective)
        results = run(cfg, obj)
        report = verify("t1.2", results, obj, cfg)
        assert report.status == "PASS"

    def test_item3_caveats_name_only_what_it_uses(self):
        ocfg = ObjectiveConfig(ObjectiveKind.LOGISTIC, d=6, clients=2, samples_per_client=10)
        obj = build_objective(ocfg)
        assert obj.w_star is None and obj.f_star is None
        cfg = RunConfig(objective=ocfg,
                        algorithm=AlgorithmConfig(AlgorithmKind.PROJFL, eta=0.01,
                                                  compressor=IDENTITY),
                        rounds=5, seeds=(0,))
        report = verify("t1.3", run(cfg, obj), obj, cfg)
        assert report.status == "PASS"
        assert "f* located numerically" in report.caveats
        assert "w* located numerically" not in report.caveats

    def test_pure_function_of_csv(self, tmp_path):
        cfg = quad_config(rounds=30, seeds=(0, 1),
                          compressor=CompressorSpec(CompressorKind.RANDK, k_fraction=0.5),
                          eta=0.4)
        obj = build_objective(cfg.objective)
        results = run(cfg, obj)
        direct = verify("t1.1", results, obj, cfg)
        path = tmp_path / "m.csv"
        write_metrics_csv(path, results)
        reloaded = verify("t1.1", read_metrics_csv(path), obj, cfg)
        assert direct.to_dict() == reloaded.to_dict()


class TestTheorem2Verifier:
    def topk_cfg(self, item, sigma=0.0, rounds=300, seeds=(0,)):
        obj = build_objective(ObjectiveConfig(ObjectiveKind.QUADRATIC, d=20, clients=2))
        delta = 0.1
        eta = eta_cap(f"t2.{item}", obj, delta)
        return quad_config(kind=AlgorithmKind.PROJFL_EF, eta=eta, rounds=rounds,
                           seeds=seeds, sigma=sigma, d=20,
                           compressor=CompressorSpec(CompressorKind.TOPK, k_fraction=0.1))

    def test_identity_delta_one_passes(self):
        obj = build_objective(QUAD)
        eta = eta_cap("t2.2", obj, 1.0)
        cfg = quad_config(kind=AlgorithmKind.PROJFL_EF, eta=eta, rounds=100)
        results = run(cfg, obj)
        report = verify("t2.2", results, build_objective(cfg.objective), cfg)
        assert report.status == "PASS"
        assert report.constants["delta"] == 1.0

    def test_topk_item1(self):
        cfg = self.topk_cfg(1)
        results = run_built(cfg)
        report = verify("t2.1", results, build_objective(cfg.objective), cfg)
        assert report.status == "PASS"

    def test_randk_skipped(self):
        cfg = quad_config(kind=AlgorithmKind.PROJFL_EF, eta=0.01, rounds=5,
                          compressor=CompressorSpec(CompressorKind.RANDK, k_fraction=0.5))
        results = run_built(cfg)
        report = verify("t2.1", results, build_objective(cfg.objective), cfg)
        assert report.status == "SKIPPED"

    def test_eta_above_cap_raises(self):
        cfg = self.topk_cfg(1)
        results = run_built(cfg)
        bad = RunConfig(objective=cfg.objective,
                        algorithm=AlgorithmConfig(AlgorithmKind.PROJFL_EF, eta=0.5,
                                                  compressor=cfg.algorithm.compressor),
                        rounds=cfg.rounds, seeds=cfg.seeds)
        with pytest.raises(VerifierError):
            verify("t2.1", results, build_objective(cfg.objective), bad)


class TestLemmaVerifier:
    def test_identity_error_stays_zero(self):
        cfg = quad_config(kind=AlgorithmKind.PROJFL_EF, eta=0.2, rounds=50)
        results = run_built(cfg)
        report = verify("lemmaA1", results, build_objective(cfg.objective), cfg)
        assert report.status == "PASS"
        assert report.lhs == 0.0

    def test_topk_bound_holds(self):
        obj = build_objective(ObjectiveConfig(ObjectiveKind.QUADRATIC, d=20, clients=2))
        eta = eta_cap("t2.2", obj, 0.1)
        cfg = quad_config(kind=AlgorithmKind.PROJFL_EF, eta=eta, rounds=200,
                          seeds=tuple(range(10)), sigma=0.5, d=20,
                          compressor=CompressorSpec(CompressorKind.TOPK, k_fraction=0.1))
        results = run(cfg, obj)
        report = verify("lemmaA1", results, build_objective(cfg.objective), cfg)
        assert report.status == "PASS"
        assert report.constants["worst_ratio"] < 1.0

    def test_wrong_algorithm(self):
        cfg = quad_config(kind=AlgorithmKind.EF, rounds=5)
        results = run_built(cfg)
        with pytest.raises(VerifierError):
            verify("lemmaA1", results, build_objective(cfg.objective), cfg)


class TestLocateOptimum:
    def test_quadratic_closed_form(self):
        obj = build_objective(QUAD)
        w_hat, f_hat = locate_optimum(obj)
        assert np.allclose(w_hat, obj.w_star, atol=1e-6)
        assert f_hat == pytest.approx(obj.f_star, abs=1e-9)

    def test_logistic_stationarity(self):
        obj = build_objective(ObjectiveConfig(ObjectiveKind.LOGISTIC, d=10, clients=3,
                                              samples_per_client=20, ridge=0.1))
        w_hat, f_hat = locate_optimum(obj)
        g = obj.loss_grad(w_hat)[1]
        assert np.linalg.norm(g) <= 1e-12
        assert f_hat <= obj.loss_grad(np.zeros(10))[0]

    def test_tiny_mlp_is_refused(self):
        obj = build_objective(ObjectiveConfig(ObjectiveKind.TINY_MLP, clients=2, d_in=3,
                                              hidden=2, samples_per_client=5))
        with pytest.raises(ValueError, match="no optimum search for the tiny_mlp objective"):
            locate_optimum(obj)
