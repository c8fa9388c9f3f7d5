"""Experiment runner, metrics pipeline, and convergence-bound verifiers.

A run is declarative: :class:`RunConfig` names the objective, algorithm,
noise model, horizon and seeds, and :func:`run` executes every seed's
round loop, recording per-round metrics and exact traffic counts.  A round
is a handful of batched calls over all ``M`` clients: one oracle pass at the
iterate (:meth:`~fedproj.objectives.FederatedObjective.client_loss_grads`),
whose losses and gradient rows give the round's metrics row and, with the
noise added (:func:`~fedproj.objectives.stochastic_gradient`), the clients'
step (:func:`~fedproj.algorithms.client_round`); then the server's step and
the mirror check, then the bit counts.  Each client draws from streams keyed by
``(seed, client, round, purpose)``, derived for all clients at once, so
runs are deterministic per seed and seeds are independent: parallel
execution cannot change any number.  A seed diverges, and its loop stops,
when the iterate is not finite or its norm exceeds
``divergence_threshold``.

The objective is built once per command: building it costs eigenvalue
solves and a probe grid, and it never changes after construction.  The
caller builds it from the :class:`ObjectiveConfig` and hands the object to
:func:`run` and to the verifiers; worker processes receive the same object
through the pool's initializer instead of rebuilding it.

The verifiers are keyed by item name (:data:`VERIFY_ITEMS`, ``t1.1`` to
``lemmaA1``): one table says which algorithm and compressor certificate each
item needs, :func:`precheck` decides misuse and SKIPPED from the config alone,
and :func:`verify` re-derives the right-hand side of the item's bound from the
objective's constants and compares it against seed-averaged recorded
metrics.  They are pure functions of recorded metrics: re-running a verifier
on a metrics CSV reproduces its report bit-for-bit.  Where a bound speaks
about a randomly selected output iterate, the verifier evaluates the exact
expectation of the selection rule (a weighted average over the recorded
trajectory) instead of sampling, which is the same quantity with zero added
Monte-Carlo noise.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .accounting import CostModel, DEFAULT_COST_MODEL, downlink_bits, message_bits
from .algorithms import (
    AlgorithmConfig,
    AlgorithmKind,
    assert_mirror,
    client_round,
    init_round,
    server_round,
)
from .compressors import (
    beta_certified,
    delta_certified,
    estimate_beta,
    estimate_delta,
)
from .objectives import (
    FederatedObjective,
    NoiseModel,
    ObjectiveKind,
    make_logistic,
    make_quadratic,
    make_tiny_mlp,
    stochastic_gradient,
)
from .vectors import StreamPurpose, derive_stream, stream_keys

__all__ = [
    "ObjectiveConfig",
    "RunConfig",
    "RoundMetrics",
    "SeedResult",
    "build_objective",
    "run",
    "locate_optimum",
    "VERIFY_ITEMS",
    "skip_reason",
    "eta_cap",
    "loosest_eta_cap",
    "precheck",
    "verify",
    "VerifierReport",
    "VerifierError",
    "write_metrics_csv",
    "read_metrics_csv",
    "CSV_COLUMNS",
]

@dataclass(frozen=True)
class ObjectiveConfig:
    """Declarative objective description; :func:`build_objective` turns it into
    the objective, once per command (see the module docstring)."""

    kind: ObjectiveKind = ObjectiveKind.QUADRATIC
    d: int = 2
    clients: int = 2
    # quadratic
    centers: str = "axis_pair"       # axis_pair | random
    separation: float = 2.0
    center_scale: float = 1.0
    # logistic / tiny_mlp
    data_seed: int = 7
    samples_per_client: int = 40
    ridge: float = 0.1
    heterogeneity: float = 0.5
    d_in: int = 5
    hidden: int = 4

    def __post_init__(self):
        object.__setattr__(self, "kind", ObjectiveKind(self.kind))
        for name in ("d", "clients", "d_in", "hidden"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


def build_objective(ocfg: ObjectiveConfig) -> FederatedObjective:
    if ocfg.kind is ObjectiveKind.QUADRATIC:
        if ocfg.centers == "axis_pair":
            if ocfg.clients != 2:
                raise ValueError("axis_pair centers require exactly 2 clients")
            centers = np.zeros((2, ocfg.d))
            centers[1, 0] = ocfg.separation
        elif ocfg.centers == "random":
            rng = derive_stream(ocfg.data_seed, ocfg.clients, 0, StreamPurpose.DATA_SHUFFLE)
            centers = [rng.normals(ocfg.d) * ocfg.center_scale for _ in range(ocfg.clients)]
        else:
            raise ValueError(f"unknown centers mode {ocfg.centers!r}")
        return make_quadratic(ocfg.clients, ocfg.d, centers)
    if ocfg.kind is ObjectiveKind.LOGISTIC:
        return make_logistic(ocfg.clients, ocfg.d, ocfg.data_seed,
                             ocfg.samples_per_client, ocfg.ridge, ocfg.heterogeneity)
    return make_tiny_mlp(ocfg.clients, ocfg.d_in, ocfg.hidden, ocfg.data_seed,
                         ocfg.samples_per_client)


@dataclass(frozen=True)
class RunConfig:
    objective: ObjectiveConfig
    algorithm: AlgorithmConfig
    noise: NoiseModel = NoiseModel()
    rounds: int = 100
    seeds: Tuple[int, ...] = (0,)
    cadence: int = 1
    cost_model: CostModel = DEFAULT_COST_MODEL
    divergence_threshold: float = 1e12

    def __post_init__(self):
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")
        if self.cadence < 1:
            raise ValueError("cadence must be >= 1")
        if not self.divergence_threshold > 0.0:
            raise ValueError(f"divergence_threshold must be > 0, got "
                             f"{self.divergence_threshold}")


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    loss: float
    loss_gap: Optional[float]
    grad_norm_sq: float
    dist_to_opt_sq: Optional[float]
    err_mean_sq: Optional[float]
    err_norm: Optional[float]
    uplink_bits: int
    downlink_bits: int
    cum_uplink_bits: int
    cum_downlink_bits: int

    @property
    def cum_total_bits(self) -> int:
        return self.cum_uplink_bits + self.cum_downlink_bits


# the metrics CSV: the seed, every RoundMetrics field, then cum_total_bits
CSV_COLUMNS = ["seed", *(f.name for f in fields(RoundMetrics)), "cum_total_bits"]


@dataclass
class SeedResult:
    seed: int
    rows: List[RoundMetrics]
    diverged_at: Optional[int] = None


def _metrics_row(obj, t, w_arr, clients, losses, grads, up_bits, down_bits, cum_up,
                 cum_down) -> RoundMetrics:
    loss, grad = obj.fold(losses, grads)
    loss_gap = None if obj.f_star is None else loss - obj.f_star
    dist = None
    if obj.w_star is not None:
        diff = w_arr - obj.w_star
        dist = float(diff @ diff)
    err_mean_sq = err_norm = None
    if clients.error is not None:
        err_mean_sq = float(np.mean(np.vecdot(clients.error, clients.error)))
        err_norm = float(np.linalg.norm(np.mean(clients.error, axis=0)))
    return RoundMetrics(t, loss, loss_gap, float(grad @ grad), dist,
                        err_mean_sq, err_norm, up_bits, down_bits, cum_up, cum_down)


def run_seed(config: RunConfig, obj: FederatedObjective, seed: int) -> SeedResult:
    """One deterministic trajectory; row ``t`` holds the state at ``w_t`` and
    the cumulative traffic spent to reach it.  Each point ``w_t`` costs one
    oracle pass: its losses and gradient rows give row ``t`` and, with the
    noise added, round ``t``'s step; the last point's pass gives the last row,
    whether the seed ran every round or stopped at ``diverged_at``."""
    alg = config.algorithm
    M = obj.M
    ids = np.arange(M)
    clients, server = init_round(alg, np.zeros(obj.d), M, obj.layer_partition)
    up_bits = down_bits = cum_up = cum_down = 0
    rows: List[RoundMetrics] = []
    diverged_at = None

    def observe(t, last=False):
        """The oracle at ``w_t``: records row ``t`` at the cadence, and the
        ``last`` row always; returns the gradient rows, to which the caller
        holds the only reference."""
        losses, grads = obj.client_loss_grads(server.w)
        if last or t % config.cadence == 0:
            rows.append(_metrics_row(obj, t, server.w, clients, losses, grads,
                                     up_bits, down_bits, cum_up, cum_down))
        return grads

    # overflow to inf or NaN is how a seed diverges; it is detected below
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(config.rounds):
            # client_round holds the only reference to the gradient rows
            upload = client_round(
                alg, clients,
                stochastic_gradient(observe(t), config.noise,
                                    stream_keys(seed, ids, t, StreamPurpose.GRADIENT_NOISE)),
                stream_keys(seed, ids, t, StreamPurpose.COMPRESSOR))
            w_prev = server.w
            server_round(alg, server, upload)
            assert_mirror(server, clients, seed)

            # Python ints: the sum of the int64 rows may exceed an int64
            up_bits = sum(message_bits(config.cost_model, upload.msg,
                                       upload.n_scalars).tolist())
            down_bits = downlink_bits(config.cost_model, w_prev, server.w) * M
            cum_up += up_bits
            cum_down += down_bits
            if not (np.isfinite(server.w).all() and
                    float(np.linalg.norm(server.w)) <= config.divergence_threshold):
                diverged_at = t + 1
                break
        observe(diverged_at or config.rounds, last=True)

    return SeedResult(seed, rows, diverged_at)


# set by the pool's initializer, in worker processes only
_WORKER_OBJECTIVE: Optional[FederatedObjective] = None


def _init_worker(obj: FederatedObjective):
    global _WORKER_OBJECTIVE
    _WORKER_OBJECTIVE = obj


def _run_seed_worker(args):
    config, seed = args
    return run_seed(config, _WORKER_OBJECTIVE, seed)


def run(config: RunConfig, obj: FederatedObjective, jobs: int = 1) -> List[SeedResult]:
    """Execute every seed; results are sorted by seed and independent of ``jobs``.

    ``obj`` is the objective built from ``config.objective`` (the caller
    builds it once, see the module docstring).  With ``jobs > 1`` each worker
    process gets it once, through the pool's initializer.
    """
    if jobs <= 1 or len(config.seeds) == 1:
        results = [run_seed(config, obj, s) for s in config.seeds]
    else:
        # imported here: a --jobs 1 command never loads the pool machinery
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker,
                                 initargs=(obj,)) as pool:
            results = list(pool.map(_run_seed_worker,
                                    [(config, s) for s in config.seeds],
                                    chunksize=max(1, len(config.seeds) // (4 * jobs))))
    return sorted(results, key=lambda r: r.seed)


# --- output-point selection --------------------------------------------------

def _geometric_weights(n: int, eta: float, mu: float) -> np.ndarray:
    """Probabilities of the geometric output rule over iterates ``0..n-1``."""
    if not (eta > 0.0 and mu > 0.0):
        raise ValueError("geometric selection requires eta > 0 and mu > 0")
    # weights (1 - eta*mu/2)^{-t}, normalized in log space
    log_r = -math.log1p(-eta * mu / 2.0)
    logw = log_r * np.arange(n)
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


# --- bound verifiers ---------------------------------------------------------

class VerifierError(ValueError):
    """Misuse of a verifier: wrong algorithm, eta above cap, bad recording,
    or an objective without a minimizer to verify against."""


NEWTON_STEPS = 50


def locate_optimum(obj: FederatedObjective):
    """``(w*, f*)``: the closed form when the objective has one, else Newton-CG.

    Logistic ``f`` is minimized from ``w = 0`` by Newton steps whose
    direction solves ``H p = -g`` by conjugate gradients on exact
    Hessian-vector products (:meth:`LogisticObjective.hess_operator`, whose
    curvature weights are computed once per Newton step), to the
    forcing tolerance ``min(1/2, sqrt(||g||)) ||g||``.  A step halves until
    ``f`` falls by ``1e-4`` of the predicted decrease ``-g.p``.  Once ``-g.p``
    is below ``64 eps f``, ``f`` no longer resolves progress: full steps
    go on only while each halves ``||g||``, so the search stops at the
    gradient's rounding floor.  A search still going after ``NEWTON_STEPS``
    steps, such as ``ridge = 0`` on separable data, where ``f`` has no
    minimizer, raises :class:`VerifierError` with the gradient norm reached.
    Tiny-MLP has no optimum search: ``ValueError``.
    """
    if obj.w_star is not None:
        return obj.w_star, obj.f_star
    if obj.kind is not ObjectiveKind.LOGISTIC:
        raise ValueError(f"no optimum search for the {obj.kind.value} objective")
    eps = np.finfo(np.float64).eps
    w = np.zeros(obj.d)
    f, g = obj.loss_grad(w)
    gnorm = float(np.linalg.norm(g))
    for step in range(NEWTON_STEPS):
        p = _newton_direction(obj, w, g, min(0.5, math.sqrt(gnorm)) * gnorm)
        slope = float(g @ p)
        if -slope <= 64 * eps * f:
            f_new, g_new = obj.loss_grad(w + p)
            if not np.linalg.norm(g_new) < gnorm / 2:
                return w, f
            t = 1.0
        else:
            for t in 0.5 ** np.arange(40):
                f_new, g_new = obj.loss_grad(w + t * p)
                if f_new <= f + 1e-4 * t * slope:
                    break
            else:
                break
        w, f, g = w + t * p, f_new, g_new
        gnorm = float(np.linalg.norm(g))
    raise VerifierError(f"the optimum search found no minimizer of f in {step + 1} Newton "
                        f"steps: ||grad f|| = {gnorm:.3g} at ||w|| = "
                        f"{np.linalg.norm(w):.3g}")


def _newton_direction(obj, w: np.ndarray, g: np.ndarray, tol: float) -> np.ndarray:
    """Conjugate gradients on ``H(w) p = -g`` from ``p = 0`` until the
    residual is at most ``tol``, for at most ``d`` iterations; a direction of
    non-positive curvature ends the solve (at ``-g`` if it is the first)."""
    hess = obj.hess_operator(w)
    p = np.zeros_like(g)
    r = -g
    direction = r
    rr = float(r @ r)
    for _ in range(obj.d):
        if math.sqrt(rr) <= tol:
            break
        hd = hess(direction)
        curvature = float(direction @ hd)
        if curvature <= 0.0:
            return p if p.any() else -g
        alpha = rr / curvature
        p = p + alpha * direction
        r = r - alpha * hd
        rr, rr_old = float(r @ r), rr
        direction = r + (rr / rr_old) * direction
    return p


VERIFY_ITEMS = ("t1.1", "t1.2", "t1.3", "t2.1", "t2.2", "t2.3", "lemmaA1")

# item prefix -> (algorithm kind, misuse message, compressor certificate
# predicate, SKIPPED reason when the compressor has no certificate)
_APPLIES = {
    "t1": (AlgorithmKind.PROJFL, "theorem-1 verification applies to projfl runs",
           beta_certified, "compressor has no unbiasedness certificate (biased kind)"),
    "t2": (AlgorithmKind.PROJFL_EF, "theorem-2 verification applies to projfl_ef runs",
           delta_certified, "compressor has no contraction certificate as applied "
                            "(needs topk or identity)"),
    "lemmaA1": (AlgorithmKind.PROJFL_EF, "the error-bound lemma applies to projfl_ef runs",
                delta_certified, "compressor has no contraction certificate as applied"),
}


@dataclass
class VerifierReport:
    item: str
    status: str                      # PASS | FAIL | SKIPPED
    reason: str
    eta: float
    constants: Dict[str, float]
    caveats: List[str]
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    per_round: Optional[List[Dict[str, float]]] = None
    tail_ok: Optional[bool] = None

    def to_dict(self) -> dict:
        return asdict(self)


def _applies(item: str):
    if item not in VERIFY_ITEMS:
        raise VerifierError(f"unknown item {item!r}")
    return _APPLIES[item.partition(".")[0]]


def _certificate(item: str, obj: FederatedObjective, cfg: RunConfig) -> float:
    """The compressor's beta (theorem 1) or delta (theorem 2, the lemma)."""
    estimate = estimate_beta if item.startswith("t1.") else estimate_delta
    return estimate(cfg.algorithm.compressor, obj.d, obj.layer_partition)


def skip_reason(item: str, obj: FederatedObjective, cfg: RunConfig) -> Optional[str]:
    """Why the item's bound does not apply to this run, or None if it does."""
    _, _, certified, uncertified = _applies(item)
    if not certified(cfg.algorithm.compressor):
        return uncertified
    if item == "lemmaA1":
        return None
    if not obj.L_certified:
        return "no certified L for this objective"
    if item.endswith(".1") and obj.mu <= 0.0:
        return "item 1 needs strong convexity (mu > 0)"
    if item == "t1.1" and obj.w_star is None:
        return "item 1 needs a recorded distance-to-optimum metric"
    return None


def eta_cap(item: str, obj: FederatedObjective, cert: float) -> Optional[float]:
    """Largest eta the item's bound admits; ``cert`` is :func:`_certificate`.
    The lemma has no cap."""
    L, mu, b = obj.L, obj.mu, obj.b
    if item.startswith("t1."):
        damp = 1.0 / (1.0 + b * (cert - 1.0) / obj.M)
        if item == "t1.1":
            return damp * 2.0 / (mu + L)
        if item == "t1.2":
            return damp / (2.0 * L)
        return damp / L
    if item == "t2.1":
        return min(cert / (L * (4 + cert)),
                   cert / math.sqrt(40.0 * (2 * L + mu) * b * L))
    if item == "t2.2":
        return min(cert / (L * (4 + cert)), cert / (math.sqrt(80.0 * b) * L))
    if item == "t2.3":
        return cert / (4.0 * math.sqrt(2.0 * (b + 1.0)) * L)
    return None


def loosest_eta_cap(obj: FederatedObjective, cfg: RunConfig) -> Optional[float]:
    """The largest cap over the items that apply to this run, or None."""
    caps = [eta_cap(item, obj, _certificate(item, obj, cfg)) for item in VERIFY_ITEMS
            if _applies(item)[0] is cfg.algorithm.kind
            and skip_reason(item, obj, cfg) is None]
    return max((cap for cap in caps if cap is not None), default=None)


def _stack_metric(results: Sequence[SeedResult], attr: str) -> np.ndarray:
    """(seeds, rounds) array of one metric; raises if missing or ragged."""
    rows = []
    for res in results:
        vals = [getattr(r, attr) for r in res.rows]
        if any(v is None for v in vals):
            raise VerifierError(f"metric {attr} was not recorded on this run")
        rows.append(vals)
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise VerifierError("seeds recorded different numbers of rounds "
                            "(divergence aborted some seeds)")
    return np.asarray(rows, dtype=np.float64)


def _seed_stderr(per_seed: np.ndarray) -> np.ndarray:
    n = per_seed.shape[0]
    if n < 2:
        return np.zeros(per_seed.shape[1:] if per_seed.ndim > 1 else ())
    return per_seed.std(axis=0, ddof=1) / math.sqrt(n)


def _gather_constants(obj, need_w_star: bool, need_f_star: bool):
    """Objective constants plus numerically located optimum when needed."""
    caveats = []
    if not obj.ab_certified:
        caveats.append("(a, b) are empirical probe-grid estimates, not analytic")
    w_star = obj.w_star
    f_star = obj.f_star
    if (need_w_star and w_star is None) or (need_f_star and f_star is None):
        w_hat, f_hat = locate_optimum(obj)
        if need_w_star and w_star is None:
            w_star = w_hat
            caveats.append("w* located numerically")
        if f_star is None:
            f_star = f_hat
            caveats.append("f* located numerically")
    return w_star, f_star, caveats


def precheck(item: str, obj: FederatedObjective, cfg: RunConfig) -> Optional[VerifierReport]:
    """The checks of :func:`verify` that need no run.

    Raises VerifierError on misuse (unknown item, wrong algorithm, a
    recording cadence other than 1, eta above the cap); returns the SKIPPED
    report when the bound does not apply, else None.
    """
    kind, misuse, _, _ = _applies(item)
    eta = cfg.algorithm.eta
    if cfg.algorithm.kind is not kind:
        raise VerifierError(misuse)
    reason = skip_reason(item, obj, cfg)
    if reason is not None:
        return VerifierReport(item, "SKIPPED", reason, eta, {}, [])
    if cfg.cadence != 1:
        raise VerifierError("verifiers need per-round metrics (cadence=1)")
    cap = eta_cap(item, obj, _certificate(item, obj, cfg))
    if cap is not None and eta > cap * (1 + 1e-12):
        raise VerifierError(f"eta={eta} exceeds the item-{item[-1]} cap {cap}")
    return None


def verify(item: str, results: Sequence[SeedResult], obj: FederatedObjective,
           cfg: RunConfig) -> VerifierReport:
    """Check one item's bound against the seed-averaged recorded metrics.

    Theorem 1 (projfl, unbiased compressors) and theorem 2 (projfl_ef,
    contractive compressors) each have three regimes: item 1 strongly convex,
    item 2 convex, item 3 smooth nonconvex.  ``t1.1`` is a per-round distance
    bound with a noise ball, ``lemmaA1`` a per-round bound on the accumulated
    compression error; the other items bound an output iterate's loss gap or
    gradient norm at the horizon.
    """
    skipped = precheck(item, obj, cfg)
    if skipped is not None:
        return skipped
    # a CSV cannot record diverged_at; a seed that stopped early diverged
    bad = [r.seed for r in results
           if r.diverged_at is not None or r.rows[-1].round < cfg.rounds]
    if bad:
        raise VerifierError(f"seeds {bad} diverged; bounds do not apply")
    eta = cfg.algorithm.eta
    cert = _certificate(item, obj, cfg)
    # H3 constant: the Rademacher rows have ||xi||^2 = sigma^2 on every draw
    sigma_sq = cfg.noise.sigma ** 2
    w_star, f_star, caveats = _gather_constants(
        obj, need_w_star=item in ("t1.1", "t1.2", "t2.1", "t2.2"),
        need_f_star=item in ("t1.2", "t1.3", "t2.1", "t2.2", "t2.3"))
    if item == "lemmaA1":
        return _verify_lemma(results, obj, eta, cert, sigma_sq, caveats)

    L, mu, a, M = obj.L, obj.mu, obj.a, obj.M
    theorem1 = item.startswith("t1.")
    constants = {"beta" if theorem1 else "delta": cert, "sigma_sq": sigma_sq, "a": a,
                 "b": obj.b, "mu": mu, "L": L, "M": M, "eta_cap": eta_cap(item, obj, cert)}
    if theorem1:
        noise_term = a * (cert - 1.0) + cert * sigma_sq
    else:
        delta = cert
        compression_var = 2.0 * a / delta + sigma_sq
    if item == "t1.1":
        return _verify_distance(results, obj, eta, noise_term, constants, caveats)

    gap = item in ("t1.2", "t2.1", "t2.2")
    if not gap:
        metric = _stack_metric(results, "grad_norm_sq")
    elif obj.f_star is not None:
        metric = _stack_metric(results, "loss_gap")
    else:
        metric = _stack_metric(results, "loss") - f_star
    T = metric.shape[1] - 1
    geometric = item == "t2.1"
    if geometric:   # exact expectation over the selection rule
        per_seed = metric @ _geometric_weights(T + 1, eta, mu)
    else:
        per_seed = metric.mean(axis=1)
    lhs = float(per_seed.mean())
    se = float(_seed_stderr(per_seed))
    if gap:
        d0 = float(w_star @ w_star)    # w0 = 0
    else:
        f0 = float(_stack_metric(results, "loss")[:, 0].mean())

    if item == "t1.2":
        rhs = d0 / ((T + 1) * eta) + (eta / M) * noise_term
    elif item == "t1.3":
        rhs = 2.0 * (f0 - f_star) / ((T + 1) * eta) + L * eta / M * noise_term
        constants["min_over_t"] = float(metric.mean(axis=0).min())
    elif item == "t2.1":
        rhs = (10.0 / eta) * (1.0 - eta * mu / 2.0) ** (T + 1) * d0 \
            + 20.0 * (2 * L + mu) * (1 - delta) * eta ** 2 / delta * compression_var \
            + 10.0 * eta * sigma_sq / M
    elif item == "t2.2":
        rhs = 10.0 * d0 / (eta * (T + 1)) \
            + 80.0 * L * (1 - delta) * eta ** 2 / delta * compression_var \
            + 10.0 * eta * sigma_sq / M
    else:
        rhs = 8.0 * (f0 - f_star) / ((T + 1) * eta) \
            + 8.0 * (1 - delta) * eta ** 2 * L ** 2 / delta * compression_var \
            + 8.0 * eta * L * sigma_sq / (2.0 * M)

    status = "PASS" if lhs <= rhs + 5.0 * se else "FAIL"
    reason = (f"{'geometric' if geometric else 'uniform'}-output "
              f"{'loss gap' if gap else 'gradient norm'} vs horizon bound")
    return VerifierReport(item, status, reason, eta, constants, caveats, lhs=lhs, rhs=rhs)


def _verify_distance(results, obj, eta, noise_term, constants, caveats) -> VerifierReport:
    """``t1.1``: the distance to the optimum against its bound at every round,
    and the tail of the trajectory inside the noise ball."""
    dists = _stack_metric(results, "dist_to_opt_sq")
    lhs = dists.mean(axis=0)
    se = _seed_stderr(dists)
    T = dists.shape[1] - 1
    rate = 1.0 - 2.0 * eta * obj.mu * obj.L / (obj.mu + obj.L)
    ball = eta * (obj.mu + obj.L) / (2.0 * obj.mu * obj.L * obj.M) * noise_term
    d0 = lhs[0]
    rhs = rate ** np.arange(T + 1) * d0 + ball
    ok = lhs <= rhs + 5.0 * se
    tail_n = max(1, (T + 1) // 5)
    tail_mean = lhs[-tail_n:].mean()
    tail_se = _seed_stderr(dists[:, -tail_n:].mean(axis=1))
    # zero-noise runs plateau at the float-arithmetic floor (~1e-32 * d0)
    # rather than exactly at a zero-radius ball; allow that dust.
    dust = 1e-24 * (1.0 + d0)
    tail_ok = bool(tail_mean <= ball + 5.0 * float(tail_se) + dust)
    per_round = [{"t": int(t), "lhs": float(lhs[t]), "rhs": float(rhs[t]),
                  "stderr": float(se[t])} for t in range(T + 1)]
    constants["noise_ball_sq"] = ball
    status = "PASS" if bool(ok.all()) else "FAIL"
    reason = "bound holds at every round" if status == "PASS" else \
        f"violated at rounds {np.nonzero(~ok)[0][:10].tolist()}"
    return VerifierReport("t1.1", status, reason, eta, constants, caveats,
                          lhs=float(lhs[-1]), rhs=float(rhs[-1]),
                          per_round=per_round, tail_ok=tail_ok)


def _verify_lemma(results, obj, eta, delta, sigma_sq, caveats) -> VerifierReport:
    """``lemmaA1``: at every round, the seed-averaged squared error norm must
    sit below a geometrically discounted sum of the recorded gradient
    energies plus the heterogeneity/noise floor."""
    err = _stack_metric(results, "err_norm") ** 2      # ||mean_i e_i||^2
    grads = _stack_metric(results, "grad_norm_sq")
    mean_err = err.mean(axis=0)
    se = _seed_stderr(err)
    mean_grad = grads.mean(axis=0)
    T = err.shape[1] - 1

    c_sum = 2.0 * (1 - delta) * obj.b * eta ** 2 / delta
    c_floor = 2.0 * (1 - delta) * eta ** 2 / delta * (2.0 * obj.a / delta + sigma_sq)
    factor = 1.0 - delta / 2.0
    running = 0.0
    per_round = [{"t": 0, "lhs": float(mean_err[0]), "rhs": 0.0, "stderr": 0.0}]
    ok = mean_err[0] <= 1e-30  # e_0 = 0 by initialization
    violations = []
    for t in range(T):
        running = running * factor + mean_grad[t]
        rhs_t = c_sum * running + c_floor
        lhs_t = mean_err[t + 1]
        per_round.append({"t": t + 1, "lhs": float(lhs_t), "rhs": float(rhs_t),
                          "stderr": float(se[t + 1])})
        if lhs_t > rhs_t + 5.0 * float(se[t + 1]):
            violations.append(t + 1)
    constants = {"delta": delta, "sigma_sq": sigma_sq, "a": obj.a, "b": obj.b,
                 "eta": eta}
    status = "PASS" if ok and not violations else "FAIL"
    reason = ("error energy below the discounted-gradient bound at every round"
              if status == "PASS" else f"violated at rounds {violations[:10]}")
    worst = max((r["lhs"] / r["rhs"] for r in per_round[1:] if r["rhs"] > 0),
                default=0.0)
    constants["worst_ratio"] = float(worst)
    return VerifierReport("lemmaA1", status, reason, eta, constants, caveats,
                          lhs=float(mean_err[-1]), rhs=float(per_round[-1]["rhs"]),
                          per_round=per_round)


# --- metrics CSV -------------------------------------------------------------

def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_metrics_csv(path, results: Sequence[SeedResult]):
    """One row per (seed, round) in :data:`CSV_COLUMNS` order; floats at 17
    significant digits, a missing metric as an empty cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for res in sorted(results, key=lambda r: r.seed):
            for m in res.rows:
                writer.writerow([_fmt(res.seed),
                                 *(_fmt(getattr(m, name)) for name in CSV_COLUMNS[1:])])


# how each RoundMetrics field is read back, by its annotation
_PARSE = {"int": int, "float": float,
          "Optional[float]": lambda s: None if s == "" else float(s)}


def read_metrics_csv(path) -> List[SeedResult]:
    """Rebuild seed results (metrics only) from a CSV written by this module."""
    per_seed: Dict[int, List[RoundMetrics]] = {}
    parsers = [(f.name, _PARSE[f.type]) for f in fields(RoundMetrics)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != CSV_COLUMNS:
            raise ValueError("unrecognized metrics CSV header")
        for row in reader:
            if len(row) != len(CSV_COLUMNS):
                raise ValueError(f"line {reader.line_num} has {len(row)} fields, "
                                 f"expected {len(CSV_COLUMNS)}")
            m = RoundMetrics(**{name: parse(cell)
                                for (name, parse), cell in zip(parsers, row[1:])})
            per_seed.setdefault(int(row[0]), []).append(m)
    if not per_seed:
        raise ValueError("no metrics rows")
    return [SeedResult(seed, rows) for seed, rows in sorted(per_seed.items())]
