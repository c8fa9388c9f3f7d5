"""Federated objective suites with analytic constants and noisy gradient oracles.

Each objective is a mean ``f = (1/M) sum_i f_i`` over per-client losses and
carries the constants the bound verifiers need: strong convexity ``mu``,
smoothness ``L``, the gradient-dissimilarity pair ``(a, b)`` with
``(1/M) sum_i ||grad f_i(w)||^2 <= a + b ||grad f(w)||^2``, and, when known in
closed form, the minimizer and optimal value.  Certification flags record
which constants are analytic and which are empirical estimates.

Three suites:

* ``quadratic``: ``f_i(w) = 0.5 ||w - c_i||^2``.  Everything is analytic:
  ``mu = L = 1``, ``w* = mean(c_i)``, ``a = (1/M) sum ||c_i - mean||^2``,
  ``b = 1`` (the dissimilarity identity holds with equality).
* ``logistic``: ridge-regularized logistic loss on synthetic Gaussian blobs.
  ``mu = ridge`` and ``L = ridge + max_i lambda_max(X_i^T X_i) / (4 n_i)`` are
  certified from the data; ``(a, b)`` are estimated on a probe grid with
  ``b = 2`` fixed and are flagged empirical.  ``w*`` and ``f*`` have no
  closed form: ``harness.locate_optimum`` finds them by Newton-CG on the
  exact Hessian-vector products of ``LogisticObjective.hess_operator``.  The
  sigmoid is numpy's ``exp``, so no suite needs more than numpy.
* ``tiny_mlp``: one hidden tanh layer with squared loss and hand-coded
  backprop; non-convex, ``mu = 0``, bounded below by 0, ``L`` is an empirical
  Lipschitz estimate (flagged non-certified), and ``(a, b)`` come from the
  same probe grid as logistic's.

Each suite has one per-client oracle, ``_client_loss_grad(i, w)``: the loss
and the gradient of client ``i`` from one forward pass.
``FederatedObjective.client_loss_grads`` is its batched form: every client's
loss, and every client's gradient as the rows of an ``(M, d)`` array (``w - C``
in one operation for quadratic).  :meth:`FederatedObjective.fold` turns those
into ``(f(w), grad f(w))`` in a fixed order: ``sum`` of the client losses, then
``/ M``, and the left fold ``g_0 + g_1 + ...``, then ``/ M``.  ``loss_grad``,
the dissimilarity probe and the harness's metrics rows all fold the same rows,
and :func:`stochastic_gradient` adds the clients' noise rows to them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from . import backend
from .vectors import StreamPurpose, derive_stream

__all__ = [
    "ObjectiveKind",
    "NoiseKind",
    "NoiseModel",
    "FederatedObjective",
    "make_quadratic",
    "make_logistic",
    "make_tiny_mlp",
    "stochastic_gradient",
]

# Byte budget of the noise rows one kernel call draws: a wide model draws a
# few rows at a time, so the kernel's temporaries never span all M clients.
NOISE_BLOCK_BYTES = 1 << 18


class ObjectiveKind(str, Enum):
    QUADRATIC = "quadratic"
    LOGISTIC = "logistic"
    TINY_MLP = "tiny_mlp"


class NoiseKind(str, Enum):
    GAUSSIAN_ISO = "gaussian_iso"
    UNIFORM_BALL = "uniform_ball"


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean gradient noise with second moment at most ``sigma**2``.

    The isotropic Gaussian uses per-coordinate variance ``sigma**2 / d`` so
    its second moment equals ``sigma**2`` exactly; the uniform ball of radius
    ``sigma`` has second moment ``sigma**2 * d / (d + 2)``.
    """

    sigma: float = 0.0
    distribution: NoiseKind = NoiseKind.GAUSSIAN_ISO

    def __post_init__(self):
        object.__setattr__(self, "distribution", NoiseKind(self.distribution))
        if not 0.0 <= self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")

    def draw(self, dim: int, keys) -> np.ndarray:
        """``(R, dim)`` noise rows, row ``r`` from the stream keyed ``keys[r]``.

        The ball's direction is the row's ``dim`` normals; its radius comes
        from the next uniform of the same stream.
        """
        keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        rows = backend.stream_normals(keys, 0, dim)
        if self.distribution is NoiseKind.GAUSSIAN_ISO:
            rows *= self.sigma / np.sqrt(dim)
            return rows
        u = backend.stream_uniforms(keys, 2 * ((dim + 1) // 2), 1)[:, 0]
        for r, direction in enumerate(rows):
            nrm = np.linalg.norm(direction)
            if nrm == 0.0:
                direction[:] = 0.0
            else:
                direction *= self.sigma * u[r] ** (1.0 / dim) / nrm
        return rows


class FederatedObjective(ABC):
    """Gradient oracle for ``f = (1/M) sum_i f_i`` plus constants metadata."""

    kind: ObjectiveKind
    M: int
    d: int
    mu: float
    L: float
    a: float
    b: float
    w_star: Optional[np.ndarray]
    f_star: Optional[float]
    ab_certified: bool
    L_certified: bool
    layer_partition = None

    @abstractmethod
    def _client_loss_grad(self, client_id: int, w: np.ndarray) -> Tuple[float, np.ndarray]:
        """Loss and gradient of one client from one forward pass."""

    def client_loss_grads(self, w: np.ndarray) -> Tuple[List[float], np.ndarray]:
        """Every client's loss at ``w``, and its gradient as the rows of an
        ``(M, d)`` array."""
        losses = []
        rows = np.empty((self.M, self.d))
        for i in range(self.M):
            loss, rows[i] = self._client_loss_grad(i, w)
            losses.append(loss)
        return losses, rows

    @staticmethod
    def fold(losses: List[float], rows: np.ndarray) -> Tuple[float, np.ndarray]:
        """``(f, grad f)`` from the clients' losses and gradient rows: ``sum``
        of the losses, then ``/ M``; the left fold ``g_0 + g_1 + ...``, then
        ``/ M``.  The fold is a loop: ``np.sum`` over the rows sums pairwise."""
        acc = rows[0]
        for g in rows[1:]:
            acc = acc + g
        return sum(losses) / len(rows), acc / len(rows)

    def loss_grad(self, w: np.ndarray) -> Tuple[float, np.ndarray]:
        """``(f(w), grad f(w))``, one forward pass per client."""
        return self.fold(*self.client_loss_grads(w))

    def _estimate_dissimilarity(self):
        """Maximize the implied ``a`` at fixed ``b`` over a probe grid.

        Probes cover random directions at several radii plus a short descent
        path, so the estimate reflects the region trajectories actually visit.
        The result is empirical, not analytic.  Each probe's client gradients
        are computed once; a descent step reuses the mean gradient of the
        probe it starts from.
        """
        worst = 0.0

        def probe(p):
            nonlocal worst
            losses, rows = self.client_loss_grads(p)
            gbar = self.fold(losses, rows)[1]
            mean_sq = np.mean(np.vecdot(rows, rows))
            worst = max(worst, mean_sq - self.b * float(gbar @ gbar))
            return gbar

        gbar = probe(np.zeros(self.d))
        rng = derive_stream(0xA11CE, self.M, 0, StreamPurpose.DATA_SHUFFLE)
        for radius in (0.25, 0.5, 1.0, 2.0, 4.0):
            for _ in range(10):
                u = rng.normals(self.d)
                u /= max(np.linalg.norm(u), 1e-12)
                probe(radius * u)
        step = 1.0 / self.L if self.L > 0 else 0.0   # L = 0 only on all-zero data
        w = np.zeros(self.d)
        for _ in range(40):
            w = w - step * gbar
            gbar = probe(w)
        self.a = max(worst, 0.0) * 1.05  # small headroom over the probe max


class QuadraticObjective(FederatedObjective):
    kind = ObjectiveKind.QUADRATIC

    def __init__(self, centers: np.ndarray):
        self.centers = centers
        self.M, self.d = centers.shape
        cbar = centers.mean(axis=0)
        self.mu = 1.0
        self.L = 1.0
        self.a = float(np.mean(np.sum((centers - cbar) ** 2, axis=1)))
        self.b = 1.0
        self.w_star = cbar
        self.f_star = 0.5 * self.a
        self.ab_certified = True
        self.L_certified = True

    def _client_loss_grad(self, i, w):
        diff = w - self.centers[i]
        return 0.5 * float(diff @ diff), diff

    def client_loss_grads(self, w):
        rows = w - self.centers
        return (0.5 * np.vecdot(rows, rows)).tolist(), rows


class LogisticObjective(FederatedObjective):
    kind = ObjectiveKind.LOGISTIC

    def __init__(self, features: List[np.ndarray], labels: List[np.ndarray], ridge: float):
        self.features = features
        self.labels = labels
        self.ridge = ridge
        self.M = len(features)
        self.d = features[0].shape[1]
        self.mu = ridge
        self.L = ridge + self._max_curvature(features)
        self.L_certified = True
        self.w_star = None
        self.f_star = None
        self.b = 2.0
        self.ab_certified = False
        self._estimate_dissimilarity()

    @staticmethod
    def _max_curvature(features) -> float:
        """``max_i lambda_max(X_i^T X_i) / (4 n_i)``, bit-equal to ``eigvalsh``
        of every client's ``X_i^T X_i``.  Each client is first screened by the
        smaller Gram matrix, whose top eigenvalue is the same up to rounding
        errors far below the margin ``1e-8 ||X_i||_F^2``; only a client whose
        upper end reaches every other client's lower end pays the d x d solve."""
        def top(gram):
            return float(np.linalg.eigvalsh(gram)[-1])

        ends = []
        for X in features:
            est = top(X @ X.T if X.shape[0] < X.shape[1] else X.T @ X)
            slack = 1e-8 * float(np.vdot(X, X))
            ends.append([(est - slack) / (4 * len(X)), (est + slack) / (4 * len(X))])
        floor = max(lo for lo, _ in ends) if np.isfinite(ends).all() else -np.inf
        return max(top(X.T @ X) / (4 * len(X))
                   for X, (_, hi) in zip(features, ends) if not hi < floor)

    def _client_loss_grad(self, i, w):
        X, y = self.features[i], self.labels[i]
        margins = (X @ w) * y
        return self._loss_from_margins(margins, w), self._grad_from_margins(X, y, margins, w)

    def _loss_from_margins(self, margins, w):
        return float(np.logaddexp(0.0, -margins).mean()) + 0.5 * self.ridge * float(w @ w)

    def _grad_from_margins(self, X, y, margins, w):
        """``-X^T (y sigma(-margins)) / n + ridge w``.  The weight
        ``y / (1 + exp(margins))`` equals ``y sigma(-margins)``; a margin past
        the overflow of ``exp`` gives weight 0, without a warning."""
        with np.errstate(over="ignore"):
            weights = y / (1.0 + np.exp(margins))
        return -(X.T @ weights) / X.shape[0] + self.ridge * w

    def hess_operator(self, w: np.ndarray):
        """``v -> grad^2 f(w) v = (1/M) sum_i X_i^T (s_i (1 - s_i) X_i v) / n_i
        + ridge v`` with ``s_i = sigma(X_i w)``.  The curvature weights
        ``c_i = s_i (1 - s_i)`` are computed once at ``w``, and the product
        ``c_i (X_i v)`` equals ``s_i (1 - s_i) (X_i v)`` evaluated left to right."""
        with np.errstate(over="ignore"):
            sigmoids = [1.0 / (1.0 + np.exp(-(X @ w))) for X in self.features]
        weights = [s * (1.0 - s) for s in sigmoids]

        def apply(v):   # the clients' terms in fold's order, then / M
            terms = [X.T @ (c * (X @ v)) / X.shape[0] for X, c in zip(self.features, weights)]
            return self.fold((), terms)[1] + self.ridge * v
        return apply


class TinyMlpObjective(FederatedObjective):
    kind = ObjectiveKind.TINY_MLP

    def __init__(self, features: List[np.ndarray], targets: List[np.ndarray],
                 d_in: int, hidden: int):
        self.features = features
        self.targets = targets
        self.d_in = d_in
        self.hidden = hidden
        self.M = len(features)
        # parameters, one layer each: W1 (hidden x d_in), b1, w2, b2
        ends = np.cumsum([0, hidden * d_in, hidden, hidden, 1]).tolist()
        self.layer_partition = tuple(zip(ends[:-1], ends[1:]))
        self.d = ends[-1]
        self.mu = 0.0
        self.w_star = None
        self.f_star = None
        self.b = 2.0
        self.ab_certified = False
        self.L_certified = False
        self.L = self._estimate_lipschitz()
        self._estimate_dissimilarity()

    def _unpack(self, w):
        W1, b1, w2, b2 = (w[start:stop] for start, stop in self.layer_partition)
        return W1.reshape(self.hidden, self.d_in), b1, w2, b2[0]

    def _client_loss_grad(self, i, w):
        """The forward pass, then backpropagation of the squared loss."""
        W1, b1, w2, b2 = self._unpack(w)
        X, y = self.features[i], self.targets[i]
        act = np.tanh(X @ W1.T + b1)
        pred = act @ w2 + b2
        resid = (pred - y) / X.shape[0]
        back = (resid[:, None] * (1.0 - act ** 2)) * w2[None, :]
        grad = np.concatenate([(back.T @ X).ravel(), back.sum(axis=0), act.T @ resid,
                               [float(resid.sum())]])
        return 0.5 * float(np.mean((pred - y) ** 2)), grad

    def _estimate_lipschitz(self) -> float:
        """Max gradient-difference ratio over sampled pairs; not a certificate."""
        rng = derive_stream(0xF00D, self.M, 0, StreamPurpose.DATA_SHUFFLE)
        worst = 0.0
        for _ in range(200):
            x = rng.normals(self.d)
            y = x + rng.normals(self.d) * 0.5
            gx, gy = self.loss_grad(x)[1], self.loss_grad(y)[1]
            gap = np.linalg.norm(x - y)
            if gap > 1e-12:
                worst = max(worst, float(np.linalg.norm(gx - gy)) / gap)
        return worst * 1.25


def make_quadratic(M: int, d: int, centers) -> QuadraticObjective:
    """Shifted-quadratic suite ``f_i(w) = 0.5 ||w - c_i||^2``; ``centers`` is
    array-like, one row ``c_i`` per client."""
    arr = np.array(centers, dtype=np.float64)
    if len(arr) == 0:
        raise ValueError("need at least one center")
    if len(arr) != M:
        raise ValueError(f"expected {M} centers, got {len(arr)}")
    if arr.shape[1:] != (d,):
        raise ValueError(f"centers have shape {arr.shape[1:]}, expected ({d},)")
    if not np.isfinite(arr).all():
        raise ValueError("quadratic centers must be finite")
    return QuadraticObjective(arr)


def make_logistic(M: int, d: int, seed: int, samples_per_client: int,
                  ridge: float, heterogeneity: float = 0.5) -> LogisticObjective:
    """Synthetic Gaussian-blob logistic suite.

    Client ``i`` draws labels uniformly from {-1, +1} and features
    ``x = noise + y * mu_i`` where ``mu_i = shared + heterogeneity * own``;
    ``heterogeneity`` therefore dials the gradient dissimilarity across
    clients.  ``ridge >= 0`` adds ``(ridge/2) ||w||^2`` to every client loss.
    """
    if samples_per_client < 1:
        raise ValueError("samples_per_client must be >= 1")
    if not 0.0 <= ridge < np.inf:
        raise ValueError(f"ridge must be finite and >= 0, got {ridge}")
    scale = 2.0 / np.sqrt(d)
    shared = derive_stream(seed, M, 0, StreamPurpose.DATA_SHUFFLE).normals(d) * scale
    features, labels = [], []
    for i in range(M):
        rng = derive_stream(seed, i, 0, StreamPurpose.DATA_SHUFFLE)
        mu_i = shared + heterogeneity * rng.normals(d) * scale
        noise = rng.normals(samples_per_client * d).reshape(samples_per_client, d)
        lab = np.where(rng.uniforms(samples_per_client) < 0.5, -1.0, 1.0)
        features.append(noise + np.outer(lab, mu_i))
        labels.append(lab)
    return LogisticObjective(features, labels, ridge)


def make_tiny_mlp(M: int, d_in: int, hidden: int, seed: int,
                  samples_per_client: int) -> TinyMlpObjective:
    """One-hidden-layer tanh regressor onto +-1 targets from a random teacher."""
    if hidden < 1:
        raise ValueError("hidden must be >= 1")
    if samples_per_client < 1:
        raise ValueError("samples_per_client must be >= 1")
    shared = derive_stream(seed, M, 0, StreamPurpose.DATA_SHUFFLE).normals(d_in)
    features, targets = [], []
    for i in range(M):
        rng = derive_stream(seed, i, 0, StreamPurpose.DATA_SHUFFLE)
        teacher = shared + 0.5 * rng.normals(d_in)
        X = rng.normals(samples_per_client * d_in).reshape(samples_per_client, d_in)
        y = np.where(X @ teacher >= 0.0, 1.0, -1.0)
        features.append(X)
        targets.append(y)
    return TinyMlpObjective(features, targets, d_in, hidden)


def stochastic_gradient(rows: np.ndarray, noise: NoiseModel, keys) -> np.ndarray:
    """Every client's noisy gradient ``grad f_i(w) + xi_i`` with ``E[xi_i] = 0``:
    the ``(M, d)`` gradient rows of :meth:`FederatedObjective.client_loss_grads`
    with the clients' noise rows added in place; ``keys`` are the clients'
    gradient-noise stream keys."""
    keys = np.asarray(keys, dtype=np.uint64)
    M, d = rows.shape
    if keys.shape != (M,):
        raise ValueError(f"expected {M} stream keys, got shape {keys.shape}")
    if noise.sigma > 0.0:
        block = max(1, NOISE_BLOCK_BYTES // (8 * d))
        for lo in range(0, M, block):
            rows[lo:lo + block] += noise.draw(d, keys[lo:lo + block])
    return rows
