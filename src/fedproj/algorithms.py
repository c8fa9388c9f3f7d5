"""A round engine for the eight compressed-FL algorithms, all clients at once.

All algorithms share the same round shape: every client turns the broadcast
model and its local stochastic gradient into a compact upload, and the server
reconstructs each client's descent direction from that upload and steps the
model.  What varies is the client-side bookkeeping:

* ``projfl``       -- project the gradient onto the running average of the
  client's last ``K`` descent directions, send the projection coefficient
  plus the compressed orthogonal remainder; the direction update is
  ``D' = alpha * Dbar + decode(payload)`` and the server steps by ``eta/M``.
* ``projfl_ef``    -- same projection, but the learning rate is folded into
  the direction (``D' = eta*alpha*Dbar + decoded``), the compressor input carries
  the accumulated error (``C(eta*g_perp + e)``), and the server steps by
  ``1/M``.
* ``fedavg``       -- compress the raw gradient, stateless.
* ``ef``           -- classic error feedback: compress ``g + zeta * e``.
* ``ef21`` / ``ef21_gamma`` -- compress the difference to the (damped)
  previous direction: ``C(g - gamma * D)``, ``D' = gamma * D + decoded``.
* ``diana`` / ``diana_gamma`` -- compress the difference to a (damped) memory
  ``h`` that both sides advance; the server adds momentum
  ``D' = beta * D + gamma * h + mean(decoded)`` and steps by ``eta``.

The engine holds the state of all ``M`` clients as rows of arrays and runs a
round as one computation over them.  :func:`init_round` sets both sides of a
run up at once: it resolves the projection's blocks
(:func:`~fedproj.compressors.resolve_blocks`: one coefficient per block, and
the flat projection is the one block ``((0, d),)``) and hands the same tuple
to :class:`Clients` and :class:`Server`, so the server rebuilds every
direction on the blocks the clients projected on.  :func:`client_round` turns
the ``(M, d)`` gradient rows into one batched :class:`ClientUpload` (the
compressor's payload, a row per client, plus each row's projection
coefficients) and updates :class:`Clients` in place; :func:`server_round`
decodes that upload itself and steps :class:`Server`.  State layout:

* the projecting kinds keep each client's last ``K`` directions in a
  :class:`History`, a ``(K, M, d)`` ring buffer whose slots are ``(M, d)``
  blocks; the average is summed oldest first, as ``np.mean`` over the
  stacked directions does;
* the error of ``ef``/``projfl_ef`` is an ``(M, d)`` array, and so is the
  ``state`` the difference-compressing kinds compress against: the ef21
  directions or the diana memories, which one round rule advances.

Inner products (the projection coefficients, ``||Dbar||^2``) are one
``np.vecdot`` over the rows per block, one BLAS ``ddot`` per row, and the
server reduces the ``(M, d)`` directions with one ``np.mean(..., axis=0)``,
so every number equals what a loop over the clients computes.

The projecting and difference-compressing families need the server to hold a
bit-exact mirror of each client's direction state.  The server rebuilds its
own mirror from the ``(coefficient, payload row)`` pairs with the same code the
clients run, so the mirror never drifts; :func:`assert_mirror` compares the
two bit for bit every round.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

import numpy as np

from . import backend
from .compressors import (CompressorSpec, LayerPartition, Payload, compress, decode,
                          resolve_blocks)

__all__ = [
    "AlgorithmKind",
    "AlgorithmConfig",
    "History",
    "Clients",
    "Server",
    "ClientUpload",
    "init_round",
    "client_round",
    "server_round",
    "assert_mirror",
    "MirrorDesyncError",
    "PROJECTION_EPS",
]

# degenerate-projection threshold on ||Dbar||^2; below it alpha = 0 and the
# full gradient goes to the compressor (covers the all-zero initialization)
PROJECTION_EPS = 1e-30


class MirrorDesyncError(AssertionError):
    """Server-side mirrored client state diverged from the client's."""


class AlgorithmKind(str, Enum):
    PROJFL = "projfl"
    PROJFL_EF = "projfl_ef"
    FEDAVG = "fedavg"
    EF = "ef"
    EF21 = "ef21"
    EF21_GAMMA = "ef21_gamma"
    DIANA = "diana"
    DIANA_GAMMA = "diana_gamma"


_PROJECTING = (AlgorithmKind.PROJFL, AlgorithmKind.PROJFL_EF)
_EF21_FAMILY = (AlgorithmKind.EF21, AlgorithmKind.EF21_GAMMA)
_DIANA_FAMILY = (AlgorithmKind.DIANA, AlgorithmKind.DIANA_GAMMA)


@dataclass(frozen=True)
class AlgorithmConfig:
    kind: AlgorithmKind = AlgorithmKind.PROJFL
    eta: float = 0.1
    compressor: CompressorSpec = CompressorSpec()
    K: int = 3                    # history window (projecting family)
    zeta: float = 0.75            # error damping (ef)
    gamma: float = 0.9            # forgetting (ef21_gamma / diana_gamma)
    diana_alpha: float = 0.9      # memory step
    diana_beta: float = 0.1       # server momentum
    projection_layerwise: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kind", AlgorithmKind(self.kind))
        if not (self.eta > 0 and np.isfinite(self.eta)):
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if not 0.0 < self.zeta <= 1.0:
            raise ValueError("zeta must be in (0, 1]")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if not 0.0 < self.diana_alpha <= 1.0:
            raise ValueError("diana_alpha must be in (0, 1]")
        if not 0.0 <= self.diana_beta < 1.0:
            raise ValueError("diana_beta must be in [0, 1)")

    @property
    def effective_gamma(self) -> float:
        """1 for the undamped ef21/diana kinds, else the configured gamma."""
        if self.kind in (AlgorithmKind.EF21, AlgorithmKind.DIANA):
            return 1.0
        return self.gamma


class History:
    """The last ``K`` directions of every client: a ``(K, M, d)`` ring buffer.

    Slot ``j % K`` holds direction ``j``; direction 0 is the all-zero start,
    so a history holds ``min(t + 1, K)`` directions after ``t`` rounds.
    """

    def __init__(self, K: int, n_clients: int, dim: int):
        self.buf = np.zeros((K, n_clients, dim))
        self.count = 1
        self.newest = 0

    def mean(self) -> np.ndarray:
        """``(M, d)`` average of the stored directions, summed oldest first."""
        K = self.buf.shape[0]
        slots = [(self.newest - j) % K for j in range(self.count - 1, -1, -1)]
        if len(slots) == 1:
            return self.buf[slots[0]].copy()
        if self.buf.shape[2] == 1:
            # np.mean of one client's (n, 1) stack sums its n values pairwise,
            # not one after another: reduce each client's values as one row
            rows = np.ascontiguousarray(self.buf[slots, :, 0].T)
            return np.mean(rows, axis=1)[:, None]
        acc = self.buf[slots[0]] + self.buf[slots[1]]
        for slot in slots[2:]:
            acc += self.buf[slot]
        acc /= len(slots)
        return acc

    def push(self) -> np.ndarray:
        """The ``(M, d)`` slot the next direction is written into (the oldest
        direction's, once the window is full)."""
        K = self.buf.shape[0]
        self.newest = (self.newest + 1) % K
        self.count = min(self.count + 1, K)
        return self.buf[self.newest]


@dataclass
class Clients:
    """Every client's state, one row each; :func:`client_round` updates it."""

    blocks: LayerPartition                  # the projection's blocks
    layer_partition: Optional[LayerPartition]  # the compressor's layers
    history: Optional[History] = None      # projecting kinds
    error: Optional[np.ndarray] = None     # (M, d), ef and projfl_ef
    state: Optional[np.ndarray] = None     # (M, d), ef21 directions / diana memories


@dataclass
class Server:
    """Model and mirrors; :func:`server_round` updates it."""

    round_index: int
    w: np.ndarray
    n_clients: int
    blocks: LayerPartition                  # the clients' projection blocks
    mirror_history: Optional[History] = None
    mirror_direction: Optional[np.ndarray] = None
    memory: Optional[np.ndarray] = None     # (d,), diana family
    momentum: Optional[np.ndarray] = None   # (d,), diana family


@dataclass(frozen=True)
class ClientUpload:
    """One round's uploads: a payload row per client and, for the projecting
    kinds, an ``(M, blocks)`` array of projection coefficients, one per
    client and block (one block for the flat projection)."""

    msg: Payload
    coeff: Optional[np.ndarray] = None

    @property
    def n_scalars(self) -> int:
        return 0 if self.coeff is None else self.coeff.shape[1]


def _direction(coeff: np.ndarray, dbar: np.ndarray, decoded: np.ndarray, blocks,
               out: np.ndarray):
    """``out = coeff * dbar + decoded``, row by row and block by block."""
    for j, (start, stop) in enumerate(blocks):
        np.multiply(dbar[:, start:stop], coeff[:, j:j + 1], out=out[:, start:stop])
    out += decoded


def client_round(cfg: AlgorithmConfig, clients: Clients, g: np.ndarray,
                 keys) -> ClientUpload:
    """One step of every client: the ``(M, d)`` gradient rows become one
    upload, and ``clients`` moves to the next round.  ``keys`` are the
    clients' compressor stream keys."""
    kind = cfg.kind
    layer_partition = clients.layer_partition

    if kind in _PROJECTING:
        dbar = clients.history.mean()
        coeff, carried = backend.project_decompose(g, dbar, clients.blocks, PROJECTION_EPS)
        del g   # the caller passes its only reference: free the rows early
        if kind is AlgorithmKind.PROJFL_EF:
            coeff *= cfg.eta
            carried *= cfg.eta
            carried += clients.error
        msg = compress(cfg.compressor, carried, keys, layer_partition)
        decoded = decode(msg)
        _direction(coeff, dbar, decoded, clients.blocks, out=clients.history.push())
        if kind is AlgorithmKind.PROJFL_EF:
            np.subtract(carried, decoded, out=clients.error)
        return ClientUpload(msg, coeff)

    if kind is AlgorithmKind.FEDAVG:
        return ClientUpload(compress(cfg.compressor, g, keys, layer_partition))

    if kind is AlgorithmKind.EF:
        carried = cfg.zeta * clients.error
        carried += g
        msg = compress(cfg.compressor, carried, keys, layer_partition)
        np.subtract(carried, decode(msg), out=clients.error)
        return ClientUpload(msg)

    kept = cfg.effective_gamma * clients.state
    msg = compress(cfg.compressor, g - kept, keys, layer_partition)
    decoded = decode(msg)
    if kind in _DIANA_FAMILY:
        decoded *= cfg.diana_alpha
    np.add(kept, decoded, out=clients.state)
    return ClientUpload(msg)


def server_round(cfg: AlgorithmConfig, server: Server, upload: ClientUpload):
    """Aggregate one round's upload (a row per client) into the next model.
    The projecting kinds rebuild each client's direction on ``server.blocks``,
    the blocks :func:`init_round` gave the clients too."""
    decoded = decode(upload.msg)
    if len(decoded) != server.n_clients:
        raise ValueError(f"expected {server.n_clients} uploads, got {len(decoded)}")
    kind = cfg.kind
    server.round_index += 1

    if kind in _PROJECTING:
        dbar = server.mirror_history.mean()
        directions = server.mirror_history.push()
        _direction(upload.coeff, dbar, decoded, server.blocks, out=directions)
        step = cfg.eta if kind is AlgorithmKind.PROJFL else 1.0
        server.w = server.w - step * np.mean(directions, axis=0)
    elif kind in (AlgorithmKind.FEDAVG, AlgorithmKind.EF):
        server.w = server.w - cfg.eta * np.mean(decoded, axis=0)
    elif kind in _EF21_FAMILY:
        np.add(cfg.effective_gamma * server.mirror_direction, decoded,
               out=server.mirror_direction)
        server.w = server.w - cfg.eta * np.mean(server.mirror_direction, axis=0)
    else:
        gamma = cfg.effective_gamma
        mean_msg = np.mean(decoded, axis=0)
        server.momentum = cfg.diana_beta * server.momentum + gamma * server.memory + mean_msg
        server.memory = gamma * server.memory + cfg.diana_alpha * mean_msg
        server.w = server.w - cfg.eta * server.momentum


def init_round(cfg: AlgorithmConfig, w0: np.ndarray, n_clients: int,
               layer_partition: Optional[LayerPartition] = None) -> Tuple[Clients, Server]:
    """Both sides of a run at round 0: every client's state and the server at
    ``w0``.  ``layer_partition`` is the model's layers; the projection's
    blocks are resolved from it here, once, and both sides hold them."""
    kind = cfg.kind
    dim = w0.shape[0]
    blocks = resolve_blocks(cfg.projection_layerwise, layer_partition, dim)
    clients = Clients(blocks, layer_partition)
    server = Server(0, np.array(w0, dtype=np.float64), n_clients, blocks)
    if kind in _PROJECTING:
        clients.history = History(cfg.K, n_clients, dim)
        server.mirror_history = History(cfg.K, n_clients, dim)
    if kind in (AlgorithmKind.EF, AlgorithmKind.PROJFL_EF):
        clients.error = np.zeros((n_clients, dim))
    if kind in _EF21_FAMILY + _DIANA_FAMILY:
        clients.state = np.zeros((n_clients, dim))
    if kind in _EF21_FAMILY:
        server.mirror_direction = np.zeros((n_clients, dim))
    if kind in _DIANA_FAMILY:
        server.memory, server.momentum = np.zeros(dim), np.zeros(dim)
    return clients, server


def assert_mirror(server: Server, clients: Clients, seed: Optional[int] = None):
    """Bit-exact comparison of the server's mirrors with the clients' state.

    Raises :class:`MirrorDesyncError` naming the seed, the round, the first
    client row that differs and the array it differs in.
    """
    if server.mirror_history is not None:
        name, mine, theirs = "history", clients.history.buf, server.mirror_history.buf
    elif server.mirror_direction is not None:
        name, mine, theirs = "direction", clients.state, server.mirror_direction
    else:
        return
    a, b = mine.view(np.uint64), theirs.view(np.uint64)
    if np.array_equal(a, b):
        return
    differs = (a != b).reshape(-1, server.n_clients, a.shape[-1]).any(axis=(0, 2))
    raise MirrorDesyncError(
        f"seed {seed}, round {server.round_index}: the server's mirror of client "
        f"{int(np.flatnonzero(differs)[0])} differs from the client's {name}")
