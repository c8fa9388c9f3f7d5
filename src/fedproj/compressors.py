"""Compression operators mapping the clients' vectors to compact wire messages.

:func:`compress` takes one vector per client as the rows of an ``(R, d)``
array and returns one payload (:class:`DensePayload`, :class:`SparsePayload`
or :class:`QuantizedPayload`) whose arrays carry a leading row axis; row
``r`` is client ``r``'s upload.  Random kinds draw row ``r`` from the stream
keyed ``keys[r]``.  Each payload checks its arrays once, when it is built,
and nothing writes into them afterwards.  :func:`decode` returns the
``(R, d)`` rows a payload encodes.  What a payload costs on the wire is
``accounting.message_bits``.

Four kinds are supported:

* ``identity``  -- no compression, dense payload.
* ``randk``     -- keep a uniformly random fraction of coordinates, scaled by
  ``dim/k`` so the operator is unbiased.
* ``topk``      -- keep the largest-magnitude fraction (biased, contractive).
  Ties are broken deterministically toward the lower index.
* ``qsgd``      -- dictionary quantization: each coordinate is mapped to
  ``norm * sign * level/s`` where ``level`` rounds ``s*|g_j|/norm``
  stochastically up or down so the operator is unbiased.

:func:`resolve_blocks` decides which ``(start, stop)`` blocks an operation
acts on: the layers when its flag (``layerwise``, or the projection's
``projection_layerwise``) is set and there are layers, else the flat vector
as the one block ``((0, d),)``.  Sparsifiers keep ``k_eff = max(1,
round(k_fraction * block_dim))`` per block; quantization always acts on the
flat vector, so ``layerwise`` QSGD is rejected.

Certificates
------------
``estimate_beta`` returns the unbiased second-moment factor (``E||C(g)||^2 <=
beta ||g||^2``): 1 for identity, worst-block ``dim/k_eff`` for randk, and the
standard closed-form bound ``1 + min(d/s^2, sqrt(d)/s)`` for qsgd (validated
by Monte-Carlo in the test suite rather than asserted analytically).

``estimate_delta`` returns the contraction factor (``E||C(g)-g||^2 <=
(1-delta) ||g||^2``): worst-block ``k_eff/dim`` for topk, 1 for identity.
For the unbiased kinds it returns ``1/beta``, the delta implied by the
standard scaling argument; note that this certifies the ``(1/beta)``-scaled
operator, not the operator actually applied, so it is informational and the
bound verifiers do not accept it as a run precondition.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union

import numpy as np

from . import backend

__all__ = [
    "CompressorKind",
    "CompressorSpec",
    "DensePayload",
    "SparsePayload",
    "QuantizedPayload",
    "Payload",
    "compress",
    "decode",
    "estimate_beta",
    "estimate_delta",
    "k_eff",
    "LayerPartition",
    "resolve_blocks",
    "BiasedCompressorError",
]

LayerPartition = Tuple[Tuple[int, int], ...]


def resolve_blocks(flag: bool, layer_partition: Optional[LayerPartition],
                   dim: int) -> LayerPartition:
    """The ``(start, stop)`` blocks an operation acts on: the layers when
    ``flag`` is set and there are layers, else the one block ``((0, dim),)``."""
    return layer_partition if flag and layer_partition else ((0, dim),)


class BiasedCompressorError(ValueError):
    """Raised when an unbiasedness certificate is requested for a biased kind."""


class CompressorKind(str, Enum):
    IDENTITY = "identity"
    RANDK = "randk"
    TOPK = "topk"
    QSGD = "qsgd"


@dataclass(frozen=True)
class CompressorSpec:
    kind: CompressorKind = CompressorKind.IDENTITY
    k_fraction: float = 1.0
    s_levels: int = 1
    layerwise: bool = False

    def __post_init__(self):
        object.__setattr__(self, "kind", CompressorKind(self.kind))
        if not 0.0 < self.k_fraction <= 1.0:
            raise ValueError(f"k_fraction must be in (0, 1], got {self.k_fraction}")
        if self.s_levels < 1:
            raise ValueError(f"s_levels must be >= 1, got {self.s_levels}")
        if self.layerwise and self.kind is CompressorKind.QSGD:
            raise ValueError("layerwise applies to sparsifying kinds, not qsgd")


def k_eff(k_fraction: float, layer_dim: int) -> int:
    """Per-layer kept-coordinate count: at least one coordinate survives."""
    return max(1, int(k_fraction * layer_dim + 0.5))


@dataclass(frozen=True)
class DensePayload:
    values: np.ndarray  # (R, d)

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SparsePayload:
    indices: np.ndarray  # (R, k) int64, each row strictly increasing, < dim
    values: np.ndarray   # (R, k)
    dim: int

    def __post_init__(self):
        if self.indices.shape != self.values.shape:
            raise ValueError("sparse indices and values must have equal shapes")
        if np.any(np.diff(self.indices, axis=1) <= 0):
            raise ValueError("sparse indices must be strictly increasing")
        if self.indices.size and self.indices.max() >= self.dim:
            raise ValueError("sparse index out of range")


@dataclass(frozen=True)
class QuantizedPayload:
    """Row ``r`` decodes to ``norm[r] * sign * levels[r] / s_levels``; a row
    with ``norm[r] == 0`` (an all-zero input row) is sent as an empty message."""

    norm: np.ndarray    # (R,)
    signs: np.ndarray   # (R, d) uint8, 1 = negative
    levels: np.ndarray  # (R, d) int64 in [0, s_levels]
    s_levels: int

    def __post_init__(self):
        if np.any(self.norm < 0.0):
            raise ValueError("quantized norm must be >= 0")
        if self.signs.shape != self.levels.shape or self.norm.shape != self.levels.shape[:1]:
            raise ValueError("norm, signs and levels must have matching shapes")
        if self.levels.size and (self.levels.min() < 0 or self.levels.max() > self.s_levels
                                 or self.signs.max() > 1):
            raise ValueError(f"levels must lie in [0, {self.s_levels}] and signs in {{0, 1}}")

    @property
    def dim(self) -> int:
        return self.levels.shape[1]


Payload = Union[DensePayload, SparsePayload, QuantizedPayload]


def compress(spec: CompressorSpec, x: np.ndarray, keys=None,
             layer_partition: Optional[LayerPartition] = None) -> Payload:
    """Apply the operator to every row of ``x``; row ``r`` of the payload
    encodes ``x[r]``.

    ``keys`` (one stream key per row) drive the random kinds (randk, qsgd)
    and are ignored otherwise.  The sparsifiers act on the blocks of
    :func:`resolve_blocks`.  An all-zero row short-circuits qsgd to an
    empty message, since its magnitude ratios are undefined at norm zero.
    """
    kind = spec.kind
    rows, d = x.shape

    if kind is CompressorKind.IDENTITY:
        return DensePayload(x.copy())
    if keys is None and kind in (CompressorKind.RANDK, CompressorKind.QSGD):
        raise ValueError(f"{kind.value} requires stream keys")

    if kind is CompressorKind.QSGD:
        norm = np.zeros(rows)
        signs = np.zeros((rows, d), dtype=np.uint8)
        levels = np.zeros((rows, d), dtype=np.int64)
        live = x.any(axis=1)
        if live.any():
            norm[live], signs[live], levels[live] = backend.qsgd_encode(
                x[live], spec.s_levels, keys[live], 0)
        return QuantizedPayload(norm, signs, levels, spec.s_levels)

    idx_parts = []
    val_parts = []
    word = 0
    for start, stop in resolve_blocks(spec.layerwise, layer_partition, d):
        ldim = stop - start
        k = k_eff(spec.k_fraction, ldim)
        block = x[:, start:stop]
        if kind is CompressorKind.TOPK:
            local = np.stack([backend.topk_indices(row, k) for row in block])
            vals = np.take_along_axis(block, local, axis=1)
        else:  # RANDK
            local = backend.stream_subset(keys, word, ldim, k)
            word += k
            vals = (ldim / k) * np.take_along_axis(block, local, axis=1)
        idx_parts.append(local + start)
        val_parts.append(vals)
    return SparsePayload(np.concatenate(idx_parts, axis=1),
                         np.concatenate(val_parts, axis=1), d)


def decode(payload: Payload) -> np.ndarray:
    """The ``(R, d)`` rows a payload encodes, as a new array."""
    if isinstance(payload, DensePayload):
        return payload.values.copy()
    if isinstance(payload, SparsePayload):
        out = np.zeros((payload.indices.shape[0], payload.dim))
        np.put_along_axis(out, payload.indices, payload.values, axis=1)
        return out
    m = payload.norm[:, None] * payload.levels / payload.s_levels
    # sign 1 copies the sign of -0.5: a negative entry at level 0 decodes to -0.0
    return np.copysign(m, np.subtract(0.5, payload.signs, dtype=np.float64), out=m)


def estimate_beta(spec: CompressorSpec, dim: int,
                  layer_partition: Optional[LayerPartition] = None) -> float:
    """Second-moment certificate for the unbiased kinds (see module docs)."""
    if spec.kind is CompressorKind.TOPK:
        raise BiasedCompressorError("topk is biased; it has no beta certificate")
    if spec.kind is CompressorKind.IDENTITY:
        return 1.0
    if spec.kind is CompressorKind.RANDK:
        return max((stop - start) / k_eff(spec.k_fraction, stop - start)
                   for start, stop in resolve_blocks(spec.layerwise, layer_partition, dim))
    s = spec.s_levels
    return 1.0 + min(dim / s**2, np.sqrt(dim) / s)


def estimate_delta(spec: CompressorSpec, dim: int,
                   layer_partition: Optional[LayerPartition] = None) -> float:
    """Contraction certificate (see module docs for the unbiased-kind caveat)."""
    if spec.kind is CompressorKind.IDENTITY:
        return 1.0
    if spec.kind is CompressorKind.TOPK:
        return min(k_eff(spec.k_fraction, stop - start) / (stop - start)
                   for start, stop in resolve_blocks(spec.layerwise, layer_partition, dim))
    return 1.0 / estimate_beta(spec, dim, layer_partition)


def delta_certified(spec: CompressorSpec) -> bool:
    """Whether estimate_delta certifies the operator as actually applied."""
    return spec.kind in (CompressorKind.TOPK, CompressorKind.IDENTITY)


def beta_certified(spec: CompressorSpec) -> bool:
    """Whether estimate_beta applies (unbiased kinds)."""
    return spec.kind is not CompressorKind.TOPK
