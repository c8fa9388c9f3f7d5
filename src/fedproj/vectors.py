"""Parameter vectors, deterministic seeded random streams, small linear algebra.

Everything that moves between clients and the server in the simulator is
carried by :class:`ParamVector`: a flat float64 vector with an optional layer
partition.  Randomness comes from :class:`RngStream`, a counter-based stream
keyed by ``(master_seed, client_id, round, purpose)`` so that re-deriving the
same tuple replays the same draws and client evaluation order never matters.
:func:`stream_keys` derives the keys of many such tuples at once, for the
kernels that draw one row per stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Tuple

import numpy as np

from . import backend
from ._purekern import MASK64, mix64_array

__all__ = [
    "ParamVector",
    "RngStream",
    "StreamPurpose",
    "derive_stream",
    "stream_keys",
    "dot",
    "axpy",
    "DimensionMismatch",
]

LayerPartition = Tuple[Tuple[int, int], ...]

# distinct odd offsets decorrelating the key-derivation chain stages
_CLIENT_SALT = 0xD1B54A32D192ED03
_ROUND_SALT = 0x8CB92BA72F3D8DD7
_PURPOSE_SALT = 0xEB44ACCAB455D165


class DimensionMismatch(ValueError):
    """Raised when two vectors of different lengths meet."""


class StreamPurpose(IntEnum):
    GRADIENT_NOISE = 1
    COMPRESSOR = 2
    DATA_SHUFFLE = 3


def _validate_partition(partition, dim: int) -> LayerPartition:
    ranges = tuple((int(a), int(b)) for a, b in partition)
    if not ranges:
        raise ValueError("layer partition must not be empty")
    expected = 0
    for a, b in ranges:
        if a != expected or b <= a:
            raise ValueError(
                f"layer ranges must be sorted, disjoint and cover [0, {dim}); "
                f"got range ({a}, {b}) after position {expected}")
        expected = b
    if expected != dim:
        raise ValueError(f"layer ranges cover [0, {expected}), expected [0, {dim})")
    return ranges


class ParamVector:
    """Flat float64 parameter vector, immutable after construction.

    ``layer_partition``, when given, is a list of contiguous ``(start, stop)``
    ranges that are sorted, disjoint and cover ``[0, dim)`` exactly.
    """

    __slots__ = ("values", "layer_partition")

    def __init__(self, values, layer_partition=None, *, copy: bool = True):
        arr = np.array(values, dtype=np.float64, copy=copy, order="C")
        if arr.ndim != 1:
            raise ValueError(f"expected a 1-D vector, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("vector entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        part = None if layer_partition is None else _validate_partition(layer_partition, arr.shape[0])
        object.__setattr__(self, "layer_partition", part)

    def __setattr__(self, name, value):
        raise AttributeError("ParamVector is immutable")

    @classmethod
    def zeros(cls, dim: int, layer_partition=None) -> "ParamVector":
        return cls(np.zeros(dim), layer_partition, copy=False)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def layers(self) -> LayerPartition:
        """The partition, defaulting to one layer spanning the whole vector."""
        return self.layer_partition or ((0, self.dim),)

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return f"ParamVector(dim={self.dim}, layers={self.layer_partition})"


def _merge_partitions(x: ParamVector, y: ParamVector):
    if x.layer_partition is None:
        return y.layer_partition
    if y.layer_partition is None or x.layer_partition == y.layer_partition:
        return x.layer_partition
    raise ValueError("vectors carry conflicting layer partitions")


def dot(a: ParamVector, b: ParamVector) -> float:
    """Inner product; raises :class:`DimensionMismatch` on unequal dims."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dot: {a.dim} != {b.dim}")
    return float(np.dot(a.values, b.values))


def axpy(alpha: float, x: ParamVector, y: ParamVector) -> ParamVector:
    """Return ``alpha * x + y``."""
    if x.dim != y.dim:
        raise DimensionMismatch(f"axpy: {x.dim} != {y.dim}")
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise ValueError("axpy scale must be finite")
    return ParamVector(alpha * x.values + y.values, _merge_partitions(x, y), copy=False)


@dataclass
class RngStream:
    """Deterministic draw stream for one ``(master_seed, client_id, round, purpose)``.

    Words are generated counter-style (see ``_purekern``), so the stream is
    random-access and two streams derived from the same tuple replay the same
    sequence regardless of when or where they are consumed.
    """

    master_seed: int
    client_id: int
    round_index: int
    purpose: StreamPurpose
    key: int = field(init=False)
    offset: int = field(init=False, default=0)

    def __post_init__(self):
        if self.client_id < 0 or self.round_index < 0:
            raise ValueError("client_id and round_index must be non-negative")
        self.key = int(stream_keys(self.master_seed, self.client_id, self.round_index,
                                   self.purpose)[0])

    def words(self, n: int) -> np.ndarray:
        out = backend.stream_words(self.key, self.offset, n)[0]
        self.offset += n
        return out

    def uniforms(self, n: int) -> np.ndarray:
        out = backend.stream_uniforms(self.key, self.offset, n)[0]
        self.offset += n
        return out

    def normals(self, n: int) -> np.ndarray:
        out = backend.stream_normals(self.key, self.offset, n)[0]
        self.offset += 2 * ((n + 1) // 2)
        return out

    def subset(self, pop: int, k: int) -> np.ndarray:
        """Uniform k-subset of ``range(pop)``, sorted ascending."""
        if not 1 <= k <= pop:
            raise ValueError(f"subset size {k} out of range for population {pop}")
        out = backend.stream_subset(self.key, self.offset, pop, k)[0]
        self.offset += k
        return out


def stream_keys(master_seed: int, client_ids, round_index,
                purpose: StreamPurpose) -> np.ndarray:
    """Stream keys of ``(master_seed, client_id, round_index, purpose)`` as uint64.

    ``client_ids`` and ``round_index`` are non-negative ints or arrays that
    broadcast; entry ``j`` equals ``derive_stream(...).key`` of the j-th tuple.
    """
    seed = mix64_array(np.array([master_seed & MASK64], dtype=np.uint64))
    z = np.atleast_1d(np.asarray(client_ids, dtype=np.uint64)) + np.uint64(_CLIENT_SALT)
    z = mix64_array(z ^ seed)
    z = mix64_array(z ^ (np.asarray(round_index, dtype=np.uint64) + np.uint64(_ROUND_SALT)))
    return mix64_array(z ^ np.uint64((int(purpose) + _PURPOSE_SALT) & MASK64))


def derive_stream(master_seed: int, client_id: int, round_index: int,
                  purpose: StreamPurpose) -> RngStream:
    """Fresh stream for the tuple; same tuple always replays the same draws."""
    return RngStream(master_seed, client_id, round_index, StreamPurpose(purpose))
