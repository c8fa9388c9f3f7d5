"""Exact bit-cost model for uplink and downlink traffic.

Values travel at 32 bits by default (float32 wire precision), indices either
as fixed 32-bit integers or as ``ceil(log2(dim))``-bit integers, and every
extra transmitted scalar costs ``scalar_bits``.  The server broadcast is
delta-encoded: only coordinates of the new model whose float32 image differs
bit-for-bit from the previous broadcast are sent, as value+index pairs.

:func:`message_bits` is the one cost model of an upload: it takes a payload
from ``compressors.compress`` and returns one count per row (client).
``serialize_message`` / ``deserialize_message`` give each row a canonical
byte form whose length equals ``ceil(message_bits / 8)`` under the default
cost model with zero header bits, so every charged bit is one a receiver
can decode.  Quantized rows are bit-packed with ``np.packbits``: the sign
bits, then each level in ``_level_bits`` bits, MSB first, zero-padded to a
whole byte.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .compressors import DensePayload, Payload, QuantizedPayload, SparsePayload

__all__ = [
    "IndexBitsMode",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "index_bits",
    "message_bits",
    "downlink_bits",
    "changed_coordinates",
    "serialize_message",
    "deserialize_message",
]


class IndexBitsMode(str, Enum):
    FIXED32 = "fixed32"
    CEIL_LOG2_DIM = "ceil_log2_dim"


@dataclass(frozen=True)
class CostModel:
    value_bits: int = 32
    index_bits_mode: IndexBitsMode = IndexBitsMode.FIXED32
    scalar_bits: int = 32
    header_bits: int = 0

    def __post_init__(self):
        object.__setattr__(self, "index_bits_mode", IndexBitsMode(self.index_bits_mode))
        for name in ("value_bits", "scalar_bits", "header_bits"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


DEFAULT_COST_MODEL = CostModel()


def index_bits(model: CostModel, dim: int) -> int:
    if model.index_bits_mode is IndexBitsMode.FIXED32:
        return 32
    return max(0, math.ceil(math.log2(dim))) if dim > 1 else 0


def _level_bits(s_levels: int) -> int:
    return max(1, math.ceil(math.log2(s_levels + 1)))


def message_bits(model: CostModel, payload: Payload,
                 extra_scalars: int = 0) -> np.ndarray:
    """Wire cost of each row (client upload) of ``payload`` under ``model``, as int64.

    ``extra_scalars`` counts side-channel scalars sent with each row (the
    projection coefficients of the projecting algorithms).  A quantized row
    with norm 0 is an empty message: it costs no payload bits.
    """
    if isinstance(payload, QuantizedPayload):
        full = model.value_bits + payload.dim * (1 + _level_bits(payload.s_levels))
        body = np.where(payload.norm == 0.0, 0, full)
    else:  # one value, and for a sparse payload one index, per kept coordinate
        per_value = model.value_bits
        if isinstance(payload, SparsePayload):
            per_value += index_bits(model, payload.dim)
        body = np.full(payload.values.shape[0], payload.values.shape[1] * per_value)
    return body.astype(np.int64) + (model.header_bits + extra_scalars * model.scalar_bits)


def changed_coordinates(w_prev, w_next) -> int:
    """Coordinates whose float32 broadcast image changed, compared bitwise."""
    a = np.ascontiguousarray(w_prev, dtype=np.float32).view(np.uint32)
    b = np.ascontiguousarray(w_next, dtype=np.float32).view(np.uint32)
    if a.shape != b.shape:
        raise ValueError("downlink delta requires equal dimensions")
    return int(np.count_nonzero(a != b))


def downlink_bits(model: CostModel, w_prev, w_next) -> int:
    """Delta-broadcast cost per receiving client."""
    n = changed_coordinates(w_prev, w_next)
    return n * (model.value_bits + index_bits(model, len(w_prev))) + model.header_bits


def _level_shifts(s_levels: int) -> np.ndarray:
    """Bit positions of a level, most significant first."""
    return np.arange(_level_bits(s_levels) - 1, -1, -1)


def serialize_message(payload: Payload, row: int = 0) -> bytes:
    """Canonical bytes of one row; length == ceil(message_bits/8) under the
    default model."""
    if isinstance(payload, DensePayload):
        return np.asarray(payload.values[row], dtype="<f4").tobytes()
    if isinstance(payload, SparsePayload):
        return (np.asarray(payload.values[row], dtype="<f4").tobytes()
                + np.asarray(payload.indices[row], dtype="<u4").tobytes())
    if payload.norm[row] == 0.0:
        return b""
    level_bits = (payload.levels[row][:, None] >> _level_shifts(payload.s_levels)) & 1
    bits = np.concatenate([payload.signs[row], level_bits.ravel()])
    return struct.pack("<f", payload.norm[row]) + np.packbits(bits).tobytes()


def deserialize_message(data: bytes, kind: str, dim: int,
                        n_values: Optional[int] = None,
                        s_levels: Optional[int] = None) -> Payload:
    """Inverse of :func:`serialize_message`: a one-row payload.

    The wire format carries no header, so the receiver supplies the payload
    ``kind`` (``dense``/``sparse``/``quantized``) and its shape parameters.
    Bytes that are not the canonical length are refused.  Values come back
    at float32 precision.
    """
    if kind == "dense":
        expected = 4 * dim
    elif kind == "sparse":
        if n_values is None:
            raise ValueError("sparse deserialization needs n_values")
        expected = 8 * n_values
    elif kind == "quantized":
        if s_levels is None:
            raise ValueError("quantized deserialization needs s_levels")
        n_bits = dim * (1 + _level_bits(s_levels))
        expected = 4 + -(-n_bits // 8) if data else 0  # b"" is the empty message
    else:
        raise ValueError(f"unknown payload kind {kind!r}")
    if len(data) != expected:
        raise ValueError(f"a {kind} message of dim {dim} is {expected} bytes, got {len(data)}")

    if kind == "dense":
        return DensePayload(np.frombuffer(data, dtype="<f4").astype(np.float64)[None, :])
    if kind == "sparse":
        values = np.frombuffer(data, dtype="<f4", count=n_values).astype(np.float64)
        indices = np.frombuffer(data, dtype="<u4", offset=4 * n_values).astype(np.int64)
        return SparsePayload(indices[None, :], values[None, :], dim)
    norm, signs, levels = 0.0, np.zeros(dim, np.uint8), np.zeros(dim, np.int64)
    if data:
        norm = struct.unpack("<f", data[:4])[0]
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=4), count=n_bits)
        signs = bits[:dim]
        shifts = _level_shifts(s_levels)
        levels = bits[dim:].reshape(dim, shifts.size) @ (1 << shifts)
    return QuantizedPayload(np.array([norm]), signs[None, :], levels[None, :], s_levels)
