"""Exact bit-cost model for uplink and downlink traffic.

Values travel at 32 bits by default (float32 wire precision), indices either
as fixed 32-bit integers or as ``ceil(log2(dim))``-bit integers, and every
extra transmitted scalar costs ``scalar_bits``.  The server broadcast is
delta-encoded against the previous broadcast: a coordinate has changed when
its float32 image differs bit for bit.  :func:`downlink_bits` charges the
shortest of three decodable forms of the new image, behind a 2-bit form tag:
every value (dense), a value+index pair per changed coordinate, or a
``d``-bit change bitmap followed by the changed values.  The transport is
assumed to deliver each message's length, as a datagram does, so the pairs
form needs no count field; the bitmap gives the count by its popcount.

:func:`message_bits` is the one cost model of an upload: it takes a payload
from ``compressors.compress`` and returns one count per row (client).
``serialize_message`` / ``deserialize_message`` give each row a canonical
byte form whose length equals ``ceil(message_bits / 8)`` under the default
cost model with zero header bits, so every charged bit is one a receiver
can decode.  A quantized row, an all-zero one included, is its float32
norm, then its bits packed with ``np.packbits``: the sign bits, then each
level in ``_level_bits`` bits, MSB first, zero-padded to a whole byte.
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
    costs its norm and every coordinate's sign and level, whatever its norm.
    """
    if isinstance(payload, QuantizedPayload):
        rows = len(payload.norm)
        body = model.value_bits + payload.dim * (1 + _level_bits(payload.s_levels))
    else:  # one value, and for a sparse payload one index, per kept coordinate
        rows, kept = payload.values.shape
        per_value = model.value_bits
        if isinstance(payload, SparsePayload):
            per_value += index_bits(model, payload.dim)
        body = kept * per_value
    return np.full(rows, body + model.header_bits + extra_scalars * model.scalar_bits,
                   dtype=np.int64)


def changed_coordinates(w_prev, w_next) -> int:
    """Coordinates whose float32 broadcast image changed, compared bitwise."""
    a = np.ascontiguousarray(w_prev, dtype=np.float32).view(np.uint32)
    b = np.ascontiguousarray(w_next, dtype=np.float32).view(np.uint32)
    if a.shape != b.shape:
        raise ValueError("downlink delta requires equal dimensions")
    return int(np.count_nonzero(a != b))


# which of the three broadcast forms follows: dense, pairs or bitmap
_FORM_TAG_BITS = 2


def downlink_bits(model: CostModel, w_prev, w_next) -> int:
    """Broadcast cost per receiving client: the shortest decodable form of
    the new float32 image, given the previous one, plus the form tag.

    With ``n`` changed coordinates of ``d``, the forms cost ``d·value_bits``
    (dense), ``n·(value_bits + index_bits)`` (index–value pairs, counted by
    the message length) and ``d + n·value_bits`` (a change bitmap, whose
    popcount is ``n``, then the changed values).
    """
    n = changed_coordinates(w_prev, w_next)
    d = len(w_prev)
    v = model.value_bits
    body = min(d * v, n * (v + index_bits(model, d)), d + n * v)
    return body + _FORM_TAG_BITS + model.header_bits


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
    level_bits = (payload.levels[row][:, None] >> _level_shifts(payload.s_levels)) & 1
    bits = np.concatenate([payload.signs[row], level_bits.ravel()])
    return struct.pack("<f", payload.norm[row]) + np.packbits(bits).tobytes()


def deserialize_message(data: bytes, kind: str, dim: int,
                        n_values: Optional[int] = None,
                        s_levels: Optional[int] = None) -> Payload:
    """Inverse of :func:`serialize_message`: a one-row payload.

    The wire format carries no header, so the receiver supplies the payload
    ``kind`` (``dense``/``sparse``/``quantized``) and its shape parameters.
    Bytes that are not the canonical length, and quantized bytes whose
    padding bits are not zero, are refused.  Values come back at float32
    precision.
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
        expected = 4 + -(-n_bits // 8)
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
    norm = struct.unpack("<f", data[:4])[0]
    packed = np.frombuffer(data, dtype=np.uint8, offset=4)
    pad = 8 * packed.size - n_bits
    if pad and packed[-1] & ((1 << pad) - 1):
        raise ValueError(f"a quantized message's {pad} padding bits must be zero")
    bits = np.unpackbits(packed, count=n_bits)
    signs = bits[:dim]
    shifts = _level_shifts(s_levels)
    levels = bits[dim:].reshape(dim, shifts.size) @ (1 << shifts)
    return QuantizedPayload(np.array([norm]), signs[None, :], levels[None, :], s_levels)
