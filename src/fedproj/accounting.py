"""Exact bit-cost model for uplink and downlink traffic.

Values travel at 32 bits by default (float32 wire precision), indices either
as fixed 32-bit integers or as ``ceil(log2(dim))``-bit integers, and every
extra transmitted scalar costs ``scalar_bits``.  The server broadcast is
delta-encoded: only coordinates of the new model whose float32 image differs
bit-for-bit from the previous broadcast are sent, as value+index pairs.

:func:`message_bits` is the one cost model of an upload; it returns one count
per row (client) of a batched message.  ``serialize_message`` /
``deserialize_message`` give each row a canonical byte form whose length
equals ``ceil(message_bits / 8)`` under the default cost model with zero
header bits; quantized payloads are genuinely bit-packed (sign bits then
fixed-width levels, MSB first).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .compressors import (
    CompressedMessage,
    DensePayload,
    QuantizedPayload,
    SparsePayload,
)

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


def message_bits(model: CostModel, msg: CompressedMessage,
                 extra_scalars: int = 0) -> np.ndarray:
    """Wire cost of each row (client upload) of ``msg`` under ``model``, as int64.

    ``extra_scalars`` counts side-channel scalars sent with each row (the
    projection coefficients of the projecting algorithms).  A quantized row
    with norm 0 is an empty message: it costs no payload bits.
    """
    payload = msg.payload
    if isinstance(payload, DensePayload):
        body = np.full(msg.rows, msg.dim * model.value_bits)
    elif isinstance(payload, SparsePayload):
        body = np.full(msg.rows, payload.indices.shape[1] *
                       (model.value_bits + index_bits(model, msg.dim)))
    elif isinstance(payload, QuantizedPayload):
        full = model.value_bits + msg.dim + msg.dim * _level_bits(payload.s_levels)
        body = np.where(payload.norm == 0.0, 0, full)
    else:  # pragma: no cover - exhaustive payload kinds
        raise TypeError(f"unknown payload {type(payload)}")
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


class _BitWriter:
    def __init__(self):
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int):
        if nbits and value >> nbits:
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> bytes:
        if self._nbits:
            return bytes(self._out) + bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return bytes(self._out)


class _BitReader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read(self, nbits: int) -> int:
        out = 0
        for _ in range(nbits):
            byte = self._data[self._pos >> 3]
            out = (out << 1) | ((byte >> (7 - (self._pos & 7))) & 1)
            self._pos += 1
        return out


def serialize_message(msg: CompressedMessage, row: int = 0) -> bytes:
    """Canonical bytes of one row; length == ceil(message_bits/8) under the
    default model."""
    payload = msg.payload
    if isinstance(payload, DensePayload):
        return np.asarray(payload.values[row], dtype="<f4").tobytes()
    if isinstance(payload, SparsePayload):
        return (np.asarray(payload.values[row], dtype="<f4").tobytes()
                + np.asarray(payload.indices[row], dtype="<u4").tobytes())
    if payload.norm[row] == 0.0:
        return b""
    writer = _BitWriter()
    for s in payload.signs[row]:
        writer.write(int(s), 1)
    lb = _level_bits(payload.s_levels)
    for lev in payload.levels[row]:
        writer.write(int(lev), lb)
    return struct.pack("<f", payload.norm[row]) + writer.getvalue()


def deserialize_message(data: bytes, kind: str, dim: int,
                        n_values: Optional[int] = None,
                        s_levels: Optional[int] = None) -> CompressedMessage:
    """Inverse of :func:`serialize_message`: a one-row message.

    The wire format carries no header, so the receiver supplies the payload
    ``kind`` (``dense``/``sparse``/``quantized``) and its shape parameters.
    Values come back at float32 precision.
    """
    if kind == "dense":
        values = np.frombuffer(data, dtype="<f4", count=dim).astype(np.float64)
        payload = DensePayload(values[None, :])
    elif kind == "sparse":
        if n_values is None:
            raise ValueError("sparse deserialization needs n_values")
        values = np.frombuffer(data, dtype="<f4", count=n_values).astype(np.float64)
        indices = np.frombuffer(data, dtype="<u4", count=n_values,
                                offset=4 * n_values).astype(np.int64)
        payload = SparsePayload(indices[None, :], values[None, :])
    elif kind == "quantized":
        if s_levels is None:
            raise ValueError("quantized deserialization needs s_levels")
        norm, signs, levels = 0.0, np.zeros(dim, np.uint8), np.zeros(dim, np.int64)
        if data:
            norm = struct.unpack("<f", data[:4])[0]
            reader = _BitReader(data[4:])
            signs = np.array([reader.read(1) for _ in range(dim)], dtype=np.uint8)
            lb = _level_bits(s_levels)
            levels = np.array([reader.read(lb) for _ in range(dim)], dtype=np.int64)
        payload = QuantizedPayload(np.array([norm]), signs[None, :], levels[None, :],
                                   s_levels)
    else:
        raise ValueError(f"unknown payload kind {kind!r}")
    return CompressedMessage(payload, dim)
