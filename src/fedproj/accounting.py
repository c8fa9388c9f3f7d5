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
Under the default cost model with zero header bits, a row's count rounded up
to whole bytes is the length of a canonical byte form, so every charged bit
is one a receiver could decode.  A dense row is its float32 values; a
sparse row its float32 values, then its uint32 indices; a quantized row, an
all-zero one included, its float32 norm, then the sign bits and each level
in ``_level_bits`` bits, MSB first, zero-padded to a whole byte.  The
reference codecs in ``tests/test_accounting.py`` write and read these forms
and those of the broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .compressors import Payload, QuantizedPayload, SparsePayload

__all__ = [
    "IndexBitsMode",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "index_bits",
    "message_bits",
    "downlink_bits",
    "changed_coordinates",
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
