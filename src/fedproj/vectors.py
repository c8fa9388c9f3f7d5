"""Deterministic seeded random streams.

Vectors in the simulator are plain float64 numpy arrays; a batch of clients
is an ``(M, d)`` array with one row per client.  Randomness comes from
:class:`RngStream`, a counter-based stream keyed by
``(master_seed, client_id, round, purpose)`` so that re-deriving the same
tuple replays the same draws and client evaluation order never matters.
:func:`stream_keys` derives the keys of many such tuples at once, for the
kernels that draw one row per stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

from . import backend
from ._purekern import MASK64, mix64_array

__all__ = [
    "RngStream",
    "StreamPurpose",
    "derive_stream",
    "stream_keys",
]

# distinct odd offsets decorrelating the key-derivation chain stages
_CLIENT_SALT = 0xD1B54A32D192ED03
_ROUND_SALT = 0x8CB92BA72F3D8DD7
_PURPOSE_SALT = 0xEB44ACCAB455D165


class StreamPurpose(IntEnum):
    GRADIENT_NOISE = 1
    COMPRESSOR = 2
    DATA_SHUFFLE = 3


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

    def uniforms(self, n: int) -> np.ndarray:
        out = backend.stream_uniforms(self.key, self.offset, n)[0]
        self.offset += n
        return out

    def normals(self, n: int) -> np.ndarray:
        out = backend.stream_normals(self.key, self.offset, n)[0]
        self.offset += 2 * ((n + 1) // 2)
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
