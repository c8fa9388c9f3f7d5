import struct
from typing import Optional

import numpy as np
import pytest

from fedproj.accounting import (
    DEFAULT_COST_MODEL,
    CostModel,
    IndexBitsMode,
    _level_bits,
    changed_coordinates,
    downlink_bits,
    index_bits,
    message_bits,
)
from fedproj.compressors import (
    CompressorKind,
    CompressorSpec,
    DensePayload,
    Payload,
    QuantizedPayload,
    SparsePayload,
    compress,
    decode,
)
from fedproj.vectors import StreamPurpose, stream_keys


def stream(r=0):
    return stream_keys(0, 0, r, StreamPurpose.COMPRESSOR)


def rows(g):
    return np.atleast_2d(np.asarray(g, dtype=np.float64))


class TestMessageBits:
    def test_sparse_ceil_log2(self):
        model = CostModel(index_bits_mode=IndexBitsMode.CEIL_LOG2_DIM)
        msg = compress(CompressorSpec(CompressorKind.TOPK, k_fraction=0.01),
                       rows(np.arange(1.0, 1001.0)))
        assert index_bits(model, 1000) == 10
        assert message_bits(model, msg).tolist() == [10 * 42]

    def test_dense(self):
        msg = compress(CompressorSpec(CompressorKind.IDENTITY), np.zeros((3, 100)))
        assert message_bits(DEFAULT_COST_MODEL, msg).tolist() == [3200] * 3

    def test_scalar_surcharge(self):
        msg = compress(CompressorSpec(CompressorKind.TOPK, k_fraction=0.1),
                       rows(np.arange(1.0, 21.0)))
        base = message_bits(DEFAULT_COST_MODEL, msg)
        assert (message_bits(DEFAULT_COST_MODEL, msg, extra_scalars=1) == base + 32).all()

    def test_quantized_formula(self):
        msg = compress(CompressorSpec(CompressorKind.QSGD, s_levels=3),
                       rows([3.0, -4.0, 1.0]), stream())
        # norm 32 + 3 sign bits + 3 levels x ceil(log2(4)) = 2 bits
        assert message_bits(DEFAULT_COST_MODEL, msg).tolist() == [32 + 3 + 6]

    def test_header_bits(self):
        model = CostModel(header_bits=16)
        msg = compress(CompressorSpec(CompressorKind.IDENTITY), np.zeros((1, 4)))
        assert message_bits(model, msg).tolist() == [4 * 32 + 16]

    def test_compressor_bit_size_cross_check(self):
        """message_bits under the default model, against the formula of each kind."""
        rng = np.random.default_rng(0)
        g = rows(rng.standard_normal(64))
        part = ((0, 16), (16, 64))
        cases = [
            (CompressorSpec(CompressorKind.IDENTITY), 64 * 32),
            (CompressorSpec(CompressorKind.TOPK, k_fraction=0.25), 16 * 64),
            (CompressorSpec(CompressorKind.TOPK, k_fraction=0.25, layerwise=True),
             (4 + 12) * 64),
            (CompressorSpec(CompressorKind.RANDK, k_fraction=0.1), 6 * 64),
            (CompressorSpec(CompressorKind.QSGD, s_levels=4), 32 + 64 + 64 * 3),
        ]
        for spec, bits in cases:
            msg = compress(spec, g, stream(), part)
            assert message_bits(DEFAULT_COST_MODEL, msg).tolist() == [bits], spec


class TestDownlink:
    def test_unchanged_is_free(self):
        """An unchanged image costs only the form tag: zero pairs."""
        w = np.linspace(-1, 1, 50)
        assert downlink_bits(DEFAULT_COST_MODEL, w, w.copy()) == 2

    def test_single_change(self):
        """One pair of a 32-bit value and a 10-bit index, plus the tag."""
        model = CostModel(index_bits_mode=IndexBitsMode.CEIL_LOG2_DIM)
        w1 = np.zeros(1000)
        w2 = w1.copy()
        w2[77] = 1.0
        assert downlink_bits(model, w1, w2) == 44

    @pytest.mark.parametrize("n, bits", [
        (1, 64), (3, 192),          # pairs: 64 bits each
        (4, 100 + 128),             # bitmap: d bits, then 32 per value
        (96, 100 + 3072),
        (97, 3200), (100, 3200),    # dense: 32 per coordinate
    ])
    def test_cheapest_form(self, n, bits):
        w1 = np.zeros(100)
        w2 = w1.copy()
        w2[:n] = 1.0
        assert downlink_bits(DEFAULT_COST_MODEL, w1, w2) == bits + 2

    def test_sub_float32_changes_are_free(self):
        w1 = np.ones(10)
        w2 = w1 + 1e-12  # below float32 resolution at 1.0
        assert changed_coordinates(w1, w2) == 0

    def test_topk_union_bound(self):
        """Changed coordinates after a sparse update never exceed M * k."""
        rng = np.random.default_rng(1)
        d, M, kf = 40, 5, 0.1
        spec = CompressorSpec(CompressorKind.TOPK, k_fraction=kf)
        w = rng.standard_normal(d)
        msg = compress(spec, rng.standard_normal((M, d)))
        update = np.mean(decode(msg), axis=0)
        w_next = w - 0.5 * update
        assert changed_coordinates(w, w_next) <= min(d, M * 4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            downlink_bits(DEFAULT_COST_MODEL, np.zeros(3), np.zeros(4))


# A reference broadcast codec: the caller's shared state is the previous
# float32 image.  The message is header_bits zero bits, the 2-bit form tag
# (0 dense, 1 pairs, 2 bitmap), then the body, MSB first, zero-padded to a
# whole byte; its length is all the receiver learns of the pairs' count.
FORMS = ("dense", "pairs", "bitmap")


def _to_bits(words, width):
    """Each unsigned integer as ``width`` bits, most significant first."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    words = np.asarray(words, dtype=np.uint64)
    return ((words[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)


def _from_bits(bits, width, count):
    """The first ``count`` integers of ``width`` bits each."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    rows = bits[:count * width].reshape(count, width).astype(np.uint64)
    return (rows @ (np.uint64(1) << shifts)).astype(np.uint32)


def float32_words(w):
    return np.asarray(w, dtype=np.float32).view(np.uint32)


def encode_broadcast(model, w_prev, w_next):
    """(bytes, form) of the shortest form of ``w_next``'s float32 image."""
    assert model.value_bits == 32
    prev, nxt = float32_words(w_prev), float32_words(w_next)
    changed = np.flatnonzero(prev != nxt)
    index_width = index_bits(model, prev.size)
    bodies = [_to_bits(nxt, 32).ravel(),
              np.hstack([_to_bits(nxt[changed], 32),
                         _to_bits(changed, index_width)]).ravel(),
              np.concatenate([(prev != nxt).astype(np.uint8),
                              _to_bits(nxt[changed], 32).ravel()])]
    form = min(range(len(FORMS)), key=lambda f: bodies[f].size)
    stream = np.concatenate([np.zeros(model.header_bits, np.uint8),
                             _to_bits([form], 2).ravel(), bodies[form]])
    return np.packbits(stream).tobytes(), FORMS[form]


def decode_broadcast(model, data, w_prev):
    """The float32 image that ``data`` encodes against ``w_prev``'s."""
    prev = float32_words(w_prev)
    d = prev.size
    bits = np.unpackbits(np.frombuffer(data, np.uint8))[model.header_bits:]
    form, body = FORMS[int(_from_bits(bits, 2, 1)[0])], bits[2:]
    nxt = prev.copy()
    if form == "dense":
        nxt, used = _from_bits(body, 32, d), 32 * d
    elif form == "pairs":
        pair = 32 + index_bits(model, d)
        n = body.size // pair      # the padding is under 8 bits, shorter than a pair
        rows = body[:n * pair].reshape(n, pair)
        nxt[_from_bits(rows[:, 32:].ravel(), pair - 32, n)] = \
            _from_bits(rows[:, :32].ravel(), 32, n)
        used = n * pair
    else:
        mask = body[:d].astype(bool)
        n = int(np.count_nonzero(mask))
        nxt[mask] = _from_bits(body[d:], 32, n)
        used = d + 32 * n
    padding = body[used:]
    assert padding.size < 8 and not padding.any(), form
    return nxt.view(np.float32)


class TestBroadcastDecodes:
    """Every form decodes from its charged bits: bytes of length
    ceil(downlink_bits / 8) rebuild the next float32 image bit for bit."""

    FIXED = DEFAULT_COST_MODEL
    LOG2 = CostModel(index_bits_mode=IndexBitsMode.CEIL_LOG2_DIM)

    def check(self, model, w_prev, w_next):
        bits = downlink_bits(model, w_prev, w_next)
        data, form = encode_broadcast(model, w_prev, w_next)
        assert len(data) == -(-bits // 8)
        back = decode_broadcast(model, data, w_prev)
        assert back.tobytes() == np.asarray(w_next, dtype=np.float32).tobytes()
        return form

    @staticmethod
    def images(d, n, seed=0):
        rng = np.random.default_rng(seed)
        w_prev = rng.standard_normal(d)
        w_next = w_prev.copy()
        w_next[rng.choice(d, n, replace=False)] += 1.0
        assert changed_coordinates(w_prev, w_next) == n
        return w_prev, w_next

    @pytest.mark.parametrize("model", [FIXED, LOG2], ids=["fixed32", "ceil_log2"])
    @pytest.mark.parametrize("n, form", [(0, "pairs"), (7, "pairs"), (64, "bitmap"),
                                         (256, "dense")])
    def test_each_form_wins(self, model, n, form):
        """d = 256: n = 0 and n < d/32 go as pairs, n = d/4 as a bitmap, n = d dense."""
        assert self.check(model, *self.images(256, n)) == form

    def test_compact_indices_shift_the_pairs_bound(self):
        """8-bit indices make a pair 40 bits: of d = 256, 40-bit pairs lose
        to the bitmap from n = 33 and 64-bit ones from n = 9 (a tie, at
        n = 32 and n = 8, goes as pairs)."""
        for n, fixed, log2 in [(8, "pairs", "pairs"), (9, "bitmap", "pairs"),
                               (32, "bitmap", "pairs"), (33, "bitmap", "bitmap")]:
            assert self.check(self.FIXED, *self.images(256, n)) == fixed
            assert self.check(self.LOG2, *self.images(256, n)) == log2

    @pytest.mark.parametrize("model", [FIXED, LOG2], ids=["fixed32", "ceil_log2"])
    @pytest.mark.parametrize("d", [1, 2, 7, 13, 40])
    def test_every_count_decodes(self, model, d):
        """Every n from 0 to d, at widths that leave each padding length;
        from d = 7 each form wins for some n."""
        forms = {self.check(model, *self.images(d, n, seed=n)) for n in range(d + 1)}
        assert {"pairs", "dense"} <= forms
        assert d < 7 or "bitmap" in forms

    @pytest.mark.parametrize("n, form", [(0, "pairs"), (3, "pairs"), (40, "bitmap"),
                                         (100, "dense")])
    def test_header_bits(self, n, form):
        model = CostModel(header_bits=8)
        w_prev, w_next = self.images(100, n)
        bits = downlink_bits(model, w_prev, w_next)
        assert bits == downlink_bits(self.FIXED, w_prev, w_next) + 8
        assert self.check(model, w_prev, w_next) == form

    def test_negative_zero_is_a_change(self):
        """-0.0 and +0.0 differ bitwise, so the sign travels."""
        w_prev = np.zeros(64)
        w_next = w_prev.copy()
        w_next[[3, 40]] = -0.0
        assert changed_coordinates(w_prev, w_next) == 2
        assert downlink_bits(self.FIXED, w_prev, w_next) == 2 + 2 * 64
        assert self.check(self.FIXED, w_prev, w_next) == "pairs"
        assert self.check(self.FIXED, w_next, w_prev) == "pairs"   # back to +0.0


# A reference uplink codec: the canonical byte form of one row of a payload,
# whose length is ceil(message_bits / 8) under the default cost model.
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


class TestWireFormat:
    def test_lengths_match_ceil_bits(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((2, 13))
        g[1] = 0.0
        for spec in [CompressorSpec(CompressorKind.IDENTITY),
                     CompressorSpec(CompressorKind.TOPK, k_fraction=0.3),
                     CompressorSpec(CompressorKind.QSGD, s_levels=1),
                     CompressorSpec(CompressorKind.QSGD, s_levels=5)]:
            msg = compress(spec, g, stream_keys(0, np.arange(2), 0, StreamPurpose.COMPRESSOR))
            bits = message_bits(DEFAULT_COST_MODEL, msg)
            for row in range(2):
                raw = serialize_message(msg, row)
                assert len(raw) == -(-int(bits[row]) // 8), spec

    SHAPES = [CompressorSpec(CompressorKind.IDENTITY),
              CompressorSpec(CompressorKind.RANDK, k_fraction=0.3),
              CompressorSpec(CompressorKind.TOPK, k_fraction=0.3),
              CompressorSpec(CompressorKind.RANDK, k_fraction=0.3, layerwise=True),
              CompressorSpec(CompressorKind.TOPK, k_fraction=0.3, layerwise=True),
              *(CompressorSpec(CompressorKind.QSGD, s_levels=s) for s in range(1, 10))]
    WIRE_KIND = {CompressorKind.IDENTITY: "dense", CompressorKind.RANDK: "sparse",
                 CompressorKind.TOPK: "sparse", CompressorKind.QSGD: "quantized"}

    @pytest.mark.parametrize("d", [1, 7, 8, 13])
    @pytest.mark.parametrize("spec", SHAPES, ids=lambda s: f"{s.kind.value}-{s.s_levels}"
                             f"{'-layerwise' if s.layerwise else ''}")
    def test_every_row_decodes_from_its_charged_bytes(self, spec, d):
        """Level widths 1 to 4 bits, byte-aligned or not, with an all-zero row."""
        g = np.random.default_rng(d).standard_normal((3, d))
        g[1] = 0.0
        part = ((0, d // 2), (d // 2, d)) if d > 1 else ((0, 1),)
        msg = compress(spec, g, stream_keys(0, np.arange(3), 0, StreamPurpose.COMPRESSOR),
                       part)
        bits = message_bits(DEFAULT_COST_MODEL, msg)
        kind = self.WIRE_KIND[spec.kind]
        shape = dict(n_values=msg.values.shape[1] if kind == "sparse" else None,
                     s_levels=spec.s_levels)
        for row in range(3):
            raw = serialize_message(msg, row)
            assert len(raw) == -(-int(bits[row]) // 8)
            if kind == "quantized":   # the layout, one bit at a time
                width = len(format(spec.s_levels, "b"))
                layout = "".join(f"{s}" for s in msg.signs[row]) + \
                    "".join(f"{lev:0{width}b}" for lev in msg.levels[row])
                layout += "0" * (-len(layout) % 8)
                assert raw[4:] == int(layout, 2).to_bytes(len(layout) // 8, "big")
            back = deserialize_message(raw, kind, d, **shape)
            np.testing.assert_allclose(decode(back)[0], decode(msg)[row],
                                       rtol=np.finfo(np.float32).eps, atol=0)

    @pytest.mark.parametrize("kind, spec, shape", [
        ("dense", CompressorSpec(CompressorKind.IDENTITY), {}),
        ("sparse", CompressorSpec(CompressorKind.TOPK, k_fraction=0.5), dict(n_values=2)),
        ("quantized", CompressorSpec(CompressorKind.QSGD, s_levels=3), dict(s_levels=3)),
    ])
    @pytest.mark.parametrize("damage", ["short", "long"])
    def test_non_canonical_length_is_refused(self, kind, spec, shape, damage):
        raw = serialize_message(compress(spec, rows([3.0, -4.0, 0.25, 1.0]), stream()))
        bad = raw[:-1] if damage == "short" else raw + b"\0\0"
        with pytest.raises(ValueError, match=f"is {len(raw)} bytes, got {len(bad)}"):
            deserialize_message(bad, kind, 4, **shape)

    def test_nonzero_padding_is_refused(self):
        """d = 7, s = 3: 7 sign bits and 14 level bits leave 3 padding bits."""
        msg = compress(CompressorSpec(CompressorKind.QSGD, s_levels=3),
                       rows([3.0, -4.0, 0.25, 1.0, -2.0, 0.5, 6.0]), stream())
        raw = serialize_message(msg)
        assert len(raw) == 4 + 3
        deserialize_message(raw, "quantized", 7, s_levels=3)
        flipped = raw[:-1] + bytes([raw[-1] ^ 1])
        with pytest.raises(ValueError, match="3 padding bits must be zero"):
            deserialize_message(flipped, "quantized", 7, s_levels=3)

    def test_sparse_roundtrip_float32(self):
        msg = compress(CompressorSpec(CompressorKind.TOPK, k_fraction=0.34),
                       rows([0.0, 7.5, 0.0]))
        back = deserialize_message(serialize_message(msg), "sparse", 3, n_values=1)
        assert decode(back).tolist() == [[0.0, 7.5, 0.0]]

    def test_quantized_roundtrip(self):
        msg = compress(CompressorSpec(CompressorKind.QSGD, s_levels=3),
                       rows([3.0, -4.0, 0.25, 1.0]), stream())
        back = deserialize_message(serialize_message(msg), "quantized", 4, s_levels=3)
        assert np.array_equal(back.levels, msg.levels)
        assert np.array_equal(back.signs, msg.signs)
        assert back.norm[0] == pytest.approx(msg.norm[0], rel=1e-7)

    def test_empty_quantized_roundtrip(self):
        """An all-zero row is a full message: a zero norm and zero bits."""
        msg = compress(CompressorSpec(CompressorKind.QSGD, s_levels=3), np.zeros((1, 4)),
                       stream())
        assert serialize_message(msg) == bytes(4 + 2)   # 4 signs and 4 two-bit levels
        back = deserialize_message(bytes(6), "quantized", 4, s_levels=3)
        assert message_bits(DEFAULT_COST_MODEL, back).tolist() == [32 + 4 * (1 + 2)]
        assert decode(back).tobytes() == np.zeros((1, 4)).tobytes()
        with pytest.raises(ValueError, match="is 6 bytes, got 0"):
            deserialize_message(b"", "quantized", 4, s_levels=3)

    def test_dense_roundtrip(self):
        g = rows([1.0, -2.0, 3.5])
        msg = compress(CompressorSpec(CompressorKind.IDENTITY), g)
        back = deserialize_message(serialize_message(msg), "dense", 3)
        assert np.allclose(back.values, g, rtol=1e-7)

    def test_golden_bytes(self):
        """Frozen wire bytes for fixed messages."""
        msg = compress(CompressorSpec(CompressorKind.TOPK, k_fraction=0.34),
                       rows([0.0, 7.5, 0.0]))
        assert serialize_message(msg) == bytes.fromhex("0000f040" "01000000")

        dense = compress(CompressorSpec(CompressorKind.IDENTITY), rows([1.0, -2.0]))
        assert serialize_message(dense) == bytes.fromhex("0000803f" "000000c0")

        # quantized: norm 5.0, signs (0,0), levels (1,1), s=1
        qm = QuantizedPayload(np.array([5.0]), np.array([[0, 0]], np.uint8),
                              np.array([[1, 1]], np.int64), 1)
        # 0x40a00000 big-bit-stream then bits 0,0,1,1 -> 0b0011 << 4 = 0x30
        assert serialize_message(qm) == bytes.fromhex("0000a040" "30")
