import numpy as np
import pytest

from fedproj.accounting import (
    DEFAULT_COST_MODEL,
    CostModel,
    IndexBitsMode,
    changed_coordinates,
    deserialize_message,
    downlink_bits,
    index_bits,
    message_bits,
    serialize_message,
)
from fedproj.compressors import (
    CompressorKind,
    CompressorSpec,
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
        w = np.linspace(-1, 1, 50)
        assert downlink_bits(DEFAULT_COST_MODEL, w, w.copy()) == 0

    def test_single_change(self):
        model = CostModel(index_bits_mode=IndexBitsMode.CEIL_LOG2_DIM)
        w1 = np.zeros(1000)
        w2 = w1.copy()
        w2[77] = 1.0
        assert downlink_bits(model, w1, w2) == 42

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
            if kind == "quantized" and msg.norm[row]:   # the layout, one bit at a time
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
        msg = compress(CompressorSpec(CompressorKind.QSGD, s_levels=3), np.zeros((1, 4)),
                       stream())
        assert serialize_message(msg) == b""
        back = deserialize_message(b"", "quantized", 4, s_levels=3)
        assert message_bits(DEFAULT_COST_MODEL, back).tolist() == [0]
        assert decode(back).tolist() == [[0.0] * 4]

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
        from fedproj.compressors import QuantizedPayload
        qm = QuantizedPayload(np.array([5.0]), np.array([[0, 0]], np.uint8),
                              np.array([[1, 1]], np.int64), 1)
        # 0x40a00000 big-bit-stream then bits 0,0,1,1 -> 0b0011 << 4 = 0x30
        assert serialize_message(qm) == bytes.fromhex("0000a040" "30")
