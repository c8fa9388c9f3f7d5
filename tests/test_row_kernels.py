"""The batched row kernels give the bits of the per-row loops they replace.

``np.vecdot`` over the rows of an ``(R, n)`` pair runs one BLAS ``ddot`` per
row, as a loop of ``np.dot(a[r], b[r])`` or ``a[r] @ b[r]`` does, so the
projection, the qsgd norms, the quadratic losses and the error metric keep
their bits.  (On one-element rows ``np.dot`` is the bare product, kept by
the projection; ``np.vecdot`` and ``@`` add it to ``+0.0``.)  The reference
functions below are those loops.  BLAS picks its ``ddot`` kernel
from ``OPENBLAS_CORETYPE`` and numpy its loops from
``NPY_DISABLE_CPU_FEATURES``, so the check also runs in child processes, each
with one setting in its own environment only.

The sign-bit kernel and the Rademacher noise law built on it are checked
against the stream words they read, entry by entry, and for the same bits in
child processes under those settings: their rows are integer work plus exact
float operations, so no host setting may move them.
"""

import hashlib
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from fedproj import _purekern, backend
from fedproj.algorithms import PROJECTION_EPS, AlgorithmConfig, AlgorithmKind
from fedproj.compressors import CompressorKind, CompressorSpec
from fedproj.harness import ObjectiveConfig, RunConfig, _metrics_row, build_objective, run
from fedproj.objectives import NoiseModel, ObjectiveKind, make_quadratic
from fedproj.vectors import StreamPurpose, stream_keys

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SHAPES = [(100, 200), (10, 30000), (24, 600), (5, 1)]


def reference_project(g, dbar, blocks, eps):
    """The per-row loop of ``project_decompose``: one ``np.dot`` per row and block."""
    alpha = np.zeros((len(g), len(blocks)))
    perp = np.empty(g.shape)
    for j, (start, stop) in enumerate(blocks):
        gb, db, out = g[:, start:stop], dbar[:, start:stop], perp[:, start:stop]
        flat = np.ones(len(g), dtype=bool)
        for r in range(len(g)):
            nd = float(np.dot(db[r], db[r]))
            if nd > eps:
                alpha[r, j] = float(np.dot(gb[r], db[r])) / nd
                flat[r] = False
        np.multiply(db, alpha[:, j:j + 1], out=out)
        np.subtract(gb, out, out=out)
        np.copyto(out, gb, where=flat[:, None])
    return alpha, perp


def reference_norms(values):
    """The per-row loop of the qsgd norms."""
    return np.array([np.sqrt(np.dot(row, row)) for row in values])


def row_pairs(rng):
    """``(a, b)`` row pairs of every shape, contiguous and as strided column
    slices of a wider array."""
    for R, n in SHAPES:
        a = rng.standard_normal((R, n)) * 10.0 ** rng.integers(-8, 8, (R, 1))
        b = rng.standard_normal((R, n))
        yield a, b
        yield a, a
        wide = rng.standard_normal((R, 3 * n + 1))
        yield wide[:, 1::3], wide[:, 2::3]
        yield wide[:, n:2 * n], wide[:, 2 * n + 1:]


def special_rows():
    """Live rows next to non-finite ones, sub-threshold directions and signed
    zeros, taken as strided column slices of one array."""
    rng = np.random.default_rng(4)
    g, dbar = rng.standard_normal((2, 9, 13))
    g[1, 3] = np.nan
    g[2, 5] = np.inf
    dbar[3, 7] = np.inf
    dbar[4, 1] = np.nan
    dbar[5] = 1e-20                     # ||dbar||^2 <= eps
    dbar[6] = -0.0
    g[6, ::2] = -0.0
    dbar[7, :6] = 0.0                   # only the first block degenerates
    g[8] = -0.0
    wide = np.concatenate([g, dbar], axis=1)
    return wide[:, :13], wide[:, 13:]


SPECIAL_BLOCKS = [((0, 13),), ((0, 6), (6, 13)), ((0, 1), (1, 13)), ((0, 12), (12, 13))]


def check_premise(seed=0):
    """Raise unless each batched kernel equals its per-row reference bit for bit."""
    g, dbar = special_rows()
    with np.errstate(all="ignore"):
        for blocks in SPECIAL_BLOCKS:
            got = backend.project_decompose(g, dbar, blocks, PROJECTION_EPS)
            want = reference_project(g, dbar, blocks, PROJECTION_EPS)
            assert got[0].tobytes() == want[0].tobytes(), blocks
            assert got[1].tobytes() == want[1].tobytes(), blocks
    rng = np.random.default_rng(seed)
    for a, b in row_pairs(rng):
        ref = np.array([np.dot(x, y) for x, y in zip(a, b)])
        assert np.vecdot(a, b).tobytes() == ref.tobytes(), a.shape
        assert np.vecdot(a, b).tobytes() == np.array([x @ y for x, y in zip(a, b)]).tobytes()
        n = a.shape[1]
        for blocks in (((0, n),), ((0, n // 2), (n // 2, n))):
            got = backend.project_decompose(a, b, blocks, PROJECTION_EPS)
            want = reference_project(a, b, blocks, PROJECTION_EPS)
            assert got[0].tobytes() == want[0].tobytes(), (a.shape, blocks)
            assert got[1].tobytes() == want[1].tobytes(), (a.shape, blocks)
        keys = stream_keys(seed, np.arange(len(a)), 0, StreamPurpose.COMPRESSOR)
        norm = backend.qsgd_encode(a, 4, keys, 0)[0]
        assert norm.tobytes() == reference_norms(a).tobytes(), a.shape


def avx512_off():
    """``NPY_DISABLE_CPU_FEATURES`` for the AVX-512 targets numpy dispatches
    to on this host, or None when it has none."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    names = [f for f in __cpu_dispatch__
             if (f.startswith("AVX512") or f == "X86_V4") and __cpu_features__.get(f)]
    return " ".join(names) or None


def in_child(setting, statement):
    """The last stdout line of ``statement``, run on this module in a child
    process whose environment alone has ``setting``."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    if setting == "avx512-off":
        features = avx512_off()
        if features is None:
            pytest.skip("numpy dispatches to no AVX-512 target on this host")
        env["NPY_DISABLE_CPU_FEATURES"] = features
    elif setting != "default":
        name, value = setting.split("=")
        env[name] = value
    code = (f"import sys; sys.path.insert(0, {str(TESTS)!r})\n"
            "import test_row_kernels\n"
            f"{statement}\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("setting", ["default", "OPENBLAS_CORETYPE=Haswell",
                                     "OPENBLAS_CORETYPE=Prescott", "avx512-off"])
def test_batched_kernels_equal_per_row_loops_in_child(setting):
    assert in_child(setting, "test_row_kernels.check_premise(); print('ok')") == "ok"


def test_batched_kernels_equal_per_row_loops():
    check_premise(seed=1)


class TestProjectDecompose:
    @pytest.mark.parametrize("blocks", SPECIAL_BLOCKS)
    def test_equals_reference_loop(self, blocks):
        """One-wide blocks included: ``np.dot`` of one-element rows keeps the
        sign of a zero product, which ``np.vecdot`` alone would not."""
        g, dbar = special_rows()
        with np.errstate(all="ignore"):
            got = backend.project_decompose(g, dbar, blocks, PROJECTION_EPS)
            want = reference_project(g, dbar, blocks, PROJECTION_EPS)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_degenerate_rows_pass_g_through(self):
        g, dbar = special_rows()
        alpha, perp = backend.project_decompose(g[5:7], dbar[5:7], ((0, 13),), PROJECTION_EPS)
        assert not alpha.any()
        assert perp.tobytes() == np.ascontiguousarray(g[5:7]).tobytes()


class TestQsgdNorms:
    def test_equal_reference_loop(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((6, 40))[:, ::2]
        values[1, 3] = np.nan
        values[2, 0] = -np.inf
        values[3] = -0.0
        values[3, 4] = 1e-300
        values[4, ::3] = -0.0
        values[5] = 1e200                   # the squares overflow
        keys = stream_keys(0, np.arange(6), 0, StreamPurpose.COMPRESSOR)
        with np.errstate(all="ignore"):
            norm = backend.qsgd_encode(values, 3, keys, 0)[0]
            assert norm.tobytes() == reference_norms(values).tobytes()


def test_quadratic_losses_and_error_metric_equal_reference_loops():
    rng = np.random.default_rng(6)
    obj = make_quadratic(12, 30, rng.standard_normal((12, 30)))
    w = rng.standard_normal(30)
    losses, rows = obj.client_loss_grads(w)
    assert losses == [0.5 * float(r @ r) for r in rows]
    assert all(type(x) is float for x in losses)
    error = rng.standard_normal((12, 30))
    row = _metrics_row(obj, 0, w, types.SimpleNamespace(error=error), losses, rows,
                       0, 0, 0, 0)
    assert row.err_mean_sq == float(np.mean([e @ e for e in error]))


SIGN_WIDTHS = [1, 63, 64, 65, 30000]


def noise_keys(n, round_index=3):
    return stream_keys(11, np.arange(n), round_index, StreamPurpose.GRADIENT_NOISE)


def reference_signs(key, n):
    """Bit ``j`` of a row: bit ``j % 64`` of word ``j // 64``, by integer shifts."""
    words = [int(w) for w in _purekern.stream_words([key], 0, -(-n // 64))[0]]
    return np.array([(words[j // 64] >> (j % 64)) & 1 for j in range(n)], dtype=np.uint8)


def rademacher_digest():
    """sha256 of an ``(8, 1000)`` draw of the noise law."""
    return hashlib.sha256(NoiseModel(0.5).draw(1000, noise_keys(8)).tobytes()).hexdigest()


class TestStreamSigns:
    @pytest.mark.parametrize("d", SIGN_WIDTHS)
    def test_bits_are_the_stream_words_lsb_first(self, d):
        keys = noise_keys(3)
        bits = backend.stream_signs(keys, 0, d)
        assert bits.shape == (3, d) and bits.dtype == np.uint8
        for r, key in enumerate(keys):
            assert np.array_equal(bits[r], reference_signs(key, d)), r

    def test_start_counts_words(self):
        keys = noise_keys(4)
        assert np.array_equal(backend.stream_signs(keys, 2, 70),
                              backend.stream_signs(keys, 0, 198)[:, 128:])

    @pytest.mark.parametrize("d", SIGN_WIDTHS)
    def test_batch_equals_rows_one_at_a_time(self, d):
        keys = noise_keys(5)
        noise = NoiseModel(0.7)
        rows = noise.draw(d, keys)
        for r, key in enumerate(keys):
            assert rows[r].tobytes() == noise.draw(d, key)[0].tobytes(), r
            assert np.array_equal(backend.stream_signs(keys, 0, d)[r],
                                  backend.stream_signs(key, 0, d)[0])


class TestRademacherNoise:
    @pytest.mark.parametrize("d", SIGN_WIDTHS)
    def test_every_entry_is_plus_or_minus_the_scale(self, d):
        sigma = 0.7
        keys = noise_keys(6)
        rows = NoiseModel(sigma).draw(d, keys)
        scale = sigma / np.sqrt(d)
        want = np.where(backend.stream_signs(keys, 0, d) == 1, -scale, scale)
        assert rows.tobytes() == want.tobytes()
        assert np.vecdot(rows, rows) == pytest.approx(np.full(6, sigma ** 2), rel=1e-12)

    def test_mean_within_a_clt_bound(self):
        """4 096 fixed keys: each coordinate's mean has standard error
        ``scale / 64``, and every one lies within 6 of them of 0."""
        sigma, d, n = 2.0, 100, 4096
        rows = NoiseModel(sigma).draw(d, noise_keys(n, round_index=np.arange(n)))
        stderr = sigma / np.sqrt(d) / np.sqrt(n)
        assert np.abs(rows.mean(axis=0)).max() <= 6 * stderr
        assert abs(rows.mean()) <= 6 * stderr / np.sqrt(d)

    @pytest.mark.parametrize("compressor", list(CompressorKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("kind", list(AlgorithmKind), ids=lambda k: k.value)
    def test_round_loop_calls_no_log_cos_or_sin(self, monkeypatch, kind, compressor):
        """Only the set-up draws normals: with the objective built, no round
        loop reaches ``np.log``, ``np.cos`` or ``np.sin``."""
        cfg = RunConfig(
            objective=ObjectiveConfig(ObjectiveKind.QUADRATIC, d=70, clients=3,
                                      centers="random"),
            algorithm=AlgorithmConfig(kind, eta=0.1,
                                      compressor=CompressorSpec(compressor, k_fraction=0.1)),
            noise=NoiseModel(0.5), rounds=5, seeds=(0, 1))
        obj = build_objective(cfg.objective)

        def refuse(*args, **kwargs):
            raise AssertionError("the round loop called a transcendental function")
        for name in ("log", "cos", "sin"):
            monkeypatch.setattr(np, name, refuse)
        assert [len(r.rows) for r in run(cfg, obj, 1)] == [6, 6]


@pytest.mark.parametrize("setting", ["OPENBLAS_CORETYPE=Haswell", "avx512-off"])
def test_rademacher_rows_have_the_same_bits_in_child(setting):
    assert in_child(setting, "print(test_row_kernels.rademacher_digest())") == \
        rademacher_digest()
