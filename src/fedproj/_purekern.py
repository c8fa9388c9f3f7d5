"""Numpy implementation of the hot kernels (bound by name in ``fedproj.backend``).

Stream construction
-------------------
A stream is a 64-bit ``key`` plus a word counter.  Word ``n`` of the stream is

    word(n) = mix64(key + (n + 1) * GOLDEN_GAMMA)   (mod 2**64)

where ``mix64`` is the splitmix64 finalizer (xor-shift/multiply avalanche).
The construction is random-access: any word can be produced independently,
which is what makes per-(client, round, purpose) streams cheap and makes
parallel and sequential client evaluation bit-identical.

Uniform doubles take the top 53 bits: ``(word >> 11) * 2**-53`` in ``[0, 1)``.
Normal draws are Box-Muller pairs on those uniforms (the first uniform is
shifted into ``(0, 1]`` so the log is finite).
"""

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

_U64 = np.uint64
_INV_2_53 = 2.0 ** -53


def mix64(z: int) -> int:
    """splitmix64 finalizer on a Python int (used for key derivation)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & MASK64
    return z ^ (z >> 31)


def stream_words(key: int, start: int, n: int) -> np.ndarray:
    """Words ``start .. start+n-1`` of the stream, as uint64."""
    idx = np.arange(start + 1, start + n + 1, dtype=_U64)
    z = _U64(key) + _U64(GOLDEN_GAMMA) * idx
    z = (z ^ (z >> _U64(30))) * _U64(_MUL1)
    z = (z ^ (z >> _U64(27))) * _U64(_MUL2)
    return z ^ (z >> _U64(31))


def stream_uniforms(key: int, start: int, n: int) -> np.ndarray:
    """``n`` doubles in [0, 1), one stream word each."""
    return (stream_words(key, start, n) >> _U64(11)).astype(np.float64) * _INV_2_53


def stream_normals(key: int, start: int, n: int) -> np.ndarray:
    """``n`` standard normals; consumes ``2 * ceil(n / 2)`` stream words."""
    m = (n + 1) // 2
    w1 = stream_words(key, start, m)
    u1 = ((w1 >> _U64(11)).astype(np.float64) + 1.0) * _INV_2_53  # (0, 1]
    u2 = stream_uniforms(key, start + m, m)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    out = np.empty(2 * m)
    out[:m] = r * np.cos(theta)
    out[m:] = r * np.sin(theta)
    return out[:n]


def stream_subset(key: int, start: int, pop: int, k: int) -> np.ndarray:
    """Uniform k-subset of ``range(pop)``, sorted ascending; consumes k words.

    Partial Fisher-Yates driven by the stream's uniforms.
    """
    u = stream_uniforms(key, start, k)
    idx = np.arange(pop, dtype=np.int64)
    for j in range(k):
        r = j + int(u[j] * (pop - j))
        idx[j], idx[r] = idx[r], idx[j]
    picked = idx[:k]
    picked.sort()
    return picked


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest-|.| entries, ties won by the lower index.

    Returned as int64, sorted ascending.  O(d) selection, no sort: the k-th
    largest magnitude ``thr`` comes from ``np.partition``; every entry above
    ``thr`` is kept, and the remaining slots go to the entries equal to
    ``thr`` in index order.  ``-0.0`` and ``0.0`` have equal magnitude.
    """
    d = values.shape[0]
    if k >= d:
        return np.arange(d, dtype=np.int64)
    a = np.abs(values)
    thr = np.partition(a, d - k)[d - k]
    mask = a > thr
    need = k - int(np.count_nonzero(mask))
    mask[np.flatnonzero(a == thr)[:need]] = True
    return np.flatnonzero(mask)


def project_decompose(g: np.ndarray, dbar: np.ndarray, eps: float):
    """Split ``g`` into ``alpha * dbar + g_perp`` with ``dbar . g_perp = 0``.

    When ``||dbar||^2 <= eps`` the projection degenerates to ``alpha = 0``,
    ``g_perp = g``.
    """
    nd = float(np.dot(dbar, dbar))
    if nd > eps:
        alpha = float(np.dot(g, dbar)) / nd
        return alpha, g - alpha * dbar
    return 0.0, g.copy()


def qsgd_encode(values: np.ndarray, s: int, key: int, start: int):
    """Dictionary quantization of ``values`` with ``s`` levels.

    Returns ``(norm, signs, levels)`` where ``signs[j]`` is 1 for negative
    entries and ``levels[j] in [0, s]`` is the stochastic numerator of the
    quantized magnitude ``levels[j] / s``.  Consumes ``len(values)`` stream
    words.  The caller must handle the all-zero vector (norm 0) separately.
    """
    d = values.shape[0]
    norm = float(np.sqrt(np.dot(values, values)))
    signs = (values < 0.0).astype(np.uint8)
    scaled = np.abs(values) * (s / norm)
    low = np.minimum(np.floor(scaled), s - 1)
    p_low = 1.0 + low - scaled  # P(level == low)
    u = stream_uniforms(key, start, d)
    levels = (low + (u >= p_low)).astype(np.int64)
    return norm, signs, levels
