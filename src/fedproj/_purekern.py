"""Numpy implementation of the hot kernels (bound by name in ``fedproj.backend``).

Stream construction
-------------------
A stream is a 64-bit ``key`` plus a word counter.  Word ``n`` of the stream is

    word(n) = mix64(key + (n + 1) * GOLDEN_GAMMA)   (mod 2**64)

where ``mix64`` is the splitmix64 finalizer (xor-shift/multiply avalanche).
The construction is random-access: any word can be produced independently,
which is what makes per-(client, round, purpose) streams cheap and lets one
call draw the same words for many streams at once.

The stream kernels take an array of ``R`` keys and return ``R`` rows, row
``r`` being what the stream keyed ``keys[r]`` yields from word ``start`` on;
a single stream is the case ``R = 1``.  Uniform doubles take the top 53
bits: ``(word >> 11) * 2**-53`` in ``[0, 1)``.  Normal draws are Box-Muller
pairs on those uniforms (the first uniform is shifted into ``(0, 1]`` so the
log is finite); only set-up draws them, never the round loop.  Sign bits,
the gradient noise, take all 64 bits of a word, least significant first: bit
``j`` of a row is bit ``j % 64`` of word ``start + j // 64``, so a row of
``n`` bits consumes ``ceil(n / 64)`` words and draws them with integer
operations alone.
"""

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

_U64 = np.uint64
_INV_2_53 = 2.0 ** -53


def mix64_array(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer ``mix64`` on a uint64 array, in place (wraps
    mod 2**64); also derives the stream keys (``vectors.stream_keys``)."""
    z ^= z >> _U64(30)
    z *= _U64(_MUL1)
    z ^= z >> _U64(27)
    z *= _U64(_MUL2)
    z ^= z >> _U64(31)
    return z


def stream_words(keys, start: int, n: int) -> np.ndarray:
    """Words ``start .. start+n-1`` of each stream, as an ``(R, n)`` uint64 array."""
    idx = np.arange(start + 1, start + n + 1, dtype=_U64)
    return mix64_array(np.asarray(keys, dtype=_U64).reshape(-1, 1) + _U64(GOLDEN_GAMMA) * idx)


def _top53(words: np.ndarray) -> np.ndarray:
    words >>= _U64(11)
    return words.astype(np.float64)


def stream_uniforms(keys, start: int, n: int) -> np.ndarray:
    """``(R, n)`` doubles in [0, 1), one stream word each."""
    out = _top53(stream_words(keys, start, n))
    out *= _INV_2_53
    return out


def stream_normals(keys, start: int, n: int) -> np.ndarray:
    """``(R, n)`` standard normals; each row consumes ``2 * ceil(n / 2)`` words."""
    m = (n + 1) // 2
    u = _top53(stream_words(keys, start, 2 * m))
    u1, u2 = u[:, :m], u[:, m:]
    u1 += 1.0
    u *= _INV_2_53                                     # u1 in (0, 1], u2 in [0, 1)
    r = np.log(u1)
    r *= -2.0
    np.sqrt(r, out=r)
    u2 *= 2.0 * np.pi                                  # theta
    out = np.empty((len(u), 2, m))                    # cos half, then sin half
    np.cos(u2, out=out[:, 0])
    np.sin(u2, out=out[:, 1])
    out *= r[:, None]
    return out.reshape(len(u), 2 * m)[:, :n]


def stream_signs(keys, start: int, n: int) -> np.ndarray:
    """``(R, n)`` bits as uint8, 64 per stream word, least significant first;
    each row consumes ``ceil(n / 64)`` words."""
    words = stream_words(keys, start, -(-n // 64)).astype("<u8", copy=False)
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little")


def stream_subset(keys, start: int, pop: int, k: int) -> np.ndarray:
    """A uniform k-subset of ``range(pop)`` per stream, each row sorted
    ascending; consumes k words.

    Partial Fisher-Yates driven by the stream's uniforms, all rows at once.
    """
    u = stream_uniforms(keys, start, k)
    # step j swaps j with j + floor(u_j (pop - j))
    swaps = (u * np.arange(pop, pop - k, -1)).astype(np.int64) + np.arange(k)
    rows = np.arange(u.shape[0])
    idx = np.tile(np.arange(pop, dtype=np.int64), (u.shape[0], 1))
    for j, r in enumerate(swaps.T):
        picked = idx[rows, r]
        idx[rows, r] = idx[:, j]
        idx[:, j] = picked
    out = idx[:, :k].copy()
    out.sort(axis=1)
    return out


def topk_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest-|.| entries, ties won by the lower index.

    Returned as int64, sorted ascending.  O(d) selection, no sort: the k-th
    largest magnitude ``thr`` comes from ``np.partition``; every entry above
    ``thr`` is kept, and the remaining slots go to the entries equal to
    ``thr`` in index order.  ``-0.0`` and ``0.0`` have equal magnitude.  When
    NaN entries leave slots unfilled, NaN counts as an infinite magnitude, so
    exactly k indices always come back.
    """
    d = values.shape[0]
    if k >= d:
        return np.arange(d, dtype=np.int64)
    a = np.abs(values)
    thr = np.partition(a, d - k)[d - k]
    mask = a > thr
    need = k - int(np.count_nonzero(mask))
    ties = np.flatnonzero(a == thr)
    if len(ties) < need:   # NaN: np.partition ranks it above every number
        return topk_indices(np.where(np.isnan(a), np.inf, a), k)
    mask[ties[:need]] = True
    return np.flatnonzero(mask)


def project_decompose(g: np.ndarray, dbar: np.ndarray, blocks, eps: float):
    """Split block ``j = (start, stop)`` of each row ``g[r]`` into
    ``alpha[r, j] * dbar[r, start:stop]`` plus a remainder orthogonal to it;
    returns ``alpha``, ``(R, len(blocks))``, and the remainders as one
    ``(R, d)`` array.  The flat projection is the one block ``((0, d),)``.
    A block with ``||dbar[r, start:stop]||^2 <= eps`` degenerates to
    ``alpha = 0`` and remainder ``g``.  Each block's two inner products are
    one ``np.vecdot`` over the rows (one BLAS ``ddot`` per row, as ``np.dot``
    per row).  A one-wide block takes the bare product, as ``np.dot`` does,
    where ``np.vecdot`` would add it to ``+0.0`` and lose a zero's sign.
    """
    alpha = np.zeros((len(g), len(blocks)))
    perp = np.empty(g.shape)
    for j, (start, stop) in enumerate(blocks):
        gb, db, out = g[:, start:stop], dbar[:, start:stop], perp[:, start:stop]
        nd = np.vecdot(db, db)
        gd = gb[:, 0] * db[:, 0] if stop - start == 1 else np.vecdot(gb, db)
        live = nd > eps
        np.divide(gd, nd, out=alpha[:, j], where=live)
        np.multiply(db, alpha[:, j:j + 1], out=out)
        np.subtract(gb, out, out=out)
        np.copyto(out, gb, where=~live[:, None])
    return alpha, perp


def qsgd_encode(values: np.ndarray, s: int, keys, start: int):
    """Dictionary quantization of each row of ``values`` with ``s`` levels.

    Returns ``(norm, signs, levels)``: ``norm[r]`` is the row's l2 norm (one
    ``np.vecdot`` over the rows, one BLAS ``ddot`` per row), ``signs[r, j]``
    is 1 for negative entries and ``levels[r, j] in [0, s]`` is the
    stochastic numerator of the quantized magnitude ``levels / s``.  Each row
    consumes ``values.shape[1]`` words of its stream.  An all-zero row
    (``-0.0`` entries included) comes back as norm 0, signs 0 and levels 0.
    """
    norm = np.sqrt(np.vecdot(values, values))
    signs = (values < 0.0).astype(np.uint8)
    scaled = np.abs(values)
    # a zero row scales 0 * inf = NaN, and so does a row with a non-finite entry
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled *= (s / norm)[:, None]
        low = np.floor(scaled)
        np.minimum(low, s - 1, out=low)
        p_low = 1.0 + low
        p_low -= scaled                                 # P(level == low)
        low += stream_uniforms(keys, start, values.shape[1]) >= p_low
    # NaN levels become 0: a zero row decodes to zeros, and a non-finite row
    # still decodes to non-finite values through its norm
    np.nan_to_num(low, copy=False)
    return norm, signs, low.astype(np.int64)
