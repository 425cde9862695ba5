"""Distance kernels in NumPy.

The losses, the refresh (kNN table, k-means) and search compute their
distances here.  Everything is float64 in, float64 out.  Every exact
squared distance is ``cross_sqdist``, its triangle ``self_sqdist`` or its
entries for chosen pairs ``paired_sqdist``.  The Gram form
``gram_sqdist`` gives distances only in ``assign_nearest``; the refresh's
screens take it with ``gram_slack``, a proven bound on its distance from
the exact sums, so that they stay exact.
"""

import numpy as np

# Name of the kernel implementation, recorded in benchmark headers.
BACKEND_NAME = "py"

# The exact kernels run over blocks of x rows whose (rows, L, d) difference
# holds about this many elements, in one reused buffer: a cache-sized
# temporary costs far less than a whole-matrix allocation, and every
# entry is the same reduction either way.
_BLOCK_ELEMS = 2**17


def _aligned_empty(n: int) -> np.ndarray:
    """An uninitialized float64 array of ``n`` elements starting on a 64-byte
    boundary, sliced out of a slightly larger ``np.empty``: a large
    ``np.empty`` starts 16 bytes into a page, where vector stores into it
    split cache lines."""
    raw = np.empty(n + 7, dtype=np.float64)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip : skip + n]


def cross_sqdist(x, c):
    """Squared Euclidean distances between rows of x (n,d) and c (L,d), each
    the sum of one pair's squared differences at any size, so a row meets
    itself at exactly 0.0.  Blocks of x rows go through one reused
    (rows, L, d) buffer, summed as one (rows * L, d) matrix into the flat
    output; the block size does not change a bit."""
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    (n, d), m = x.shape, c.shape[0]
    out = np.empty((n, m), dtype=np.float64)
    flat = out.reshape(-1)
    rows = max(1, _BLOCK_ELEMS // max(m * d, 1))
    buf = _aligned_empty(min(rows, n) * m * d).reshape(min(rows, n), m, d)
    for s in range(0, n, rows):
        diff = buf[: min(rows, n - s)]
        np.subtract(x[s : s + rows, None, :], c[None, :, :], out=diff)
        pairs = diff.reshape(len(diff) * m, d)
        np.einsum("ij,ij->i", pairs, pairs, out=flat[s * m : s * m + len(pairs)])
    return out


def self_sqdist(x):
    """``cross_sqdist(x, x)`` to the bit, at any size, with about half the work.

    Each block of rows ``[s, e)`` is measured only against the columns
    ``>= s`` and mirrored into the lower triangle: ``(a - b) ** 2 ==
    (b - a) ** 2`` exactly, and every entry is the same reduction over the
    last axis, so the result is symmetric with a zero diagonal."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    out = np.empty((n, n), dtype=np.float64)
    rows = max(1, _BLOCK_ELEMS // max(n * d, 1))
    buf = _aligned_empty(min(rows, n) * n * d)
    for s in range(0, n, rows):
        e = min(s + rows, n)
        diff = buf[: (e - s) * (n - s) * d].reshape(e - s, n - s, d)
        np.subtract(x[s:e, None, :], x[None, s:, :], out=diff)
        np.einsum("ijk,ijk->ij", diff, diff, out=out[s:e, s:])
        out[e:, s:e] = out[s:e, e:].T
    return out


def paired_sqdist(f, i, j):
    """The squared distance of rows ``f[i[p]]`` and ``f[j[p]]`` for each pair
    p: ``cross_sqdist(f[i], f[j])[p, p]`` to the bit, so a row meets itself
    at exactly 0.0.  Blocks of pairs are gathered into one reused buffer
    of two (rows, d) halves, each pair's squared differences summed as
    ``cross_sqdist`` sums them; the block size does not change a bit."""
    f = np.asarray(f, dtype=np.float64)
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    (n,), d = i.shape, f.shape[1]
    if n and not (0 <= min(i.min(), j.min()) and max(i.max(), j.max()) < len(f)):
        raise IndexError(f"pair index outside rows 0-{len(f) - 1}")
    out = np.empty(n, dtype=np.float64)
    rows = max(1, _BLOCK_ELEMS // max(d, 1))
    buf = _aligned_empty(2 * min(rows, n) * d).reshape(2, min(rows, n), d)
    for s in range(0, n, rows):
        a, b = buf[:, : min(rows, n - s)]
        # "clip" gathers straight into the buffer; every index is in range
        np.take(f, i[s : s + rows], axis=0, out=a, mode="clip")
        np.take(f, j[s : s + rows], axis=0, out=b, mode="clip")
        np.subtract(a, b, out=a)
        np.einsum("ij,ij->i", a, a, out=out[s : s + rows])
    return out


def row_sqnorms(x):
    """The squared norm of each row, squaring blocks of about
    ``_BLOCK_ELEMS`` elements in one reused C-contiguous buffer instead of
    the whole matrix: the bits of ``(x * x).sum(axis=1)`` for a
    C-contiguous x, and of its contiguous copy for any other layout."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    out = np.empty(n, dtype=np.float64)
    rows = max(1, _BLOCK_ELEMS // max(d, 1))
    buf = _aligned_empty(min(rows, n) * d).reshape(min(rows, n), d)
    for s in range(0, n, rows):
        sq = buf[: min(rows, n - s)]
        np.multiply(x[s : s + rows], x[s : s + rows], out=sq)
        sq.sum(axis=1, out=out[s : s + rows])
    return out


def pairwise_dist(x):
    """All-pairs Euclidean distance matrix with an exactly-zero diagonal."""
    sq = self_sqdist(x)
    np.fill_diagonal(sq, 0.0)
    return np.sqrt(sq)


def pairwise_dist_grad(x, e, g):
    """Gradient of sum(g * e) w.r.t. x, where e = pairwise_dist(x).

    Pairs at exactly zero distance (including the diagonal) contribute
    nothing; the subgradient there is taken as 0.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.zeros_like(e)
    nz = e > 0.0
    w[nz] = (g[nz] + g.T[nz]) / e[nz]
    return w.sum(axis=1)[:, None] * x - w @ x


class KeptDistances:
    """What ``assign_nearest`` keeps between calls that assign the same
    rows x: the (n, L) squared distances of the last call and the squared
    norms of x."""

    def __init__(self):
        self.sq = None
        self.x_sq = None


def assign_nearest(x, c, kept=None, moved=None):
    """Index of the nearest row of c for each row of x, plus that squared
    distance. Ties go to the lowest centroid index.

    The distances take the Gram form ``gram_sqdist``, clipped at 0, the
    only place the program does: k-means assigns 2000 rows to 100
    centroids at 512-d in one GEMM, about 14 times faster than the exact
    sums.

    A caller that assigns the same x to successive centroids passes one
    ``KeptDistances`` as ``kept``, which the first call fills.  A later
    call given ``moved``, the indices of the rows of c that changed since
    the last call, measures only those columns again and keeps the others.
    """
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n, m = x.shape[0], c.shape[0]
    kept = KeptDistances() if kept is None else kept
    if kept.x_sq is None:
        kept.x_sq = row_sqnorms(x)
    if kept.sq is None or moved is None or _whole_product(n, m, len(moved)):
        kept.sq = gram_sqdist(x, kept.x_sq, c, row_sqnorms(c))
        np.maximum(kept.sq, 0.0, out=kept.sq)
    else:
        part = gram_sqdist(x, kept.x_sq, c[moved], row_sqnorms(c[moved]))
        kept.sq[:, moved] = np.maximum(part, 0.0, out=part)
    sq = kept.sq
    labels = np.argmin(sq, axis=1)
    return labels.astype(np.int64), sq[np.arange(n), labels]


def gram_sqdist(x, x_sq, y, y_sq):
    """The Gram form ``|x|^2 + |y|^2 - 2 x.y`` of the squared distances of
    the rows of x (n,d) to the rows of y (m,d), given their squared norms,
    in place through two (n, m) arrays.  Not clipped: it may fall below 0,
    or hold a non-finite value where the norms overflow; ``gram_slack``
    bounds its distance from ``cross_sqdist``."""
    sq = x @ y.T
    sq *= -2.0
    sq += np.add.outer(x_sq, y_sq)
    return sq


def gram_slack(x_sq, y_sq, dim):
    """Bound on the gap between each ``gram_sqdist`` value of rows with
    squared norms ``x_sq`` and ``y_sq`` and ``dim`` columns, and the exact
    sum ``cross_sqdist`` gives: a row whose Gram distance minus this slack
    exceeds a threshold has an exact distance above it."""
    # With unit roundoff u = eps/2, each squared norm and the dot product
    # is off by at most D u total (any summation order, fused or not), the
    # two final additions by 2 u (2 total), and the exact per-row sum by
    # (D + 2) u (2 total): (2 D + 4) eps total in all.  Every underflowing
    # product adds at most one smallest subnormal, 5 D of them.  The factor
    # 8 covers the second-order terms and the rounding of the slack itself.
    f64 = np.finfo(np.float64)
    slack = np.add.outer(x_sq, y_sq)
    slack *= f64.eps
    slack += f64.smallest_subnormal
    slack *= 8.0 * (dim + 4)
    return slack


def _whole_product(n, m, k):
    """Whether ``assign_nearest`` measures all m columns rather than the k
    moved ones: when all moved, or where a partial product may not give
    the bits of the whole one.

    A column of the Gram product ``x @ c[moved].T`` equals the same column
    of ``x @ c.T`` only where the BLAS computes both the same way.
    Measured under OpenBLAS 0.3.31 with one thread, over n = 400-2000
    rows, d = 64-512 and every k: bit-equal for every k >= 2 with
    k n > 1200 and L <= 192, e.g. at (n, d, L) = (2000, 512, 100).  Not
    bit-equal at k = 1 (NumPy's GEMV path); at k = 2 for
    (500 | 600, 512, 100) and k = 2-4 for (300, 300, 200), all with
    k n <= 1200 (OpenBLAS's small-matrix kernel); and at L > 192:
    k = 193-199 for (300, 300, 200) and (2000, 64, 200), k > 192 for
    L = 256, and many k for L = 193 and 300.  Those take the whole
    product."""
    return k == m or k < 2 or k * n <= 1200 or m > 192
