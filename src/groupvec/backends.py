"""Distance kernels in NumPy.

The losses and the refresh (kNN table, k-means) compute their distances
here.  Everything is float64 in, float64 out.
"""

import numpy as np

# Name of the kernel implementation, recorded in benchmark headers.
BACKEND_NAME = "py"

# Above this many multiply-adds the exact broadcast path would allocate a
# large (n, L, d) temporary, so we switch to the BLAS form.
_BROADCAST_BUDGET = 2**24

# The exact path runs over blocks of x rows whose (rows, L, d) difference
# holds about this many elements, in one reused buffer: a cache-sized
# temporary costs far less than a whole-matrix allocation, and every
# entry is the same reduction either way.
_BLOCK_ELEMS = 2**17


def cross_sqdist(x, c):
    """Squared Euclidean distances between rows of x (n,d) and c (L,d)."""
    x = np.asarray(x, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n, d = x.shape
    m = c.shape[0]
    if exact_path(n, m, d):
        out = np.empty((n, m), dtype=np.float64)
        rows = max(1, _BLOCK_ELEMS // max(m * d, 1))
        buf = np.empty((min(rows, n), m, d), dtype=np.float64)
        for s in range(0, n, rows):
            diff = buf[: min(rows, n - s)]
            np.subtract(x[s : s + rows, None, :], c[None, :, :], out=diff)
            np.einsum("ijk,ijk->ij", diff, diff, out=out[s : s + rows])
        return out
    sq = row_sqnorms(x)[:, None] + row_sqnorms(c)[None, :]
    sq -= 2.0 * (x @ c.T)
    return np.maximum(sq, 0.0)


def self_sqdist(x):
    """``cross_sqdist(x, x)`` to the bit, with about half the exact-path work.

    On the exact path each block of rows ``[s, e)`` is measured only
    against the columns ``>= s`` and mirrored into the lower triangle:
    ``(a - b) ** 2 == (b - a) ** 2`` exactly, and every entry is the same
    reduction over the last axis.  Above the budget this is
    ``cross_sqdist(x, x)``, Gram path and all."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if not exact_path(n, n, d):
        return cross_sqdist(x, x)
    out = np.empty((n, n), dtype=np.float64)
    rows = max(1, _BLOCK_ELEMS // max(n * d, 1))
    buf = np.empty(min(rows, n) * n * d, dtype=np.float64)
    for s in range(0, n, rows):
        e = min(s + rows, n)
        diff = buf[: (e - s) * (n - s) * d].reshape(e - s, n - s, d)
        np.subtract(x[s:e, None, :], x[None, s:, :], out=diff)
        np.einsum("ijk,ijk->ij", diff, diff, out=out[s:e, s:])
        out[e:, s:e] = out[s:e, e:].T
    return out


def exact_path(n, m, d):
    """Whether ``cross_sqdist`` of (n, d) against (m, d) rows takes its
    exact path, whose entries are per-pair sums that do not depend on the
    other rows (the Gram path's do)."""
    return n * m * max(d, 1) <= _BROADCAST_BUDGET


def row_sqnorms(x):
    """``(x * x).sum(axis=1)`` to the bit, squaring blocks of about
    ``_BLOCK_ELEMS`` elements in one reused buffer instead of the whole
    matrix.  Input that is not C-contiguous takes the one-shot form: its
    square follows the input's layout, and with it the summation order."""
    x = np.asarray(x, dtype=np.float64)
    if not x.flags.c_contiguous:
        return (x * x).sum(axis=1)
    n, d = x.shape
    out = np.empty(n, dtype=np.float64)
    rows = max(1, _BLOCK_ELEMS // max(d, 1))
    buf = np.empty((min(rows, n), d), dtype=np.float64)
    for s in range(0, n, rows):
        sq = buf[: min(rows, n - s)]
        np.multiply(x[s : s + rows], x[s : s + rows], out=sq)
        sq.sum(axis=1, out=out[s : s + rows])
    return out


def pairwise_dist(x):
    """All-pairs Euclidean distance matrix with an exactly-zero diagonal."""
    x = np.asarray(x, dtype=np.float64)
    sq = self_sqdist(x)
    sq = np.minimum(sq, sq.T)  # BLAS output is not perfectly symmetric
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


def assign_nearest(x, c):
    """Index of the nearest row of c for each row of x, plus that squared
    distance. Ties go to the lowest centroid index."""
    sq = cross_sqdist(x, c)
    labels = np.argmin(sq, axis=1)
    return labels.astype(np.int64), sq[np.arange(x.shape[0]), labels]
