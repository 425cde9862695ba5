"""Pure-NumPy distance kernels.

Reference implementation of the hot kernels; the compiled module in
``ckernels.pyx`` mirrors these semantics exactly (same tie-breaks, same
zero-distance handling). Everything is float64 in, float64 out.
"""

import numpy as np

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
    if n * m * max(d, 1) <= _BROADCAST_BUDGET:
        out = np.empty((n, m), dtype=np.float64)
        rows = max(1, _BLOCK_ELEMS // max(m * d, 1))
        buf = np.empty((min(rows, n), m, d), dtype=np.float64)
        for s in range(0, n, rows):
            diff = buf[: min(rows, n - s)]
            np.subtract(x[s : s + rows, None, :], c[None, :, :], out=diff)
            np.einsum("ijk,ijk->ij", diff, diff, out=out[s : s + rows])
        return out
    sq = (x * x).sum(axis=1)[:, None] + (c * c).sum(axis=1)[None, :]
    sq -= 2.0 * (x @ c.T)
    return np.maximum(sq, 0.0)


def pairwise_dist(x):
    """All-pairs Euclidean distance matrix with an exactly-zero diagonal."""
    x = np.asarray(x, dtype=np.float64)
    sq = cross_sqdist(x, x)
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


def topk_smallest(values, k):
    """Indices of the k smallest entries, ascending; ties by lower index."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    return order[: int(k)].astype(np.int64)
