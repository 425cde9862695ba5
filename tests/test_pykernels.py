"""Exactness of the NumPy kernels' blocked evaluation.

The exact path of ``cross_sqdist`` and the row norms of its Gram path work
in cache-sized blocks.  Blocking must not change a single bit: each entry
is compared with the whole-array expression it replaces.
"""

import numpy as np
import pytest

from groupvec import backends


@pytest.mark.parametrize(
    "n, m, d",
    [(120, 120, 1024), (37, 41, 300), (1500, 1, 512), (6, 100, 512), (7, 5, 3), (0, 5, 3), (4, 5, 0)],
)
def test_cross_sqdist_blocks_equal_one_broadcast(n, m, d):
    rng = np.random.default_rng(n * 1000 + m + d)
    x = rng.normal(size=(n, d)) * 50.0
    c = rng.normal(size=(m, d)) * 50.0
    if n and m:
        c[0] = x[0]
    diff = x[:, None, :] - c[None, :, :]
    want = np.einsum("ijk,ijk->ij", diff, diff)
    got = backends.cross_sqdist(x, c)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if n and m:
        assert got[0, 0] == 0.0


@pytest.mark.parametrize(
    "n, d",
    # 2000 and 1000 rows are not multiples of the 256- and 436-row blocks
    [(2000, 512), (1000, 300), (256, 512), (7, 3), (0, 5), (5, 0)],
)
def test_row_sqnorms_equal_one_square(n, d):
    rng = np.random.default_rng(n + d)
    x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    for arr in (x, np.asfortranarray(x), x[::2], x[:, ::2]):
        want = (arr * arr).sum(axis=1)
        got = backends.row_sqnorms(arr)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
