"""Exactness of the NumPy kernels' blocked evaluation.

``cross_sqdist`` and the row norms work in cache-sized blocks, and
``self_sqdist`` measures only the upper triangle of its blocks.  Neither
may change a single bit: each entry is compared with the whole-array
expression or the kernel it replaces.
"""

import numpy as np
import pytest

from _oracles import sqdist_rows
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


def test_cross_sqdist_is_the_per_pair_sum():
    # 1500 x 300 x 48 multiply-adds, with an offset that cancels most
    # digits of the Gram form: every entry is still one pair's exact sum
    rng = np.random.default_rng(3)
    x, c = rng.normal(size=(1500, 48)) + 1e4, rng.normal(size=(300, 48)) + 1e4
    c[0] = x[0]
    got = backends.cross_sqdist(x, c)
    assert np.array_equal(got.view(np.int64), sqdist_rows(x, c).view(np.int64))
    assert got[0, 0] == 0.0


@pytest.mark.parametrize(
    "n, d",
    # 2000 and 1000 rows are not multiples of the 256- and 436-row blocks
    [(2000, 512), (1000, 300), (256, 512), (7, 3), (0, 5), (5, 0)],
)
def test_row_sqnorms_equal_one_square(n, d):
    rng = np.random.default_rng(n + d)
    x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    # any layout gives the bits of its C-contiguous copy
    for arr in (x, np.asfortranarray(x), x[::2], x[:, ::2]):
        copy = np.ascontiguousarray(arr)
        want = (copy * copy).sum(axis=1)
        got = backends.row_sqnorms(arr)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize(
    "n, d",
    # 30 rows at 512 and 1024 wide are a training step's blocks; 29, 30 and
    # 31 rows are not multiples of the block's 8 or 4 rows; 181 rows at 512
    # wide span many blocks
    [(30, 1), (30, 7), (30, 512), (30, 1024), (29, 512), (31, 1024), (5, 7),
     (2, 1), (1, 512), (0, 3), (4, 0), (181, 512)],
)
@pytest.mark.parametrize("offset", [0.0, 1e4])
def test_self_sqdist_equals_cross_sqdist(n, d, offset):
    rng = np.random.default_rng(n * 7 + d)
    x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1)) + offset
    if n >= 4:
        x[n - 1] = x[0]
        x[n // 2] = x[1]
    want = backends.cross_sqdist(x, x)
    got = backends.self_sqdist(x)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if n >= 4:
        assert got[n - 1, 0] == 0.0 and got[0, n - 1] == 0.0


def test_self_sqdist_is_the_exact_sum():
    n, d = 592, 48
    x = np.random.default_rng(5).normal(size=(n, d)) + 1e4
    x[n - 1] = x[0]
    got = backends.self_sqdist(x)
    assert np.array_equal(got.view(np.int64), sqdist_rows(x, x).view(np.int64))
    assert np.array_equal(got, got.T)
    assert np.array_equal(np.diag(got), np.zeros(n))
    assert got[n - 1, 0] == 0.0


@pytest.mark.parametrize("d", [1, 3, 512, 1024])
@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e160])
def test_paired_sqdist_equals_cross_sqdist_entries(d, scale):
    # two full blocks of pairs and part of a third; rows 0 and 39 coincide
    rng = np.random.default_rng(d)
    f = rng.normal(size=(40, d)) * 10.0 ** rng.uniform(-3, 3, size=(40, 1)) * scale
    f[39] = f[0]
    n = 2 * (backends._BLOCK_ELEMS // d) + 3
    i, j = rng.integers(0, 40, size=(2, n))
    i[::7] = j[::7]
    i[1], j[1] = 0, 39
    with np.errstate(over="ignore", under="ignore"):
        want = backends.cross_sqdist(f, f)[i, j]
        got = backends.paired_sqdist(f, i, j)
    assert got.shape == (n,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    same = (i == j) | ((i % 39 == 0) & (j % 39 == 0))
    assert np.array_equal(got[same].view(np.int64), np.zeros(same.sum(), dtype=np.int64))


def test_paired_sqdist_no_pairs_and_rows_out_of_range():
    f = np.ones((4, 3))
    assert backends.paired_sqdist(f, [], []).shape == (0,)
    for i, j in [([0, 4], [1, 1]), ([0, 1], [-1, 2])]:
        with pytest.raises(IndexError, match="rows 0-3"):
            backends.paired_sqdist(f, i, j)
