"""The distance kernels: gradients, tie-breaks, coincident rows and the
switch from the exact broadcast path to the BLAS form.

Tie cases are built from small integers, so the arithmetic is exact and
rounding cannot decide the tie.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _recipe
from _oracles import fd_grad
from groupvec import backends, losses, retrieval, sampling

KERNELS = ("cross_sqdist", "pairwise_dist", "pairwise_dist_grad", "assign_nearest")


def test_benchmark_contract():
    # perfbench reads BACKEND_NAME and times the kernels where the losses
    # and the sampler call them, so those modules must bind these objects.
    assert backends.BACKEND_NAME == "py"
    for name in KERNELS:
        assert callable(getattr(backends, name))
    callers = {
        losses: ("cross_sqdist", "pairwise_dist", "pairwise_dist_grad"),
        sampling: ("assign_nearest", "exact_sqdist"),
        retrieval: ("exact_sqdist",),
    }
    for module, names in callers.items():
        for name in names:
            assert getattr(module, name) is getattr(backends, name)
    # only cross_sqdist chooses by size between exact sums and the Gram
    # form: seeding and search measure with exact_sqdist at any size
    for module in (sampling, retrieval):
        assert not hasattr(module, "cross_sqdist") and not hasattr(module, "exact_path")
    private = [n for n in vars(backends) if n.startswith("_") and not n.startswith("__")]
    assert [n for n in private if n in vars(retrieval)] == []


def test_cross_sqdist_blas_path_matches_exact_sum():
    rng = np.random.default_rng(3)
    x, c = rng.normal(size=(1500, 48)), rng.normal(size=(300, 48))
    c[0] = x[0]
    assert x.shape[0] * c.shape[0] * x.shape[1] > backends._BROADCAST_BUDGET
    got = backends.cross_sqdist(x, c)
    want = np.stack([np.einsum("jk,jk->j", row - c, row - c) for row in x])
    assert got.shape == (1500, 300)
    assert (got >= 0).all()
    assert np.allclose(got, want, rtol=1e-12, atol=1e-10)


def test_pairwise_dist_diagonal_and_symmetry():
    x = np.random.default_rng(11).normal(size=(40, 7))
    e = backends.pairwise_dist(x)
    assert np.array_equal(np.diag(e), np.zeros(len(x)))
    assert np.array_equal(e, e.T)
    assert (e >= 0).all()


def test_pairwise_dist_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(8, 4))
    g = rng.normal(size=(8, 8))

    def loss(flat):
        e = backends.pairwise_dist(flat.reshape(8, 4))
        return float((g * e).sum())

    analytic = backends.pairwise_dist_grad(x, backends.pairwise_dist(x), g).ravel()
    numeric = fd_grad(loss, x.ravel())
    assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-8)


def test_pairwise_dist_grad_skips_coincident_pairs():
    x = np.array([[1.0, 2.0], [1.0, 2.0], [4.0, 6.0]])
    e = backends.pairwise_dist(x)
    g = np.ones_like(e)
    out = backends.pairwise_dist_grad(x, e, g)
    assert np.isfinite(out).all()
    # rows 0 and 1 coincide; their gradient comes only from row 2
    assert np.array_equal(out[0], out[1])


def test_assign_nearest_tie_goes_to_lowest_index():
    # centroids 1 and 3 coincide; exact integer arithmetic, real tie
    x = np.array([[2.0, 0.0]])
    c = np.array([[5.0, 5.0], [1.0, 0.0], [9.0, 9.0], [1.0, 0.0]])
    labels, d = backends.assign_nearest(x, c)
    assert labels.tolist() == [1]
    assert labels.dtype == np.int64
    assert d.tolist() == [1.0]


def _kept_equals_fresh(x, c, rng):
    """Replace 2, 3, ..., L rows of c in turn and check that assigning with
    the kept matrix gives the bits of a fresh call."""
    kept = backends.KeptDistances()
    backends.assign_nearest(x, c, kept)
    for k in range(2, len(c) + 1):
        moved = np.sort(rng.choice(len(c), size=k, replace=False))
        c = c.copy()
        c[moved] = rng.normal(size=(k, c.shape[1]))
        labels, own = backends.assign_nearest(x, c, kept, moved)
        want_labels, want_own = backends.assign_nearest(x, c)
        assert np.array_equal(kept.sq, backends.cross_sqdist(x, c))
        assert np.array_equal(labels, want_labels) and np.array_equal(own, want_own)


def test_kept_matrix_equals_a_fresh_call_on_the_gram_side():
    # a column subset of a BLAS product need not equal the same columns of
    # the whole product; this pins it for the build the record was made on
    if reason := _recipe.other_build():
        pytest.skip(reason)
    rng = np.random.default_rng(12)
    x, c = rng.normal(size=(2000, 512)), rng.normal(size=(100, 512))
    assert not backends.exact_path(2000, 100, 512)
    _kept_equals_fresh(x, c, rng)


def test_kept_matrix_equals_a_fresh_call_on_the_exact_side():
    rng = np.random.default_rng(13)
    x, c = rng.normal(size=(300, 9)), rng.normal(size=(40, 9))
    assert backends.exact_path(300, 40, 9)
    _kept_equals_fresh(x, c, rng)


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=2, max_side=12),
        elements=st.floats(-1e6, 1e6, allow_nan=False),
    )
)
def test_pairwise_dist_property(x):
    e = backends.pairwise_dist(x)
    assert np.array_equal(np.diag(e), np.zeros(len(x)))
    assert np.array_equal(e, e.T)
    assert (e >= 0).all()
