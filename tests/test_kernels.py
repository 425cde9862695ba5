"""The distance kernels: gradients, tie-breaks, coincident rows and the
switch from the exact broadcast path to the BLAS form.

Tie cases are built from small integers, so the arithmetic is exact and
rounding cannot decide the tie.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import fd_grad
from groupvec import backends, losses, sampling

KERNELS = ("cross_sqdist", "pairwise_dist", "pairwise_dist_grad", "assign_nearest")


def test_benchmark_contract():
    # perfbench reads BACKEND_NAME and times the kernels where the losses
    # and the sampler call them, so those modules must bind these objects.
    assert backends.BACKEND_NAME == "py"
    for name in KERNELS:
        assert callable(getattr(backends, name))
    callers = {
        losses: ("cross_sqdist", "pairwise_dist", "pairwise_dist_grad"),
        sampling: ("cross_sqdist", "assign_nearest"),
    }
    for module, names in callers.items():
        for name in names:
            assert getattr(module, name) is getattr(backends, name)


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
