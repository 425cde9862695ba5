"""The distance kernels: gradients, tie-breaks, coincident rows, the
Gram form of k-means assignment and the slack that bounds its rounding.

Tie cases are built from small integers, so the arithmetic is exact and
rounding cannot decide the tie.  The blocked exact kernels are checked
bit for bit in ``test_pykernels.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import _recipe
from _oracles import fd_grad, sqdist_rows
from groupvec import backends, losses, retrieval, sampling

KERNELS = ("cross_sqdist", "pairwise_dist", "pairwise_dist_grad", "assign_nearest")


def test_benchmark_contract():
    # perfbench reads BACKEND_NAME and times the kernels where the losses,
    # the sampler and search call them, so those modules must bind these
    # objects.
    assert backends.BACKEND_NAME == "py"
    for name in KERNELS:
        assert callable(getattr(backends, name))
    callers = {
        losses: ("cross_sqdist", "pairwise_dist", "pairwise_dist_grad"),
        sampling: ("assign_nearest", "cross_sqdist"),
        retrieval: ("cross_sqdist",),
    }
    for module, names in callers.items():
        for name in names:
            assert getattr(module, name) is getattr(backends, name)
    private = [n for n in vars(backends) if n.startswith("_") and not n.startswith("__")]
    assert [n for n in private if n in vars(retrieval)] == []


def test_assign_nearest_gram_form_matches_exact_sum():
    rng = np.random.default_rng(3)
    x, c = rng.normal(size=(1500, 48)), rng.normal(size=(300, 48))
    c[0] = x[0]
    kept = backends.KeptDistances()
    labels, own = backends.assign_nearest(x, c, kept)
    want = sqdist_rows(x, c)
    assert kept.sq.shape == (1500, 300)
    assert (kept.sq >= 0).all()
    assert np.allclose(kept.sq, want, rtol=1e-12, atol=1e-10)
    assert np.array_equal(own, kept.sq[np.arange(1500), labels])


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def test_gram_sqdist_is_the_gram_form_bit_for_bit():
    rng = np.random.default_rng(21)
    for (n, m, d), scale in (((1, 1, 1), 1.0), ((37, 5, 64), 1e150), ((200, 17, 512), 1.0)):
        x, y = rng.normal(size=(n, d)) * scale, rng.normal(size=(m, d)) * scale + 1e4
        x_sq, y_sq = backends.row_sqnorms(x), backends.row_sqnorms(y)
        want = np.add.outer(x_sq, y_sq) - 2 * (x @ y.T)
        assert np.array_equal(_bits(backends.gram_sqdist(x, x_sq, y, y_sq)), _bits(want))


# duplicated y rows: row i of y is row DUPLICATES[i] of x
DUPLICATES = [0, 0, 7, 49]


def _gram_rows(kind, rng):
    x, y = rng.normal(size=(50, 40)), rng.normal(size=(12, 40))
    if kind == "offset":
        return x + 1e4, y + 1e4
    if kind == "duplicate":
        return x + 1e4, x[DUPLICATES] + 1e4
    if kind == "subnormal":
        return x * 1e-160, y * 1e-160
    return x, y


@pytest.mark.parametrize("kind", ["random", "offset", "duplicate", "subnormal"])
def test_gram_slack_bounds_the_exact_sum(kind):
    x, y = _gram_rows(kind, np.random.default_rng(22))
    x_sq, y_sq = backends.row_sqnorms(x), backends.row_sqnorms(y)
    gram = backends.gram_sqdist(x, x_sq, y, y_sq)
    slack = backends.gram_slack(x_sq, y_sq, x.shape[1])
    exact = backends.cross_sqdist(x, y)
    assert (gram - slack <= exact).all() and (exact <= gram + slack).all()
    if kind != "random":
        # the Gram form rounds away from the exact sums here
        assert (gram != exact).any()
    if kind == "duplicate":
        assert (exact[DUPLICATES, range(len(DUPLICATES))] == 0.0).all()


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
        fresh = backends.KeptDistances()
        want_labels, want_own = backends.assign_nearest(x, c, fresh)
        assert np.array_equal(kept.sq, fresh.sq)
        assert np.array_equal(labels, want_labels) and np.array_equal(own, want_own)


# a column subset of a BLAS product need not equal the same columns of the
# whole product; these pin it for the build the record was made on


def test_kept_matrix_equals_a_fresh_call_on_the_gram_side():
    if reason := _recipe.other_build():
        pytest.skip(reason)
    rng = np.random.default_rng(12)
    x, c = rng.normal(size=(2000, 512)), rng.normal(size=(100, 512))
    _kept_equals_fresh(x, c, rng)


def test_kept_matrix_equals_a_fresh_call_on_small_inputs():
    if reason := _recipe.other_build():
        pytest.skip(reason)
    rng = np.random.default_rng(13)
    x, c = rng.normal(size=(300, 9)), rng.normal(size=(40, 9))
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
