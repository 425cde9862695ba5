import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import (
    SimilarityMatrix,
    centroid_similarity,
    ckd_pair,
    ckd_total,
    contrastive_loops,
    cross_entropy_rows_loops,
    entropy_rows_loops,
    fd_grad,
    max_rel_err,
    rel_dist_loops,
    self_distill_loops,
    total_loss_composition,
)
from groupvec import losses
from groupvec.losses import (
    LossConfig,
    pair_weights,
    relative_distances,
    relaxed_contrastive,
    self_distill,
    total_loss,
    _centroid_sim_fwd,
    _centroid_sim_vjp,
)

CFG = LossConfig()
FULL = LossConfig(full_grad=True)


def equilateral(side_scale=1.0, dim=6):
    # three scaled one-hot rows: every pairwise distance is side_scale*sqrt(2)
    f = np.zeros((3, dim))
    for i in range(3):
        f[i, i] = side_scale
    return f


def well_separated(n, dim, seed, delta=1.0, slack=1e-3):
    """Random rows whose relative distances all sit away from the hinge."""
    rng = np.random.default_rng(seed)
    while True:
        f = rng.normal(size=(n, dim))
        d = relative_distances(f)
        off = ~np.eye(n, dtype=bool)
        if np.all(np.abs(delta - d[off]) > slack):
            return f


class TestRelativeDistances:
    def test_equilateral_rows(self):
        d = relative_distances(equilateral())
        off = ~np.eye(3, dtype=bool)
        assert np.allclose(d[off], 1.5, atol=1e-12)
        assert np.all(np.diag(d) == 0.0)

    def test_two_rows_exact(self):
        f = np.array([[0.0, 0.0], [0.7, 1.3]])
        d = relative_distances(f)
        assert d[0, 1] == 2.0 and d[1, 0] == 2.0

    def test_matches_double_loop(self):
        f = np.random.default_rng(0).normal(size=(6, 4))
        assert max_rel_err(relative_distances(f), rel_dist_loops(f)) < 1e-12

    def test_degenerate_rows_named(self):
        with pytest.raises(ValueError, match="row 0"):
            relative_distances(np.ones((4, 3)))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            relative_distances(np.zeros((1, 3)))

    @given(
        hnp.arrays(
            np.float64,
            (5, 3),
            elements=st.integers(min_value=-5, max_value=5).map(float),
        ),
        st.integers(min_value=-3, max_value=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_power_of_two_scaling_is_exact(self, f, k):
        if np.all(f == f[0]):
            return
        c = 2.0**k
        assert np.array_equal(relative_distances(c * f), relative_distances(f))

    def test_general_scaling(self):
        f = np.random.default_rng(1).normal(size=(5, 4))
        assert max_rel_err(relative_distances(1.7 * f), relative_distances(f)) < 1e-12

    def test_permutation(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(6, 3))
        perm = rng.permutation(6)
        d = relative_distances(f)
        assert max_rel_err(relative_distances(f[perm]), d[np.ix_(perm, perm)]) < 1e-12


class TestPairWeights:
    def test_squared_distance_sigma_gives_inverse_e(self):
        f_t = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])  # squared distance 3
        w = pair_weights(f_t, sigma=3.0)
        assert abs(w[0, 1] - math.exp(-1.0)) < 1e-12
        assert w[0, 1] == w[1, 0]

    def test_unit_on_identical_rows(self):
        f_t = np.tile([[2.0, -1.0]], (3, 1))
        assert np.allclose(pair_weights(f_t, 3.0), 1.0, atol=1e-12)


class TestRelaxedContrastive:
    def test_hand_value_equilateral(self):
        f = equilateral()
        f_t = np.tile([[1.0, 2.0]], (3, 1))  # w = 1 everywhere
        loss, _ = relaxed_contrastive(f, f_t, CFG)
        assert loss == pytest.approx(4.5, abs=1e-9)

    def test_zero_when_unrelated_and_separated(self):
        f = equilateral()  # all relative distances 1.5 >= delta
        f_t = np.diag([100.0, 200.0, 300.0])  # w ~ exp(-1e4/3)
        loss, grad = relaxed_contrastive(f, f_t, CFG)
        assert loss < 1e-12
        assert np.all(np.abs(grad) < 1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(6, 4))
        f_t = rng.normal(size=(6, 5))
        loss, _ = relaxed_contrastive(f, f_t, CFG)
        assert loss == pytest.approx(contrastive_loops(f, f_t, 3.0, 1.0), rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for seed in range(3):
            f = well_separated(6, 4, seed=seed)
            f_t = rng.normal(size=(6, 5))
            _, grad = relaxed_contrastive(f, f_t, CFG)
            fd = fd_grad(lambda x: relaxed_contrastive(x, f_t, CFG)[0], f)
            assert max_rel_err(grad, fd) < 1e-4

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(5, 3))
        f_t = rng.normal(size=(5, 4))
        loss, _ = relaxed_contrastive(f, f_t, CFG)
        assert loss >= 0.0

    def test_permutation(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(6, 4))
        f_t = rng.normal(size=(6, 5))
        perm = rng.permutation(6)
        loss, grad = relaxed_contrastive(f, f_t, CFG)
        loss_p, grad_p = relaxed_contrastive(f[perm], f_t[perm], CFG)
        assert loss_p == pytest.approx(loss, rel=1e-12)
        assert max_rel_err(grad_p, grad[perm]) < 1e-10


class TestSelfDistill:
    def test_identical_inputs_give_exact_zero(self):
        f = np.random.default_rng(6).normal(size=(5, 4))
        loss, g_h, g_l = self_distill(f, f.copy(), CFG)
        assert loss == 0.0
        assert np.allclose(g_h, 0.0, atol=1e-15)
        assert np.all(g_l == 0.0)

    def test_two_rows_give_zero(self):
        rng = np.random.default_rng(7)
        loss, _, _ = self_distill(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)), CFG)
        assert loss == 0.0

    def test_matches_double_loop_and_non_negative(self):
        rng = np.random.default_rng(8)
        f_h = rng.normal(size=(5, 4))
        f_l = rng.normal(size=(5, 4))
        loss, _, _ = self_distill(f_h, f_l, CFG)
        assert loss == pytest.approx(self_distill_loops(f_h, f_l), rel=1e-12)
        assert loss >= 0.0

    def test_matched_head_gradient_in_both_modes(self):
        rng = np.random.default_rng(9)
        f_h = rng.normal(size=(5, 4))
        f_l = rng.normal(size=(5, 4))
        fd = fd_grad(lambda x: self_distill(x, f_l, CFG)[0], f_h)
        for cfg in (CFG, FULL):
            _, g_h, _ = self_distill(f_h, f_l, cfg)
            assert max_rel_err(g_h, fd) < 1e-4

    def test_target_gradient_zero_by_default(self):
        rng = np.random.default_rng(10)
        _, _, g_l = self_distill(rng.normal(size=(5, 4)), rng.normal(size=(5, 4)), CFG)
        assert np.all(g_l == 0.0)

    def test_target_gradient_matches_fd_when_enabled(self):
        rng = np.random.default_rng(11)
        f_h = rng.normal(size=(5, 4))
        f_l = rng.normal(size=(5, 4))
        _, _, g_l = self_distill(f_h, f_l, FULL)
        fd = fd_grad(lambda x: self_distill(f_h, x, FULL)[0], f_l)
        assert max_rel_err(g_l, fd) < 1e-4

    def test_permutation(self):
        rng = np.random.default_rng(12)
        f_h = rng.normal(size=(6, 4))
        f_l = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        loss, g_h, _ = self_distill(f_h, f_l, CFG)
        loss_p, g_h_p, _ = self_distill(f_h[perm], f_l[perm], CFG)
        assert loss_p == pytest.approx(loss, rel=1e-12)
        assert max_rel_err(g_h_p, g_h[perm]) < 1e-10


class TestCentroidSimilarity:
    def test_single_centroid(self):
        f = np.random.default_rng(13).normal(size=(4, 3))
        s = centroid_similarity(f, np.zeros((1, 3)), CFG)
        assert np.array_equal(s.values, np.ones((4, 1)))

    def test_near_one_hot_at_low_temperature(self):
        c = np.vstack([np.zeros(3), np.full(3, 10.0), np.full(3, -10.0)])
        s = centroid_similarity(np.zeros((1, 3)), c, LossConfig(tau=0.01))
        assert s.values[0, 0] > 1.0 - 1e-6

    def test_rows_stochastic_and_floored(self):
        rng = np.random.default_rng(14)
        s = centroid_similarity(rng.normal(size=(6, 4)) * 5, rng.normal(size=(8, 4)) * 5, CFG)
        assert np.allclose(s.values.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(s.values >= CFG.epsilon_floor * (1.0 - 1e-6))

    def test_row_lookup(self):
        f = np.random.default_rng(15).normal(size=(3, 2))
        s = centroid_similarity(f, f, CFG, object_ids=np.array([7, 9, 11]))
        assert np.array_equal(s.row_for(9), s.values[1])
        with pytest.raises(KeyError):
            s.row_for(8)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(16)
        f = rng.normal(size=(4, 3))
        c = rng.normal(size=(5, 3))
        r = rng.normal(size=(4, 5))

        def scalar(x):
            return float((r * _centroid_sim_fwd(x, c, CFG)[0]).sum())

        _, cache = _centroid_sim_fwd(f, c, CFG)
        grad = _centroid_sim_vjp(cache, r, CFG)
        assert max_rel_err(grad, fd_grad(scalar, f)) < 1e-4


def random_similarity(rng, n, width):
    v = rng.uniform(0.1, 1.0, size=(n, width))
    v /= v.sum(axis=1, keepdims=True)
    return SimilarityMatrix(object_ids=np.arange(n, dtype=np.int64), values=v)


class TestCkd:
    def test_uniform_rows_give_log_width(self):
        u = SimilarityMatrix(np.arange(2), np.full((2, 4), 0.25))
        assert ckd_pair(u, u, [0, 1]) == pytest.approx(math.log(4.0), abs=1e-9)

    def test_self_pair_equals_row_entropy(self):
        s = random_similarity(np.random.default_rng(17), 3, 5)
        assert ckd_pair(s, s, [0, 1, 2]) == pytest.approx(
            entropy_rows_loops(s.values), rel=1e-12
        )

    def test_perturbing_second_argument_increases_value(self):
        rng = np.random.default_rng(18)
        s_a = random_similarity(rng, 3, 5)
        v = s_a.values * np.array([1.3, 0.9, 1.1, 0.8, 1.0])
        v /= v.sum(axis=1, keepdims=True)
        s_b = SimilarityMatrix(s_a.object_ids, v)
        assert ckd_pair(s_a, s_b, [0, 1, 2]) > ckd_pair(s_a, s_a, [0, 1, 2])

    def test_matches_double_loop(self):
        rng = np.random.default_rng(19)
        s_a = random_similarity(rng, 3, 5)
        s_b = random_similarity(rng, 3, 5)
        assert ckd_pair(s_a, s_b, [0, 1, 2]) == pytest.approx(
            cross_entropy_rows_loops(s_a.values, s_b.values), rel=1e-12
        )

    def test_asymmetric(self):
        rng = np.random.default_rng(20)
        s_a = random_similarity(rng, 2, 4)
        s_b = random_similarity(rng, 2, 4)
        assert ckd_pair(s_a, s_b, [0, 1]) != ckd_pair(s_b, s_a, [0, 1])

    def test_empty_shared_warns_and_returns_zero(self, caplog):
        s = random_similarity(np.random.default_rng(21), 2, 4)
        with caplog.at_level(logging.WARNING):
            assert ckd_pair(s, s, []) == 0.0
        assert "no shared objects" in caplog.text

    def test_four_groups_average_six_directed_pairs(self):
        rng = np.random.default_rng(22)
        mats = [random_similarity(rng, 2, 4) for _ in range(4)]
        shared = [0, 1]
        expected = [
            cross_entropy_rows_loops(mats[a].values, mats[b].values)
            for a in range(4)
            for b in range(a + 1, 4)
        ]
        assert len(expected) == 6
        assert ckd_total(mats, shared) == pytest.approx(
            sum(expected) / 6.0, rel=1e-12
        )

    def test_two_groups_reduce_to_single_pair(self):
        rng = np.random.default_rng(23)
        mats = [random_similarity(rng, 2, 4) for _ in range(2)]
        assert ckd_total(mats, [0, 1]) == pytest.approx(
            ckd_pair(mats[0], mats[1], [0, 1]), rel=1e-15
        )

    def test_identical_groups_give_mean_row_entropy(self):
        s = random_similarity(np.random.default_rng(24), 3, 5)
        assert ckd_total([s, s, s], [0, 1, 2]) == pytest.approx(
            entropy_rows_loops(s.values), rel=1e-12
        )

    def test_single_group_warns_and_returns_zero(self, caplog):
        s = random_similarity(np.random.default_rng(25), 2, 4)
        with caplog.at_level(logging.WARNING):
            assert ckd_total([s], [0, 1]) == 0.0
        assert "at least two groups" in caplog.text


def random_batch(seed, k=3, n=7, dim=4, teacher_dim=5, n_centroids=6):
    rng = np.random.default_rng(seed)
    f_h = [well_separated(n, dim, seed=seed * 31 + m) for m in range(k)]
    f_l = [well_separated(n, dim, seed=seed * 31 + 100 + m) for m in range(k)]
    f_t = [rng.normal(size=(n, teacher_dim)) for _ in range(k)]
    cents = [rng.normal(size=(n_centroids, dim)) for _ in range(k)]
    return f_h, f_l, f_t, cents


class TestTotalLoss:
    def test_single_group_decomposition(self):
        f_h, f_l, f_t, cents = random_batch(26, k=1)
        total, parts, _, _ = total_loss(f_h, f_l, f_t, cents, n_shared=2, cfg=CFG)
        s, _, _ = self_distill(f_h[0], f_l[0], CFG)
        ch, _ = relaxed_contrastive(f_h[0], f_t[0], CFG)
        cl, _ = relaxed_contrastive(f_l[0], f_t[0], CFG)
        assert parts["ckd"] == 0.0
        assert total == pytest.approx(s + ch + cl, rel=1e-12)

    def test_single_group_logs_no_alignment_warning(self, caplog):
        # a one-group run would log it on every step
        f_h, f_l, f_t, cents = random_batch(27, k=1)
        with caplog.at_level(logging.WARNING):
            _, parts, _, _ = total_loss(f_h, f_l, f_t, cents, n_shared=6, cfg=CFG)
        assert parts["ckd"] == 0.0
        assert caplog.records == []

    def test_components_recomputed_independently(self):
        f_h, f_l, f_t, cents = random_batch(27, k=3, n=7)
        n_shared = 2
        total, parts, _, _ = total_loss(f_h, f_l, f_t, cents, n_shared, CFG)
        expect_self = sum(self_distill(h, l, CFG)[0] for h, l in zip(f_h, f_l))
        expect_ch = sum(relaxed_contrastive(h, t, CFG)[0] for h, t in zip(f_h, f_t))
        expect_cl = sum(relaxed_contrastive(l, t, CFG)[0] for l, t in zip(f_l, f_t))
        mats = [
            centroid_similarity(h[-n_shared:], c, CFG, object_ids=np.arange(n_shared))
            for h, c in zip(f_h, cents)
        ]
        expect_ckd = ckd_total(mats, list(range(n_shared)))
        assert parts["self"] == pytest.approx(expect_self, rel=1e-12)
        assert parts["con_h"] == pytest.approx(expect_ch, rel=1e-12)
        assert parts["con_l"] == pytest.approx(expect_cl, rel=1e-12)
        assert parts["ckd"] == pytest.approx(expect_ckd, rel=1e-12)
        assert total == pytest.approx(
            expect_self + expect_ch + expect_cl + expect_ckd, rel=1e-12
        )

    def test_identity_composition_leaves_only_entropy(self):
        # identical heads, unrelated teachers, separated rows, identical
        # shared blocks across groups: everything vanishes except the
        # entropy floor of the cross-group term.
        block = equilateral(dim=6)
        f_h = [block.copy(), block.copy()]
        f_l = [block.copy(), block.copy()]
        f_t = [np.diag([100.0, 200.0, 300.0])] * 2
        cents = [np.random.default_rng(28).normal(size=(4, 6))] * 2
        total, parts, _, _ = total_loss(f_h, f_l, f_t, cents, n_shared=3, cfg=CFG)
        s = centroid_similarity(block, cents[0], CFG)
        assert parts["self"] == 0.0
        assert parts["con_h"] < 1e-12 and parts["con_l"] < 1e-12
        assert total == pytest.approx(entropy_rows_loops(s.values), abs=1e-9)

    def test_gradients_match_finite_differences(self):
        f_h, f_l, f_t, cents = random_batch(29, k=2, n=5, dim=3, n_centroids=3)
        n_shared = 2
        _, _, d_fh, d_fl = total_loss(f_h, f_l, f_t, cents, n_shared, FULL)
        for m in range(2):
            def scalar_h(x, m=m):
                blocks = [x if i == m else f_h[i] for i in range(2)]
                return total_loss(blocks, f_l, f_t, cents, n_shared, FULL)[0]

            def scalar_l(x, m=m):
                blocks = [x if i == m else f_l[i] for i in range(2)]
                return total_loss(f_h, blocks, f_t, cents, n_shared, FULL)[0]

            assert max_rel_err(d_fh[m], fd_grad(scalar_h, f_h[m])) < 1e-4
            assert max_rel_err(d_fl[m], fd_grad(scalar_l, f_l[m])) < 1e-4

    def test_prefix_permutation(self):
        f_h, f_l, f_t, cents = random_batch(30, k=2, n=6)
        n_shared = 2
        total, _, d_fh, _ = total_loss(f_h, f_l, f_t, cents, n_shared, CFG)
        perm = np.array([2, 0, 3, 1])  # permutes the non-shared prefix
        full = np.concatenate([perm, [4, 5]])
        f_h2 = [f_h[0][full], f_h[1]]
        f_l2 = [f_l[0][full], f_l[1]]
        f_t2 = [f_t[0][full], f_t[1]]
        total2, _, d_fh2, _ = total_loss(f_h2, f_l2, f_t2, cents, n_shared, CFG)
        assert total2 == pytest.approx(total, rel=1e-12)
        assert max_rel_err(d_fh2[0], d_fh[0][full]) < 1e-10

    def test_shared_larger_than_block_rejected(self):
        f_h, f_l, f_t, cents = random_batch(31, k=2, n=4)
        with pytest.raises(ValueError, match="n_shared"):
            total_loss(f_h, f_l, f_t, cents, n_shared=5, cfg=CFG)


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


def default_batch(seed, k=4, n=30, dim=512, teacher_dim=1024, n_centroids=100,
                  coincident=False, scale=1.0):
    """Blocks of the default training shapes: 30 rows per group, 512-d
    student heads, 1024-d teacher rows."""
    rng = np.random.default_rng(seed)
    f_h = [rng.normal(size=(n, dim)) * scale for _ in range(k)]
    f_l = [rng.normal(size=(n, dim)) * scale for _ in range(k)]
    f_t = [rng.normal(size=(n, teacher_dim)) * 0.05 for _ in range(k)]
    cents = [rng.normal(size=(n_centroids, dim)) * scale for _ in range(k)]
    if coincident:
        for blocks in (f_h, f_l, f_t):
            for b in blocks:
                b[1] = b[0]
                b[-1] = b[2]
    return f_h, f_l, f_t, cents


class TestTotalLossSharesEachQuantity:
    """``total_loss`` measures each group's relative distances and teacher
    affinities once and feeds them to every term; the result must be that
    of the composition of the public per-group losses, to the bit."""

    @pytest.mark.parametrize("cfg", [CFG, FULL], ids=["default", "full_grad"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_batch(40, k=3, n=7),
            lambda: default_batch(41),
            lambda: default_batch(42, coincident=True),
            lambda: default_batch(43, k=2, n=9, dim=7, teacher_dim=5, n_centroids=4,
                                  coincident=True, scale=1e3),
        ],
        ids=["small", "default_size", "coincident", "coincident_wide_scale"],
    )
    @pytest.mark.parametrize("n_shared", [0, 2, 6])
    def test_equals_composition_to_the_bit(self, cfg, make, n_shared):
        f_h, f_l, f_t, cents = make()
        got = total_loss(f_h, f_l, f_t, cents, n_shared, cfg)
        want = total_loss_composition(f_h, f_l, f_t, cents, n_shared, cfg)
        assert _bits(got[0]) == _bits(want[0])
        for key in ("self", "con_h", "con_l", "ckd"):
            assert _bits(got[1][key]) == _bits(want[1][key]), key
        for grads_got, grads_want in ((got[2], want[2]), (got[3], want[3])):
            assert len(grads_got) == len(grads_want)
            for g, w in zip(grads_got, grads_want):
                assert np.array_equal(_bits(g), _bits(w))

    def test_one_distance_matrix_per_embedding_and_one_affinity_per_group(self, monkeypatch):
        calls = {"pairwise_dist": 0, "pair_weights": 0}

        def counted(name):
            raw = getattr(losses, name)

            def wrapper(*a, **k):
                calls[name] += 1
                return raw(*a, **k)

            return wrapper

        for name in calls:
            monkeypatch.setattr(losses, name, counted(name))
        f_h, f_l, f_t, cents = default_batch(44)
        total_loss(f_h, f_l, f_t, cents, 6, CFG)
        assert calls == {"pairwise_dist": 8, "pair_weights": 4}
        for name in calls:
            calls[name] = 0
        total_loss_composition(f_h, f_l, f_t, cents, 6, CFG)
        assert calls == {"pairwise_dist": 16, "pair_weights": 8}
