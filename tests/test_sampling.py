import os
import tracemalloc

import numpy as np
import pytest

import groupvec.backends as backends_mod
import groupvec.sampling as sampling_mod
import _recipe
from _cpus import assert_reaped, force_cpus
from _oracles import (
    cluster_sums_add_at,
    farthest_point_loop,
    knn_group,
    knn_loops,
    knn_rows,
    lloyd_full,
    refresh_composition,
)
from groupvec.data import SynthConfig, partition_by_scale, synth_generate_full
from groupvec.encoder import EncoderConfig, StudentNet, TeacherNet
from groupvec.sampling import (
    Batch,
    CentroidBank,
    NeighborTable,
    assemble_batch,
    kmeans,
    knn_table,
    refresh,
    _cluster_sums,
    _SCREEN_BATCH,
    _farthest_point_init,
    _lloyd,
)


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (so -0.0 != +0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_same_table(got, want):
    """Equal int64 ``ids`` and ``rows`` (padding included) and refresh step."""
    assert got.ids.dtype == got.rows.dtype == np.int64
    assert np.array_equal(got.ids, want.ids)
    assert got.rows.shape == want.rows.shape
    assert np.array_equal(got.rows, want.rows)
    assert got.last_refresh_step == want.last_refresh_step


class TestKmeans:
    def test_single_cluster_is_column_mean(self):
        f = np.random.default_rng(0).normal(size=(10, 3))
        bank = kmeans(f, 1, seed=0)
        assert np.allclose(bank.centroids[0], f.mean(axis=0), atol=1e-12)

    def test_cluster_per_point_reaches_zero_inertia(self):
        f = np.random.default_rng(1).normal(size=(6, 2))
        bank = kmeans(f, 6, seed=3)
        d2 = ((f[:, None, :] - bank.centroids[None, :, :]) ** 2).sum(axis=2)
        assert d2.min(axis=1).max() < 1e-20

    def test_deterministic(self):
        f = np.random.default_rng(2).normal(size=(50, 4))
        a = kmeans(f, 5, seed=7)
        b = kmeans(f, 5, seed=7)
        assert np.array_equal(a.centroids, b.centroids)

    def test_inertia_non_increasing(self):
        f = np.random.default_rng(3).normal(size=(80, 3))
        _, trace = _lloyd(f, 6, iters=15, rng=np.random.default_rng(0))
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_duplicates_force_reseeding(self):
        # only three distinct positions, four clusters: at least one empty
        f = np.array([[0.0], [0.0], [0.0], [10.0], [20.0]])
        bank = kmeans(f, 4, seed=0)
        assert np.all(np.isfinite(bank.centroids))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 4)

    def test_bad_cluster_count(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 0)


class TestKnnTable:
    def test_collinear_middle_is_nearest(self):
        f = np.array([[0.0], [1.0], [3.0]])
        ids = np.array([10, 11, 12])
        assert knn_table(f, ids, k_neighbors=1).tolist() == [[11], [10], [11]]

    def test_matches_brute_force(self):
        # ids in shuffled order: row i stays the neighbors of ids[i]
        rng = np.random.default_rng(4)
        f = rng.normal(size=(20, 6))
        ids = rng.permutation(np.arange(100, 120))
        rows = knn_table(f, ids, k_neighbors=5)
        oracle = knn_loops(f, ids, np.zeros(20), 5)
        assert rows.dtype == np.int64
        assert rows.tolist() == [oracle[int(oid)] for oid in ids]

    def test_matches_brute_force_with_duplicates(self):
        # planted duplicate rows make exact distance ties that only the
        # ids can break; one call per group
        rng = np.random.default_rng(14)
        f = rng.normal(size=(70, 1024)) * 3.0
        f[rng.integers(0, 70, size=20)] = f[5]
        ids = rng.permutation(np.arange(500, 570))
        group_of = rng.integers(0, 3, size=70)
        oracle = knn_loops(f, ids, group_of, 6)
        for g in range(3):
            rows = np.flatnonzero(group_of == g)
            got = knn_table(f[rows], ids[rows], k_neighbors=6)
            assert got.tolist() == [oracle[int(oid)] for oid in ids[rows]]

    def test_no_self_and_count_capped(self):
        f = np.random.default_rng(5).normal(size=(3, 2))
        ids = np.array([1, 2, 3])
        rows = knn_table(f, ids, k_neighbors=5)
        assert rows.shape == (3, 2)
        assert all(oid not in row for oid, row in zip(ids.tolist(), rows.tolist()))

    def test_distance_ties_break_by_ascending_id(self):
        f = np.array([[0.0], [0.0], [0.0], [5.0]])
        ids = np.array([30, 20, 40, 50])
        rows = knn_table(f, ids, k_neighbors=3)
        assert rows[3].tolist() == [20, 30, 40]
        assert rows[0].tolist() == [20, 40, 50]


def assert_groups_match_knn_group(f, ids, group_of, k):
    """One ``knn_table`` call per group equals ``knn_group`` of that group:
    int64 rows of width min(k, size - 1), row i for row i of the group."""
    for g in np.unique(group_of):
        rows = np.flatnonzero(group_of == g)
        got = knn_table(f[rows], ids[rows], k_neighbors=k)
        assert got.dtype == np.int64
        assert got.shape == (rows.size, min(k, rows.size - 1))
        assert np.array_equal(got, knn_group(f[rows], ids[rows], k_neighbors=k))


@pytest.fixture(scope="module")
def corpus_2000():
    """A 2000-object corpus in four scale groups of 500 and a fresh teacher
    of the default sizes: the inputs of a default refresh."""
    table, feats, model = synth_generate_full(SynthConfig(n_objects=2000, seed=0))
    enc = EncoderConfig(
        feature_dim=feats.shape[1], groups=4, hidden_dim=256, trunk_layers=2,
        student_dim=512, teacher_dim=1024,
    )
    teacher = TeacherNet.from_student(StudentNet.init(enc, seed=0), seed=1)
    return teacher, partition_by_scale(table, 4), model


@pytest.fixture(scope="module")
def refresh_scale(corpus_2000):
    """The teacher's wide embedding of that corpus: the kNN input."""
    teacher, groups, model = corpus_2000
    wide = teacher.embed(model.base_features(groups.table.ids))
    return wide, groups.table.ids, groups.assignment


@pytest.fixture(scope="module")
def head_scale(corpus_2000):
    """The teacher's stacked per-group head embeddings: the k-means input."""
    teacher, groups, model = corpus_2000
    feats = model.base_features(groups.table.ids)
    head = np.empty((feats.shape[0], 512))
    for m in range(groups.k):
        rows = groups.group_rows(m)
        head[rows] = teacher.head_embed(feats[rows], m)
    return head


def _planted_duplicates(f, rng):
    f = f.copy()
    f[rng.integers(0, len(f), size=300)] = f[rng.integers(0, len(f), size=300)]
    return f


def _integer_lattice(f, rng):
    return np.round(rng.normal(size=f.shape) * 0.7)


class TestKnnTableAtRefreshScale:
    """The Gram-screened table equals the per-row full sort exactly on
    4 x 500 rows of 1024-d, including inputs made to defeat the screen."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda f, rng: f,
            _planted_duplicates,
            lambda f, rng: f + 1e4,  # the Gram form cancels most digits
            _integer_lattice,  # exact distance ties everywhere
            # ties the Gram form rounds apart: fails without the slack
            lambda f, rng: 0.1 * _integer_lattice(f, rng),
        ],
        ids=["teacher", "duplicates", "offset_1e4", "lattice_ties", "decimal_lattice_ties"],
    )
    def test_equals_per_row_sort(self, refresh_scale, make):
        wide, ids, group_of = refresh_scale
        assert wide.shape == (2000, 1024)
        assert np.bincount(group_of).tolist() == [500] * 4
        f = make(wide, np.random.default_rng(21))
        assert_groups_match_knn_group(f, ids, group_of, 5)

    def test_one_exact_pass_per_group(self, refresh_scale, monkeypatch):
        # the refresh's input: each group's candidate pairs are measured in
        # one paired_sqdist call, and no row is measured alone
        wide, ids, group_of = refresh_scale
        passes = []

        def counting(f, i, j):
            passes.append(len(i))
            return backends_mod.paired_sqdist(f, i, j)

        monkeypatch.setattr(sampling_mod, "paired_sqdist", counting)
        alone = _measured_rows(monkeypatch)
        got = [knn_table(wide[group_of == g], ids[group_of == g]) for g in range(4)]
        monkeypatch.undo()
        assert alone == [] and len(passes) == 4
        for g, rows in enumerate(got):
            assert np.array_equal(rows, knn_group(wide[group_of == g], ids[group_of == g]))

    @pytest.mark.parametrize("k", [1, 3, 6, 40])
    def test_small_groups_and_k_at_least_group_size(self, k):
        # groups of 2, 4 and 7 rows: k >= size - 1 takes the whole group
        rng = np.random.default_rng(k)
        f = np.round(rng.normal(size=(13, 1024)) * 0.5)
        f[3] = f[0]
        ids = rng.permutation(np.arange(40, 53))
        group_of = np.array([0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2])[rng.permutation(13)]
        assert_groups_match_knn_group(f, ids, group_of, k)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_underflowing_and_overflowing_rows(self, scale):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(40, 32)) * scale
        ids = np.arange(40)
        group_of = rng.integers(0, 2, size=40)
        with np.errstate(over="ignore", under="ignore"):
            assert_groups_match_knn_group(f, ids, group_of, 4)


def _measured_rows(monkeypatch):
    """Record the row count of every ``cross_sqdist`` call the sampler makes."""
    sizes = []

    def counting(x, c):
        sizes.append(len(x))
        return backends_mod.cross_sqdist(x, c)

    monkeypatch.setattr(sampling_mod, "cross_sqdist", counting)
    return sizes


def _screens(monkeypatch):
    """Record the columns of every batch the seeding screens, by row."""
    screens = []
    screen = sampling_mod._screen_columns

    def recording(*args):
        screens.append(screen(*args))
        return screens[-1]

    monkeypatch.setattr(sampling_mod, "_screen_columns", recording)
    return screens


class TestScreenedSeeding:
    """Screened farthest-point seeding picks the same centres, to the bit,
    as measuring every row against every new centre."""

    @pytest.mark.parametrize(
        "make, max_share",
        [
            # on the head embedding the screen measures a few percent of
            # the row-centre pairs
            (lambda h, rng: h, 0.2),
            (lambda h, rng: h + 1e4, 1.0),  # the Gram form cancels most digits
            (lambda h, rng: np.round(rng.normal(size=h.shape) * 0.7), 1.0),  # ties everywhere
            # ties the Gram form rounds apart: fails without the slack
            (lambda h, rng: 0.1 * np.round(rng.normal(size=h.shape) * 0.7), 1.0),
        ],
        ids=["head", "offset_1e4", "lattice_ties", "decimal_lattice_ties"],
    )
    def test_equals_unscreened_loop(self, head_scale, make, max_share, monkeypatch):
        f = make(head_scale, np.random.default_rng(5))
        sizes = _measured_rows(monkeypatch)
        got = _farthest_point_init(f, 100, np.random.default_rng(3))
        assert sizes[0] == 2000 and len(sizes) <= 100
        assert sum(sizes[1:]) <= max_share * 2000 * 99
        monkeypatch.undo()
        assert same_bits(got, farthest_point_loop(f, 100, np.random.default_rng(3)))

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 13, 64])
    def test_odd_widths_and_row_scales(self, dim):
        rng = np.random.default_rng(dim)
        f = rng.normal(size=(257, dim)) * 10.0 ** rng.uniform(-3, 3, size=(257, 1))
        f[40] = f[3]
        got = _farthest_point_init(f, 30, np.random.default_rng(dim))
        assert same_bits(got, farthest_point_loop(f, 30, np.random.default_rng(dim)))

    def test_non_finite_screen_measures_every_row(self, monkeypatch):
        # two rows whose squared norms overflow make every screen non-finite
        rng = np.random.default_rng(8)
        f = rng.normal(size=(300, 16))
        f[[7, 120]] *= 1e155
        sizes = _measured_rows(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _farthest_point_init(f, 20, np.random.default_rng(2))
            monkeypatch.undo()
            want = farthest_point_loop(f, 20, np.random.default_rng(2))
        assert sizes == [300] * 20
        assert same_bits(got, want)

    def test_offset_decimal_lattice_equals_the_exact_loop(self, monkeypatch):
        # ties the Gram form rounds apart, with an offset that cancels most
        # of its digits: the screen still measures only some rows
        rng = np.random.default_rng(9)
        f = 0.1 * np.round(rng.normal(size=(300, 16)) * 0.7) + 50.0
        want = farthest_point_loop(f, 20, np.random.default_rng(4))
        sizes = _measured_rows(monkeypatch)
        got = _farthest_point_init(f, 20, np.random.default_rng(4))
        assert sizes[0] == 300 and sum(sizes[1:]) < 300 * 19
        assert same_bits(got, want)


    def test_more_ties_than_the_batch(self, monkeypatch):
        # 300 rows on the 8 corners of a cube: about 37 copies of the
        # farthest corner tie at the largest minimum, so the lowest-index
        # one, the next centre, may be outside the rows screened with it
        f = np.random.default_rng(10).integers(0, 2, size=(300, 3)).astype(np.float64)
        screens = _screens(monkeypatch)
        got = _farthest_point_init(f, 20, np.random.default_rng(1))
        monkeypatch.undo()
        assert _SCREEN_BATCH + 1 in [len(s) for s in screens]
        assert same_bits(got, farthest_point_loop(f, 20, np.random.default_rng(1)))

    def test_some_screened_columns_not_finite(self, monkeypatch):
        # three rows of squared norm 1e308: the screened value of two of
        # them overflows, that of one of them and a small row does not, so
        # one batch holds finite and non-finite columns
        rng = np.random.default_rng(11)
        f = rng.normal(size=(300, 16))
        big = rng.normal(size=(3, 16))
        f[[7, 120, 200]] = big / np.linalg.norm(big, axis=1, keepdims=True) * 1e154
        screens = _screens(monkeypatch)
        sizes = _measured_rows(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            got = _farthest_point_init(f, 20, np.random.default_rng(2))
            monkeypatch.undo()
            want = farthest_point_loop(f, 20, np.random.default_rng(2))
        kinds = [{col is None for col in s.values()} for s in screens]
        assert {True, False} in kinds
        assert 300 in sizes[1:] and min(sizes) < 300
        assert same_bits(got, want)


class TestClusterSums:
    """The per-cluster sums equal ``np.add.at`` to the bit."""

    def test_random_cases_with_wide_row_scale_spread(self):
        rng = np.random.default_rng(0)
        for trial in range(30):
            n = int(rng.integers(1, 2001))
            dim = (1, 2, 3, 17, 512)[trial % 5]
            n_clusters = int(rng.integers(1, 120))
            f = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-2, 2, size=(n, 1))
            assign = rng.integers(0, n_clusters, size=n)
            want = cluster_sums_add_at(f, assign, n_clusters)
            assert same_bits(_cluster_sums(f, assign, np.arange(n_clusters)), want)
            some = np.sort(rng.choice(n_clusters + 3, size=int(rng.integers(1, n_clusters + 4)), replace=False))
            assert same_bits(_cluster_sums(f, assign, some), np.vstack([want, np.zeros((3, dim))])[some])

    @pytest.mark.parametrize("dim", [1, 6])
    def test_adversarial_clusters(self, dim):
        rng = np.random.default_rng(dim)
        f = rng.normal(size=(40, dim)) * 10.0 ** rng.uniform(-1, 1, size=(40, 1))  # 100x spread
        f[:, -1] = -0.0
        assign = rng.integers(2, 6, size=40)
        assign[17] = 0  # one-row cluster; cluster 1 stays empty
        got = _cluster_sums(f, assign, np.arange(6))
        assert same_bits(got, cluster_sums_add_at(f, assign, 6))
        assert not np.signbit(got[:, -1]).any()  # all -0.0 sums to +0.0
        assert same_bits(got[1], np.zeros(dim))


def _same_lloyd(f, n_clusters, iters, seed):
    """``_lloyd`` against ``lloyd_full`` from one seed: the same centroids
    and inertia trace, to the bit.  Returns the iteration count."""
    got, got_trace = _lloyd(f, n_clusters, iters, np.random.default_rng(seed))
    want, want_trace = lloyd_full(f, n_clusters, iters, np.random.default_rng(seed))
    assert same_bits(got, want)
    assert got_trace == want_trace
    return len(want_trace)


class TestIncrementalLloyd:
    """Lloyd that sums and measures only the clusters whose rows changed
    equals the one that assigns and sums everything in every iteration.

    Assignment takes the Gram form at every size, and a partial product
    matches the whole one only where the BLAS computes both alike, so
    these checks pin the build the record was made on."""

    def test_gram_side_early_convergence_and_all_iterations(self, head_scale):
        if reason := _recipe.other_build():
            pytest.skip(reason)
        assert _same_lloyd(head_scale, 100, 20, seed=3) < 20
        assert _same_lloyd(head_scale, 100, 20, seed=5) == 20

    def test_gram_side_duplicate_rows_force_steals(self, head_scale):
        if reason := _recipe.other_build():
            pytest.skip(reason)
        # 60 distinct rows for 100 clusters: clusters empty every iteration
        rng = np.random.default_rng(4)
        f = head_scale[rng.integers(0, 2000, size=60)][rng.integers(0, 60, size=2000)]
        assert _same_lloyd(f, 100, 20, seed=0) == 20

    @pytest.mark.parametrize("seed", range(6))
    def test_small_inputs(self, seed):
        if reason := _recipe.other_build():
            pytest.skip(reason)
        rng = np.random.default_rng(seed)
        n, dim, n_clusters = int(rng.integers(20, 200)), int(rng.integers(1, 9)), int(rng.integers(2, 12))
        f = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-2, 2, size=(n, 1))
        if seed % 2:
            f = np.round(f)  # exact distance ties
        _same_lloyd(f, n_clusters, 20, seed)
        _same_lloyd(f, n_clusters, 2, seed)  # stopped by the iteration count

    def test_small_duplicate_rows_force_steals(self):
        if reason := _recipe.other_build():
            pytest.skip(reason)
        # three distinct positions for six clusters
        f = np.repeat(np.array([[0.0, 1.0], [3.0, -2.0], [5.0, 5.0]]), [7, 5, 9], axis=0)
        assert _same_lloyd(f, 6, 20, seed=1) >= 2


def small_corpus(n_objects=200, seed=0, k=4):
    cfg = SynthConfig(n_objects=n_objects, seed=seed, feature_dim=8, n_classes=4)
    table, feats, model = synth_generate_full(cfg)
    groups = partition_by_scale(table, k)
    return table, feats, model, groups


class TestAssembleBatch:
    def test_default_arithmetic(self):
        _, _, _, groups = small_corpus()
        t = knn_rows(
            np.random.default_rng(0).normal(size=(200, 4)),
            groups.table.ids,
            groups.assignment,
            k_neighbors=5,
        )
        batch = assemble_batch(groups, t, np.random.default_rng(1), budget=120, n_shared=6)
        assert all(len(g) == 24 for g in batch.group_ids)
        assert len(batch.shared_ids) == 6
        assert sum(len(g) + len(batch.shared_ids) for g in batch.group_ids) == 120

    def test_rows_belong_to_their_group(self):
        _, _, _, groups = small_corpus()
        t = knn_rows(
            np.random.default_rng(2).normal(size=(200, 4)),
            groups.table.ids,
            groups.assignment,
        )
        batch = assemble_batch(groups, t, np.random.default_rng(3))
        for m in range(4):
            member = set(groups.group_object_ids(m).tolist())
            assert all(int(o) in member for o in batch.group_ids[m])
            assert len(set(batch.group_ids[m].tolist())) == len(batch.group_ids[m])

    def test_single_group_no_shared(self):
        _, _, _, groups = small_corpus(n_objects=150, k=1)
        t = knn_rows(
            np.random.default_rng(4).normal(size=(150, 4)),
            groups.table.ids,
            groups.assignment,
        )
        batch = assemble_batch(groups, t, np.random.default_rng(5), budget=120, n_shared=0)
        assert len(batch.shared_ids) == 0
        assert len(batch.group_ids) == 1
        assert len(batch.group_ids[0]) == 120

    def test_deterministic(self):
        _, _, _, groups = small_corpus()
        t = knn_rows(
            np.random.default_rng(6).normal(size=(200, 4)),
            groups.table.ids,
            groups.assignment,
        )
        a = assemble_batch(groups, t, np.random.default_rng(9))
        b = assemble_batch(groups, t, np.random.default_rng(9))
        assert all(np.array_equal(x, y) for x, y in zip(a.group_ids, b.group_ids))
        assert np.array_equal(a.shared_ids, b.shared_ids)

    def test_anchor_expansion_prefixes_neighbors(self):
        _, _, _, groups = small_corpus()
        t = knn_rows(
            np.random.default_rng(7).normal(size=(200, 4)),
            groups.table.ids,
            groups.assignment,
            k_neighbors=5,
        )
        batch = assemble_batch(groups, t, np.random.default_rng(11))
        # replay the draw: first anchor is the head of the same permutation
        replay = np.random.default_rng(11)
        first_anchor = int(replay.permutation(groups.group_object_ids(0))[0])
        expect = [first_anchor]
        for oid in t.of(first_anchor):
            if int(oid) not in expect:
                expect.append(int(oid))
        assert batch.group_ids[0][: len(expect)].tolist() == expect

    def test_unattainable_quota(self):
        _, _, _, groups = small_corpus()
        t = knn_rows(
            np.random.default_rng(8).normal(size=(200, 4)),
            groups.table.ids,
            groups.assignment,
        )
        with pytest.raises(ValueError, match="quota"):
            assemble_batch(groups, t, np.random.default_rng(0), budget=24, n_shared=6)


# (CPUs seen, whether os.fork exists): one process, one child, one child
# with a CPU to spare, and one process where processes cannot fork
CPU_CASES = ((1, True), (2, True), (3, True), (3, False))


class TestRefresh:
    def setup_method(self):
        self.table, feats, self.model, self.groups = small_corpus(n_objects=80)
        enc = EncoderConfig(
            feature_dim=8, groups=4, hidden_dim=16, trunk_layers=2,
            student_dim=12, teacher_dim=20,
        )
        student = StudentNet.init(enc, seed=0)
        self.teacher = TeacherNet.from_student(student, seed=1)

    def test_fires_on_period_multiples(self):
        bank, nt = refresh(
            0, 1000, self.teacher, self.groups, self.model, None, None,
            n_clusters=10, k_neighbors=3,
        )
        assert bank.last_refresh_step == 0
        assert bank.centroids.shape == (10, 12)
        assert len(nt.neighbors) == 80
        bank2, nt2 = refresh(
            1000, 1000, self.teacher, self.groups, self.model, bank, nt,
            n_clusters=10, k_neighbors=3,
        )
        assert bank2.last_refresh_step == 1000
        assert bank2 is not bank and nt2 is not nt

    def test_noop_off_period(self):
        bank, nt = refresh(
            0, 1000, self.teacher, self.groups, self.model, None, None,
            n_clusters=10, k_neighbors=3,
        )
        bank2, nt2 = refresh(
            999, 1000, self.teacher, self.groups, self.model, bank, nt,
            n_clusters=10, k_neighbors=3,
        )
        assert bank2 is bank and nt2 is nt

    def test_deterministic(self):
        a = refresh(
            0, 1000, self.teacher, self.groups, self.model, None, None,
            n_clusters=10, k_neighbors=3,
        )
        b = refresh(
            0, 1000, self.teacher, self.groups, self.model, None, None,
            n_clusters=10, k_neighbors=3,
        )
        assert np.array_equal(a[0].centroids, b[0].centroids)
        assert all(np.array_equal(a[1].of(i), b[1].of(i)) for i in self.table.ids)

    def test_equals_whole_corpus_composition(self, monkeypatch):
        want_bank, want_nt = refresh_composition(
            5, self.teacher, self.groups, self.model, n_clusters=10,
            k_neighbors=3, kmeans_iters=8, seed=2,
        )
        for cpus, can_fork in CPU_CASES:
            forked = force_cpus(monkeypatch, cpus, can_fork)
            got_bank, got_nt = refresh(
                5, 5, self.teacher, self.groups, self.model, None, None,
                n_clusters=10, k_neighbors=3, kmeans_iters=8, seed=2,
            )
            monkeypatch.undo()
            assert_reaped(forked, 1 if cpus > 1 and can_fork else 0)
            assert same_bits(got_bank.centroids, want_bank.centroids)
            assert got_bank.last_refresh_step == got_nt.last_refresh_step == 5
            assert_same_table(got_nt, want_nt)

    def test_neighbor_table_pads_groups_of_different_sizes(self):
        # 22 objects in groups of 6, 6, 5 and 5, and k_neighbors 6: rows of
        # width min(6, 6 - 1), the groups of five padded with one -1
        _, _, model, groups = small_corpus(n_objects=22)
        assert groups.group_sizes() == [6, 6, 5, 5]
        ids = groups.table.ids
        feats = model.base_features(ids)
        nt = sampling_mod._neighbor_table(self.teacher, groups, feats, 6, 9)
        assert np.array_equal(nt.ids, ids) and (np.diff(nt.ids) > 0).all()
        assert nt.rows.dtype == np.int64 and nt.rows.shape == (22, 5)
        assert nt.last_refresh_step == 9
        for m, size in enumerate(groups.group_sizes()):
            rows = groups.group_rows(m)
            assert (nt.rows[rows, size - 1:] == -1).all()
            own = nt.rows[rows, : size - 1]
            assert np.isin(own, ids[rows]).all()
            assert np.array_equal(own, knn_group(self.teacher.embed(feats[rows]), ids[rows], 6))

    def _refresh(self):
        return refresh(
            0, 1, self.teacher, self.groups, self.model, None, None,
            n_clusters=10, k_neighbors=3,
        )

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_singleton_group_error_in_either_process(self, monkeypatch, cpus):
        # five objects in four groups: group 1 holds one
        _, _, model, groups = small_corpus(n_objects=5)
        forked = force_cpus(monkeypatch, cpus)
        with pytest.raises(ValueError, match="^group 1 has fewer than two members$"):
            refresh(0, 1, self.teacher, groups, model, None, None, n_clusters=2)
        assert_reaped(forked, cpus - 1)

    def test_child_that_dies_gives_its_status(self, monkeypatch):
        knn, parent = sampling_mod.knn_table, os.getpid()

        def knn_or_die(*args):
            if os.getpid() != parent:
                os._exit(3)
            return knn(*args)

        forked = force_cpus(monkeypatch, 2)
        monkeypatch.setattr(sampling_mod, "knn_table", knn_or_die)
        with pytest.raises(
            ValueError, match="^a neighbor-table process exited with status 3 and sent no result$"
        ):
            self._refresh()
        assert_reaped(forked, 1)

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_parent_error_in_kmeans_reaps_the_child(self, monkeypatch, error):
        def failing_kmeans(*args, **kwargs):
            raise error("k-means failed")

        forked = force_cpus(monkeypatch, 2)
        monkeypatch.setattr(sampling_mod, "kmeans", failing_kmeans)
        with pytest.raises(error, match="k-means failed"):
            self._refresh()
        assert_reaped(forked, 1)


def test_default_refresh_equals_whole_corpus_composition(corpus_2000, monkeypatch):
    teacher, groups, model = corpus_2000
    want_bank, want_nt = refresh_composition(0, teacher, groups, model)
    for cpus, can_fork in CPU_CASES:
        forked = force_cpus(monkeypatch, cpus, can_fork)
        got_bank, got_nt = refresh(0, 1000, teacher, groups, model, None, None)
        monkeypatch.undo()
        assert_reaped(forked, 1 if cpus > 1 and can_fork else 0)
        assert same_bits(got_bank.centroids, want_bank.centroids)
        assert_same_table(got_nt, want_nt)


def test_default_refresh_traced_memory_peak(corpus_2000, monkeypatch):
    # Traced allocation peak above baseline of a default refresh on 2000
    # objects: 37.4 MB when the wide embedding of the whole corpus (16 MB)
    # fed one kNN call, 30.7 MB with one teacher pass and one kNN call per
    # group.  tracemalloc sees this process only, so the refresh runs both
    # halves here, on one CPU.
    teacher, groups, model = corpus_2000
    force_cpus(monkeypatch, 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        refresh(0, 1000, teacher, groups, model, None, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 32e6
