"""Acceptance gate: one test per shipping criterion.

Each test prints a single verdict line (visible with ``pytest -s`` and in
failure reports) and asserts the criterion at its stated tolerance.  A
failing test here means the build does not meet that criterion; see
``tests/test_metrics.py::test_image_map_can_drop_below_object_map`` for
the one documented property that provably cannot hold.
"""

import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from groupvec.cli import main
from groupvec.data import (
    BaseFeatureProvider,
    ObjectRecord,
    ObjectTable,
    SynthConfig,
    partition_by_scale,
    synth_generate,
)
from groupvec.losses import (
    LossConfig,
    _ckd_with_grads,
    pair_weights,
    relative_distances,
    relaxed_contrastive,
    self_distill,
    total_loss,
)
from groupvec.metrics import EvalConfig, GalleryObject, GroundTruth, mean_ap, recall_at_1
from groupvec.retrieval import EmbeddingStore, query
from groupvec.sampling import _lloyd, knn_table, refresh
from groupvec.train import TrainConfig, init_state

from _ablation import ARMS, arm_map
from _oracles import (
    SimilarityMatrix,
    centroid_similarity,
    ckd_pair,
    ckd_total,
    eval_scores_loops,
    fd_grad,
    knn_loops,
    max_rel_err,
    random_eval_instance,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")


# --- criterion 1: analytic gradients match central finite differences ----

GRAD_TOL = 1e-3
FD_EPS = 1e-5
POINTS = 20


def _hinge_safe(rng, n, d, cfg, tries=200):
    """A batch whose relative distances all clear the margin by > 1e-3.

    Keeps every hinge term away from its kink so the finite-difference
    probe (eps 1e-5) stays on one branch.
    """
    for _ in range(tries):
        f = rng.normal(size=(n, d))
        rel = relative_distances(f)
        off = ~np.eye(n, dtype=bool)
        if np.all(np.abs(cfg.delta - rel[off]) > 1e-3):
            return f
    raise AssertionError("no hinge-safe batch found")


def test_criterion_1_gradient_suite():
    t0 = time.time()
    rng = np.random.default_rng(101)
    cfg = LossConfig(full_grad=True)
    n, d, dt = 6, 5, 4
    worst = 0.0

    for _ in range(POINTS):
        f = _hinge_safe(rng, n, d, cfg)
        f_t = rng.normal(size=(n, dt))
        _, grad = relaxed_contrastive(f, f_t, cfg)
        numeric = fd_grad(lambda x: relaxed_contrastive(x.reshape(n, d), f_t, cfg)[0], f.ravel(), FD_EPS)
        worst = max(worst, max_rel_err(grad.ravel(), numeric))

    for _ in range(POINTS):
        f_h = rng.normal(size=(n, d))
        f_l = rng.normal(size=(n, d))

        def val(x):
            return self_distill(x[: n * d].reshape(n, d), x[n * d :].reshape(n, d), cfg)[0]

        _, g_h, g_l = self_distill(f_h, f_l, cfg)
        numeric = fd_grad(val, np.concatenate([f_h.ravel(), f_l.ravel()]), FD_EPS)
        worst = max(worst, max_rel_err(np.concatenate([g_h.ravel(), g_l.ravel()]), numeric))

    n_s, n_c = 4, 3
    for _ in range(POINTS):
        blocks = [rng.normal(size=(n_s, d)) for _ in range(2)]
        cents = [rng.normal(size=(n_c, d)) for _ in range(2)]
        value, grads = _ckd_with_grads(blocks, cents, cfg)
        sims = [centroid_similarity(b, c, cfg) for b, c in zip(blocks, cents)]
        assert value == pytest.approx(ckd_pair(sims[0], sims[1], range(n_s)), rel=1e-12)

        def val(x):
            bl = [x[: n_s * d].reshape(n_s, d), x[n_s * d :].reshape(n_s, d)]
            return _ckd_with_grads(bl, cents, cfg)[0]

        numeric = fd_grad(val, np.concatenate([b.ravel() for b in blocks]), FD_EPS)
        worst = max(worst, max_rel_err(np.concatenate([g.ravel() for g in grads]), numeric))

    k, shared = 2, 2
    for _ in range(POINTS):
        f_h = [_hinge_safe(rng, n, d, cfg) for _ in range(k)]
        f_l = [_hinge_safe(rng, n, d, cfg) for _ in range(k)]
        f_t = [rng.normal(size=(n, dt)) for _ in range(k)]
        cents = [rng.normal(size=(n_c, d)) for _ in range(k)]

        def val(x):
            parts = x.reshape(2 * k, n, d)
            return total_loss(list(parts[:k]), list(parts[k:]), f_t, cents, shared, cfg)[0]

        _, _, d_fh, d_fl = total_loss(f_h, f_l, f_t, cents, shared, cfg)
        numeric = fd_grad(val, np.concatenate([b.ravel() for b in f_h + f_l]), FD_EPS)
        analytic = np.concatenate([g.ravel() for g in d_fh + d_fl])
        worst = max(worst, max_rel_err(analytic, numeric))

    elapsed = time.time() - t0
    ok = worst < GRAD_TOL and elapsed < 30.0
    _verdict("criterion 1 gradient suite", ok, f"max rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < GRAD_TOL
    assert elapsed < 30.0


# --- criterion 2: closed-form loss identities ----------------------------


def _stochastic(rng, n, width):
    rows = rng.random((n, width)) + 0.05
    return rows / rows.sum(axis=1, keepdims=True)


def test_criterion_2_loss_identities():
    rng = np.random.default_rng(202)
    cfg = LossConfig()

    f = rng.normal(size=(7, 5))
    zero_self = self_distill(f, f, cfg)[0]

    # unit simplex: every relative distance is n/(n-1) > delta, so the
    # hinge is exactly zero; the teacher copy is hot enough that every
    # affinity underflows to exactly 0.0
    n = 5
    simplex = np.eye(n)
    rel = relative_distances(simplex)
    off = ~np.eye(n, dtype=bool)
    assert np.all(rel[off] > cfg.delta)
    w = pair_weights(1e4 * simplex, cfg.sigma)
    assert np.all(w[off] == 0.0)
    zero_con = relaxed_contrastive(simplex, 1e4 * simplex, cfg)[0]

    ids = np.arange(3)
    uniform = SimilarityMatrix(ids, np.full((3, 4), 0.25))
    uniform_gap = abs(ckd_pair(uniform, uniform, ids) - math.log(4.0))

    rows = _stochastic(rng, 6, 5)
    s = SimilarityMatrix(np.arange(6), rows)
    entropy = float(np.mean(-(rows * np.log(rows)).sum(axis=1)))
    self_gap = abs(ckd_pair(s, s, np.arange(6)) - entropy)

    w_sig = pair_weights(np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]), cfg.sigma)
    sigma_gap = abs(w_sig[0, 1] - math.exp(-1.0))

    mats = [SimilarityMatrix(ids, _stochastic(rng, 3, 4)) for _ in range(4)]
    pair_vals = [ckd_pair(mats[a], mats[b], ids) for a in range(4) for b in range(a + 1, 4)]
    total = ckd_total(mats, ids)

    ok = (
        zero_self == 0.0
        and zero_con == 0.0
        and uniform_gap < 1e-9
        and self_gap < 1e-12
        and sigma_gap < 1e-12
        and len(pair_vals) == 6
        and total == sum(pair_vals) / 6
    )
    _verdict(
        "criterion 2 loss identities",
        ok,
        f"self(F,F)={zero_self!r}, hinge-zero loss={zero_con!r}, ln4 gap {uniform_gap:.1e}, "
        f"entropy gap {self_gap:.1e}, affinity gap {sigma_gap:.1e}, {len(pair_vals)} pair terms",
    )
    assert zero_self == 0.0
    assert zero_con == 0.0
    assert uniform_gap < 1e-9
    assert self_gap < 1e-12
    assert sigma_gap < 1e-12
    assert len(pair_vals) == 6 and total == sum(pair_vals) / 6


# --- criterion 3: metric scores vs. brute-force oracle --------------------


def _library_instance(inst):
    qclass, qarea, gallery = {}, {}, []
    for oid, img, box, cls in inst["gallery"]:
        gallery.append(GalleryObject(oid, img, box))
        qclass[oid] = cls
        qarea[oid] = box[2] * box[3]
    gt = GroundTruth(
        boxes_by_image={img: list(anns) for img, anns in inst["annotations"].items()},
        query_class=qclass,
        query_area=qarea,
        gallery=tuple(gallery),
    )
    from groupvec.retrieval import Hit, RankedResult

    by_id = {g.object_id: g for g in gt.gallery}
    results = [
        RankedResult(
            qid,
            tuple(
                Hit(oid, float(r), by_id[oid].image_id, by_id[oid].bbox)
                for r, oid in enumerate(inst["rankings"][qid])
            ),
        )
        for qid in inst["queries"]
    ]
    return gt, results, EvalConfig(topk=inst["topk"])


def test_criterion_3_metric_oracle_suite():
    t0 = time.time()
    rng = np.random.default_rng(303)
    map_violations = []
    for i in range(100):
        inst = random_eval_instance(rng)
        gt, results, cfg = _library_instance(inst)
        expected = eval_scores_loops(inst)
        scores = {}
        for level in ("object", "image"):
            r = recall_at_1(results, gt, cfg, level)
            m = mean_ap(results, gt, cfg, level)
            assert r == expected[f"{level}_recall_at_1"]
            want = expected[f"{level}_mean_ap"]
            assert m == want or (math.isnan(m) and math.isnan(want))
            scores[level] = (r, m)
        assert scores["image"][0] >= scores["object"][0]
        m_obj, m_img = scores["object"][1], scores["image"][1]
        if not (math.isnan(m_obj) or math.isnan(m_img)) and m_img < m_obj:
            map_violations.append((i, m_img, m_obj))
    elapsed = time.time() - t0
    assert elapsed < 60.0

    ok = not map_violations
    _verdict(
        "criterion 3 metric oracle suite",
        ok,
        f"scores exact on 100 instances, recall@1 monotone, "
        f"mAP monotonicity violated on {len(map_violations)}/100, {elapsed:.1f}s",
    )
    if map_violations:
        i, m_img, m_obj = map_violations[0]
        pytest.fail(
            f"image-level mAP fell below object-level mAP on {len(map_violations)}/100 "
            f"random instances (first: instance {i}, {m_img:.4f} < {m_obj:.4f}).  With "
            f"per-level relevant counts this ordering is not a theorem; "
            f"tests/test_metrics.py::test_image_map_can_drop_below_object_map pins a "
            f"minimal counterexample.  Score exactness and recall@1 monotonicity hold."
        )


# --- criterion 4: exact search over random stores -------------------------


def _flat_table(ids):
    return ObjectTable(
        [
            ObjectRecord(object_id=int(oid), image_id=int(oid) // 4, bbox=(0.0, 0.0, 1.0, 1.0), area=1.0, feature_ref=i)
            for i, oid in enumerate(ids)
        ]
    )


def test_criterion_4_exact_retrieval(tmp_path):
    rng = np.random.default_rng(404)
    checked = 0
    for case in range(50):
        n = 10_000 if case == 0 else int(rng.integers(2, 400))
        dim = int(rng.integers(2, 24))
        vec = rng.normal(size=(n, dim)).astype(np.float32)
        if case % 2 == 0 and n >= 4:
            # plant exact duplicate rows so the id tie-break is exercised
            vec[n // 2] = vec[n // 4]
            vec[n - 1] = vec[n // 4]
        ids = rng.permutation(3 * n).astype(np.int64)[:n]
        store = EmbeddingStore(vectors=vec, object_ids=ids)
        table = _flat_table(ids)
        q = rng.normal(size=dim)
        topk = int(rng.integers(1, n + 3))
        res = query(store, q, topk, table)

        qq = q.astype(np.float32).astype(np.float64)
        dist = np.sqrt(((vec.astype(np.float64) - qq) ** 2).sum(axis=1))
        order = np.lexsort((ids, dist))[: min(topk, n)]
        assert [h.object_id for h in res.hits] == [int(i) for i in ids[order]]
        assert np.allclose([h.distance for h in res.hits], dist[order], rtol=1e-12, atol=1e-12)
        checked += 1

    store = EmbeddingStore(
        vectors=rng.normal(size=(64, 8)).astype(np.float32),
        object_ids=np.arange(64, dtype=np.int64),
    )
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    store.save(p1)
    store.save(p2)
    same_bytes = p1.read_bytes() == p2.read_bytes()

    _verdict(
        "criterion 4 exact retrieval",
        checked == 50 and same_bytes,
        f"{checked}/50 stores match brute force incl. ties, double save byte-identical: {same_bytes}",
    )
    assert checked == 50
    assert same_bytes


# --- criterion 5: sampler invariants ---------------------------------------


def test_criterion_5_sampler_suite():
    rng = np.random.default_rng(505)

    spread_worst = 0
    for n, k in [(7, 3), (40, 4), (41, 4), (100, 7), (9, 9), (500, 4)]:
        boxes = rng.uniform(1.0, 50.0, size=(n, 2))
        table = ObjectTable(
            [
                ObjectRecord(object_id=i, image_id=i, bbox=(0.0, 0.0, w, h), area=w * h, feature_ref=i)
                for i, (w, h) in enumerate(boxes)
            ]
        )
        groups = partition_by_scale(table, k)
        sizes = [int((groups.assignment == m).sum()) for m in range(k)]
        spread_worst = max(spread_worst, max(sizes) - min(sizes))

    n = 500
    f = rng.normal(size=(n, 16))
    ids = rng.permutation(2 * n)[:n].astype(np.int64)
    group_of = rng.integers(0, 3, size=n)
    got = {}
    for g in range(3):
        rows = np.flatnonzero(group_of == g)
        got.update(zip(ids[rows].tolist(), knn_table(f[rows], ids[rows], k_neighbors=5).tolist()))
    oracle = knn_loops(f, ids, group_of, 5)
    knn_ok = all(got[int(oid)] == oracle[int(oid)] for oid in ids)

    traces_ok = True
    for _ in range(5):
        pts = rng.normal(size=(120, 6)) * rng.uniform(0.5, 3.0)
        _, trace = _lloyd(pts, 8, iters=15, rng=np.random.default_rng(int(rng.integers(1 << 31))))
        traces_ok = traces_ok and bool(np.all(np.diff(trace) <= 1e-12))

    cfg = SynthConfig(n_objects=60, feature_dim=6, n_classes=3, objects_per_image=4, seed=7)
    table, features = synth_generate(cfg)
    provider = BaseFeatureProvider.from_table(table, features)
    groups = partition_by_scale(table, 2)
    tc = TrainConfig(steps=0, groups=2, hidden_dim=8, student_dim=4, teacher_dim=6)
    state = init_state(tc, features.shape[1])
    teacher = state.teacher
    bank = table_nt = None
    fired = []
    for step in range(0, 2401, 50):
        new_bank, new_nt = refresh(
            step, 1000, teacher, groups, provider, bank, table_nt, n_clusters=5, k_neighbors=3
        )
        if new_nt is not table_nt:
            fired.append(step)
        bank, table_nt = new_bank, new_nt
    fire_ok = fired == [0, 1000, 2000]

    ok = spread_worst <= 1 and knn_ok and traces_ok and fire_ok
    _verdict(
        "criterion 5 sampler suite",
        ok,
        f"group-size spread <= {spread_worst}, knn oracle match: {knn_ok}, "
        f"inertia non-increasing: {traces_ok}, refresh fired at {fired}",
    )
    assert spread_worst <= 1
    assert knn_ok
    assert traces_ok
    assert fire_ok


# --- criterion 6: directional ablation -------------------------------------

ABLATION_SEEDS = (0, 1, 2, 3, 4)
ABLATION_STEPS = 300


def test_criterion_6_grouping_and_alignment_help(monkeypatch):
    # The 15 trainings are independent: they run in spawned workers, one
    # per CPU, each with one BLAS thread from the environment it starts
    # with, and come back in seed order.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    runs = [(seed, arm, ABLATION_STEPS, seed) for seed in ABLATION_SEEDS for arm in ARMS]
    with multiprocessing.get_context("spawn").Pool(min(os.cpu_count() or 1, len(runs))) as pool:
        values = pool.starmap(arm_map, runs, chunksize=1)
    per_arm = {arm: [] for arm in ARMS}
    for (_, arm, _, _), value in zip(runs, values):
        per_arm[arm].append(100.0 * value)
    med = {arm: float(np.median(v)) for arm, v in per_arm.items()}
    ordered = med["baseline"] < med["heads"] <= med["full"]
    margin = med["full"] - med["baseline"]
    ok = ordered and margin >= 2.0
    _verdict(
        "criterion 6 directional ablation",
        ok,
        f"median held-out mAP: baseline {med['baseline']:.2f} / heads {med['heads']:.2f} / "
        f"full {med['full']:.2f} over {len(ABLATION_SEEDS)} seeds (margin {margin:+.2f})",
    )
    assert ordered, f"expected baseline < heads <= full, got {med}"
    assert margin >= 2.0, f"full arm beats baseline by {margin:.2f} < 2.0 points"


# --- criterion 7: end-to-end determinism -----------------------------------


def _pipeline(tmp_path, tag):
    root = tmp_path / tag
    data = root / "data"
    run = root / "run"
    data.mkdir(parents=True)
    run.mkdir()
    ini = tmp_path / "pipeline.ini"
    if not ini.exists():
        ini.write_text(
            "[synth]\n"
            "n_objects = 240\nobjects_per_image = 6\nfeature_dim = 12\nn_classes = 5\n"
            "[train]\n"
            "batch = 24\ngroups = 2\nclusters = 6\nknn = 4\nn_shared = 3\n"
            "hidden_dim = 24\nstudent_dim = 12\nteacher_dim = 16\n"
            "[eval]\n"
            "max_queries = 40\n"
        )
    assert main(["synth", "--config", str(ini), "--seed", "5", "--out", str(data)]) == 0
    assert (
        main(
            [
                "train",
                "--config",
                str(ini),
                "--data",
                str(data),
                "--steps",
                "500",
                "--seed",
                "5",
                "--out",
                str(run),
            ]
        )
        == 0
    )
    assert main(["embed", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(data), "--out", str(run / "store.bin")]) == 0
    assert (
        main(
            [
                "eval",
                "--config",
                str(ini),
                "--checkpoint",
                str(run / "checkpoint.bin"),
                "--data",
                str(data),
                "--store",
                str(run / "store.bin"),
                "--report",
                str(run / "report.tsv"),
                "--rankings",
                str(run / "rankings.tsv"),
            ]
        )
        == 0
    )
    return {
        "loss.log": (run / "loss.log").read_bytes(),
        "store.bin": (run / "store.bin").read_bytes(),
        "report.tsv": (run / "report.tsv").read_bytes(),
        "rankings.tsv": (run / "rankings.tsv").read_bytes(),
    }


def test_criterion_7_pipeline_determinism(tmp_path, capsys):
    first = _pipeline(tmp_path, "first")
    second = _pipeline(tmp_path, "second")
    capsys.readouterr()
    assert first["loss.log"].count(b"\n") == 500
    assert len(first["store.bin"]) > 240 * 12 * 4
    assert first["report.tsv"].count(b"\n") >= 6
    same = {name: first[name] == second[name] for name in first}
    ok = all(same.values())
    _verdict(
        "criterion 7 pipeline determinism",
        ok,
        "500-step synth/train/embed/eval twice: "
        + ", ".join(f"{name} {'identical' if v else 'DIFFERS'}" for name, v in same.items()),
    )
    assert ok, same
