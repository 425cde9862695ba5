"""Evaluation metric tests: IoU, hit gating, Recall@1, mAP, scale report."""

import logging
import math

import numpy as np
import pytest

from groupvec.data import ObjectRecord, ObjectTable, SynthConfig, synth_generate
from groupvec.metrics import (
    EvalConfig,
    GalleryObject,
    GroundTruth,
    hit_test,
    iou,
    mean_ap,
    recall_at_1,
    scale_report,
)
from groupvec.retrieval import Hit, RankedResult

from _oracles import eval_scores_loops, iou_loops, random_eval_instance

A = (0.0, 0.0, 10.0, 10.0)
A_SHIFT = (5.0, 5.0, 10.0, 10.0)  # IoU with A is 25/175 = 1/7
B = (30.0, 30.0, 10.0, 10.0)
FAR = (200.0, 200.0, 10.0, 10.0)


def make_gt(gallery, annotations, query_class, query_area=None):
    areas = query_area or {}
    return GroundTruth(
        boxes_by_image={img: list(anns) for img, anns in annotations.items()},
        query_class=dict(query_class),
        query_area=dict(areas),
        gallery=tuple(GalleryObject(*g) for g in gallery),
    )


def hits_for(gt, object_ids):
    by_id = {g.object_id: g for g in gt.gallery}
    return tuple(
        Hit(oid, float(r), by_id[oid].image_id, by_id[oid].bbox)
        for r, oid in enumerate(object_ids)
    )


@pytest.fixture
def band_gt():
    """One tight, one loose, one missing overlap, one wrong-class object."""
    gallery = [
        (1, 1, A),
        (2, 2, A_SHIFT),
        (3, 3, FAR),
        (4, 3, B),
    ]
    annotations = {1: [(0, A)], 2: [(0, A)], 3: [(0, A), (1, B)]}
    query_class = {1: 0, 2: 0, 3: 0, 4: 1, 99: 0}
    query_area = {99: 100.0}
    return make_gt(gallery, annotations, query_class, query_area)


def library_instance(inst):
    qclass = {}
    qarea = {}
    gallery = []
    for oid, img, box, cls in inst["gallery"]:
        gallery.append((oid, img, box))
        qclass[oid] = cls
        qarea[oid] = box[2] * box[3]
    gt = make_gt(gallery, inst["annotations"], qclass, qarea)
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


def test_iou_identical_boxes():
    assert iou(A, A) == 1.0


def test_iou_disjoint_boxes():
    assert iou(A, FAR) == 0.0


def test_iou_quarter_overlap():
    v = iou(A, A_SHIFT)
    assert abs(v - 25.0 / 175.0) < 1e-12


def test_iou_degenerate_box_rejected():
    with pytest.raises(ValueError, match="positive width"):
        iou((0.0, 0.0, 0.0, 10.0), A)


def test_iou_random_boxes_symmetric_bounded_and_match_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = (rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(1, 30), rng.uniform(1, 30))
        b = (rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(1, 30), rng.uniform(1, 30))
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)
        assert v == iou_loops(a, b)


def test_hit_test_exact_match(band_gt):
    hit = hits_for(band_gt, [1])[0]
    assert hit_test(hit, 0, band_gt, 0.3) is True


def test_hit_test_loose_overlap_passes_only_image_threshold(band_gt):
    hit = hits_for(band_gt, [2])[0]
    assert hit_test(hit, 0, band_gt, 0.3) is False
    assert hit_test(hit, 0, band_gt, 1e-10) is True


def test_hit_test_class_gate(band_gt):
    hit = hits_for(band_gt, [4])[0]  # perfect overlap with the class-1 box
    assert hit_test(hit, 1, band_gt, 0.3) is True
    assert hit_test(hit, 0, band_gt, 0.3) is False


def test_hit_test_missing_image(band_gt):
    orphan = Hit(77, 0.0, 42, A)
    with pytest.raises(ValueError, match="image 42 missing"):
        hit_test(orphan, 0, band_gt, 0.3)


def test_recall_both_queries_hit(band_gt):
    cfg = EvalConfig()
    results = [
        RankedResult(99, hits_for(band_gt, [1, 3])),
        RankedResult(99, hits_for(band_gt, [1, 2])),
    ]
    assert recall_at_1(results, band_gt, cfg, "object") == 1.0


def test_recall_one_of_two(band_gt):
    cfg = EvalConfig()
    results = [
        RankedResult(99, hits_for(band_gt, [1, 3])),
        RankedResult(99, hits_for(band_gt, [3, 1])),
    ]
    assert recall_at_1(results, band_gt, cfg, "object") == 0.5


def test_recall_empty_hit_list_counts_zero(band_gt):
    cfg = EvalConfig()
    results = [RankedResult(99, ()), RankedResult(99, hits_for(band_gt, [1]))]
    assert recall_at_1(results, band_gt, cfg, "object") == 0.5


def test_recall_requires_results(band_gt):
    with pytest.raises(ValueError, match="at least one"):
        recall_at_1([], band_gt, EvalConfig(), "object")


def test_recall_unknown_level(band_gt):
    results = [RankedResult(99, hits_for(band_gt, [1]))]
    with pytest.raises(ValueError, match="unknown level"):
        recall_at_1(results, band_gt, EvalConfig(), "frame")


def test_recall_image_level_uses_loose_threshold(band_gt):
    cfg = EvalConfig()
    results = [RankedResult(99, hits_for(band_gt, [2, 1]))]
    assert recall_at_1(results, band_gt, cfg, "object") == 0.0
    assert recall_at_1(results, band_gt, cfg, "image") == 1.0


def test_query_object_removed_from_its_own_ranking(band_gt, caplog):
    cfg = EvalConfig()
    results = [RankedResult(1, hits_for(band_gt, [1, 2, 3]))]
    # with object 1 dropped the top hit is the loose object 2
    assert recall_at_1(results, band_gt, cfg, "object") == 0.0
    assert recall_at_1(results, band_gt, cfg, "image") == 1.0
    # at object level nothing but the query itself is tight, so the
    # query has no relevant items and mAP is undefined
    with caplog.at_level(logging.WARNING, logger="groupvec.metrics"):
        assert math.isnan(mean_ap(results, band_gt, cfg, "object"))
    assert "no relevant" in caplog.text
    assert mean_ap(results, band_gt, cfg, "image") == 1.0


def test_mean_ap_two_relevant_ranks_one_and_three():
    gallery = [(1, 1, A), (2, 2, A), (3, 3, B)]
    annotations = {1: [(0, A)], 2: [(0, A)], 3: [(1, B)]}
    gt = make_gt(gallery, annotations, {99: 0})
    results = [RankedResult(99, hits_for(gt, [1, 3, 2]))]
    expected = (1.0 + 2.0 / 3.0) / 2.0
    assert mean_ap(results, gt, EvalConfig(), "object") == expected
    assert abs(expected - 0.8333) < 1e-4


def test_mean_ap_perfect_ranking_scores_one():
    gallery = [(1, 1, A), (2, 2, A), (3, 3, B)]
    annotations = {1: [(0, A)], 2: [(0, A)], 3: [(1, B)]}
    gt = make_gt(gallery, annotations, {99: 0})
    results = [RankedResult(99, hits_for(gt, [1, 2, 3]))]
    assert mean_ap(results, gt, EvalConfig(), "object") == 1.0
    assert mean_ap(results, gt, EvalConfig(), "image") == 1.0


def test_mean_ap_no_matches_retrieved():
    gallery = [(1, 1, A), (2, 2, A), (3, 3, B)]
    annotations = {1: [(0, A)], 2: [(0, A)], 3: [(1, B)]}
    gt = make_gt(gallery, annotations, {99: 0})
    results = [RankedResult(99, hits_for(gt, [3]))]
    assert mean_ap(results, gt, EvalConfig(), "object") == 0.0


def test_mean_ap_zero_relevant_query_excluded_with_warning(band_gt, caplog):
    cfg = EvalConfig()
    results = [
        RankedResult(99, hits_for(band_gt, [1, 2, 3])),
        RankedResult(4, hits_for(band_gt, [1, 2, 3])),  # class 1; object 4 is its only match
    ]
    with caplog.at_level(logging.WARNING, logger="groupvec.metrics"):
        value = mean_ap(results, band_gt, cfg, "object")
    assert "query 4" in caplog.text and "excluded" in caplog.text
    assert value == 1.0  # only query 99 scored; its single match ranks first


def test_mean_ap_topk_truncation(band_gt):
    results = [RankedResult(99, hits_for(band_gt, [3, 1]))]
    assert mean_ap(results, band_gt, EvalConfig(), "object") == 0.5
    assert mean_ap(results, band_gt, EvalConfig(topk=1), "object") == 0.0


def test_image_level_collapses_duplicate_images():
    # two class-0 hits in one image: object level sees ranks 1 and 2,
    # image level sees a single image at rank 1
    gallery = [(1, 1, A), (2, 1, A), (3, 2, B)]
    annotations = {1: [(0, A)], 2: [(1, B)]}
    gt = make_gt(gallery, annotations, {99: 0})
    results = [RankedResult(99, hits_for(gt, [1, 2, 3]))]
    assert mean_ap(results, gt, EvalConfig(), "object") == 1.0
    assert mean_ap(results, gt, EvalConfig(), "image") == 1.0
    assert recall_at_1(results, gt, EvalConfig(), "image") == 1.0


def test_image_map_can_drop_below_object_map():
    """Documented counterexample: with per-level relevant-count
    normalization, a loose-only match ranked late drags the image-level
    mAP below the object-level one.  See the per-scale report notes."""
    gallery = [(1, 1, A), (2, 2, A_SHIFT), (3, 3, FAR)]
    annotations = {1: [(0, A)], 2: [(0, A)], 3: [(0, A)]}
    gt = make_gt(gallery, annotations, {99: 0})
    results = [RankedResult(99, hits_for(gt, [1, 3, 2]))]
    cfg = EvalConfig()
    o_map = mean_ap(results, gt, cfg, "object")
    i_map = mean_ap(results, gt, cfg, "image")
    assert o_map == 1.0
    assert i_map == (1.0 + 2.0 / 3.0) / 2.0
    assert i_map < o_map


def test_recall_image_level_never_below_object_level():
    rng = np.random.default_rng(31)
    for _ in range(30):
        gt, results, cfg = library_instance(random_eval_instance(rng))
        r_obj = recall_at_1(results, gt, cfg, "object")
        r_img = recall_at_1(results, gt, cfg, "image")
        assert r_img >= r_obj


def test_scores_match_brute_force_oracle_exactly():
    rng = np.random.default_rng(95)
    for _ in range(25):
        inst = random_eval_instance(rng)
        gt, results, cfg = library_instance(inst)
        expected = eval_scores_loops(inst)
        for level in ("object", "image"):
            assert recall_at_1(results, gt, cfg, level) == expected[f"{level}_recall_at_1"]
            got = mean_ap(results, gt, cfg, level)
            want = expected[f"{level}_mean_ap"]
            assert got == want or (math.isnan(got) and math.isnan(want))


def test_scores_lie_in_unit_interval():
    rng = np.random.default_rng(4096)
    for _ in range(20):
        gt, results, cfg = library_instance(random_eval_instance(rng))
        for level in ("object", "image"):
            assert 0.0 <= recall_at_1(results, gt, cfg, level) <= 1.0
            v = mean_ap(results, gt, cfg, level)
            assert math.isnan(v) or 0.0 <= v <= 1.0


def test_eval_config_validation():
    with pytest.raises(ValueError, match="topk"):
        EvalConfig(topk=0)


def test_scale_report_buckets_and_format(band_gt):
    gallery = [(1, 1, A), (2, 2, A)]
    annotations = {1: [(0, A)], 2: [(0, A)]}
    gt = make_gt(gallery, annotations, {10: 0, 11: 0}, {10: 100.0, 11: 20000.0})
    results = [
        RankedResult(10, hits_for(gt, [1, 2])),
        RankedResult(11, hits_for(gt, [2, 1])),
    ]
    text = scale_report(results, gt, EvalConfig())
    lines = text.split("\n")
    assert lines[0] == "bin\tn\tO-R@1\tO-mAP\tI-R@1\tI-mAP"
    assert lines[1] == "[0,400)\t1\t100.00\t100.00\t100.00\t100.00"
    assert lines[5] == "[10000,inf)\t1\t100.00\t100.00\t100.00\t100.00"
    assert text.endswith("\n") and "\r" not in text


def test_scale_report_empty_bin_row():
    gallery = [(1, 1, A)]
    gt = make_gt(gallery, {1: [(0, A)]}, {10: 0}, {10: 100.0})
    results = [RankedResult(10, hits_for(gt, [1]))]
    lines = scale_report(results, gt, EvalConfig()).split("\n")
    assert lines[2] == "[400,900)\t0\t\t\t\t"


def test_scale_report_single_bin_equals_global(band_gt):
    """Every query falls in the first bin, so its recall is the global one."""
    cfg = EvalConfig()
    results = [
        RankedResult(99, hits_for(band_gt, [1, 2, 3])),
        RankedResult(99, hits_for(band_gt, [3, 1])),
    ]
    line = scale_report(results, band_gt, cfg).split("\n")[1]
    global_recall = recall_at_1(results, band_gt, cfg, "object")
    assert line.split("\t")[2] == f"{100.0 * global_recall:.2f}"


def test_scale_report_bin_weighted_recall_matches_global():
    rng = np.random.default_rng(61)
    inst = random_eval_instance(rng, max_queries=20, max_gallery=120)
    gt, results, cfg = library_instance(inst)
    text = scale_report(results, gt, cfg)
    total = 0.0
    n_total = 0
    for line in text.strip().split("\n")[1:]:
        cells = line.split("\t")
        n = int(cells[1])
        if n == 0:
            continue
        subset = [r for r in results if _in_bin(gt.query_area[r.query_id], cells[0])]
        total += n * recall_at_1(subset, gt, cfg, "object")
        n_total += n
    assert n_total == len(results)
    assert abs(total / n_total - recall_at_1(results, gt, cfg, "object")) < 1e-12


def _in_bin(area, label):
    lo, hi = label.strip("[)").split(",")
    return float(lo) <= area < float(hi)


def test_ground_truth_from_table():
    table, _ = synth_generate(SynthConfig(n_objects=40, seed=3))
    gt = GroundTruth.from_table(table)
    assert len(gt.gallery) == 40
    assert set(gt.query_class) == set(int(i) for i in table.ids)
    rec = table.get(int(table.ids[7]))
    assert gt.query_area[rec.object_id] == rec.area
    assert (rec.class_id, rec.bbox) in gt.boxes_by_image[rec.image_id]


def test_ground_truth_gallery_is_the_table_in_table_order():
    """``groupvec eval`` reads a store row as the gallery row of the same
    index, so with every object labeled the gallery is the table in order."""
    records = [
        ObjectRecord(oid, oid % 3, (float(oid), 0.0, 2.0, 1.0), 2.0, oid % 2)
        for oid in (12, 10, 40, 11)
    ]
    table = ObjectTable(records)
    gallery = GroundTruth.from_table(table).gallery
    assert [g.object_id for g in gallery] == table.ids.tolist() == [10, 11, 12, 40]
    assert [g.image_id for g in gallery] == table.image_ids.tolist()
    assert [g.bbox for g in gallery] == [r.bbox for r in table]
    synth, _ = synth_generate(SynthConfig(n_objects=40, seed=3))
    assert [g.object_id for g in GroundTruth.from_table(synth).gallery] == synth.ids.tolist()
