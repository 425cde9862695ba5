"""Array scoring: pass tables, the per-query scorer, and its agreement with
the loop oracle and the scalar helpers."""

import logging
import math

import numpy as np
import pytest

from groupvec.metrics import (
    LEVELS,
    EvalConfig,
    GalleryObject,
    GroundTruth,
    ScaleReport,
    iou,
    iou_rows,
    mean_ap,
    score_rows,
)
from groupvec.retrieval import Hit, RankedResult

from _oracles import eval_scores_loops, random_eval_instance

A = (0.0, 0.0, 10.0, 10.0)
B = (30.0, 30.0, 10.0, 10.0)


def instance_gt(inst):
    return GroundTruth(
        boxes_by_image={img: list(anns) for img, anns in inst["annotations"].items()},
        query_class={oid: cls for oid, _, _, cls in inst["gallery"]},
        query_area={oid: box[2] * box[3] for oid, _, box, _ in inst["gallery"]},
        gallery=tuple(GalleryObject(oid, img, box) for oid, img, box, _ in inst["gallery"]),
    )


def test_array_scorer_equals_loop_oracle_exactly():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        inst = random_eval_instance(rng)
        gt = instance_gt(inst)
        n_gallery = len(inst["gallery"])
        for topk in (None, int(rng.integers(1, n_gallery + 1))):
            expected = eval_scores_loops(dict(inst, topk=topk))
            cfg = EvalConfig(topk=topk)
            for level in LEVELS:
                scores = [
                    score_rows(gt, cfg, level, qid, gt.rows_of(inst["rankings"][qid]))
                    for qid in inst["queries"]
                ]
                recall = sum(1.0 for top, _ in scores if top) / len(scores)
                aps = [ap for _, ap in scores if ap is not None]
                m = sum(aps) / len(aps) if aps else math.nan
                assert recall == expected[f"{level}_recall_at_1"]
                want = expected[f"{level}_mean_ap"]
                assert m == want or (math.isnan(m) and math.isnan(want))


def test_iou_rows_matches_scalar_iou_exactly():
    rng = np.random.default_rng(8)
    a = np.column_stack([rng.uniform(0, 50, 500), rng.uniform(0, 50, 500),
                         rng.uniform(1, 30, 500), rng.uniform(1, 30, 500)])
    b = np.column_stack([rng.uniform(0, 50, 500), rng.uniform(0, 50, 500),
                         rng.uniform(1, 30, 500), rng.uniform(1, 30, 500)])
    b[:50] = a[:50]  # identical boxes
    b[50:100, 0] = a[50:100, 0] + a[50:100, 2]  # touching edges
    got = iou_rows(a, b)
    assert got.tolist() == [iou(tuple(x), tuple(y)) for x, y in zip(a.tolist(), b.tolist())]
    with pytest.raises(ValueError, match="positive width"):
        iou_rows(np.array([[0.0, 0.0, 0.0, 1.0]]), np.array([A]))


def test_ranked_id_not_in_gallery_raises():
    gt = GroundTruth(
        boxes_by_image={1: [(0, A)], 2: [(1, B)]},
        query_class={1: 0, 2: 1},
        query_area={1: 100.0, 2: 100.0},
        gallery=(GalleryObject(1, 1, A), GalleryObject(2, 2, B)),
    )
    with pytest.raises(ValueError, match="object 7 is not in the gallery"):
        gt.rows_of([2, 7])
    stray = RankedResult(1, (Hit(2, 0.0, 2, B), Hit(7, 1.0, 1, A)))
    with pytest.raises(ValueError, match="object 7"):
        mean_ap([stray], gt, EvalConfig(), "object")
    assert gt.row_of(7) == -1 and gt.row_of(2) == 1


def test_gallery_image_without_annotations_is_rejected():
    gt = GroundTruth(
        boxes_by_image={1: [(0, A)]},
        query_class={1: 0, 2: 0},
        gallery=(GalleryObject(1, 1, A), GalleryObject(2, 5, A)),
    )
    with pytest.raises(ValueError, match="image 5 missing"):
        score_rows(gt, EvalConfig(), "object", 1, [1])


def test_pass_table_is_built_once_per_threshold():
    gt = GroundTruth(
        boxes_by_image={1: [(0, A)]}, query_class={1: 0}, gallery=(GalleryObject(1, 1, A),)
    )
    table = gt.pass_table(0.3)
    assert gt.pass_table(0.3) is table
    assert gt.pass_table(1e-10) is not table
    assert table.passes.tolist() == [[True]]


def test_query_class_without_annotations_scores_zero_and_is_excluded():
    gt = GroundTruth(
        boxes_by_image={1: [(0, A)]},
        query_class={1: 0, 9: 3},
        gallery=(GalleryObject(1, 1, A),),
    )
    assert score_rows(gt, EvalConfig(), "object", 9, [0]) == (False, None)
    assert score_rows(gt, EvalConfig(), "image", 9, [0]) == (False, None)


def test_excluded_queries_are_warned_once_per_call(caplog):
    # query 2 is the only class-1 object; no box has class 2; query 1 finds
    # its one relevant item, object 5, at rank 4
    gallery = [(1, 1, A), (2, 2, B), (3, 3, B), (4, 4, B), (5, 5, A)]
    gt = GroundTruth(
        boxes_by_image={1: [(0, A)], 2: [(1, B)], 3: [(0, A)], 4: [(0, A)], 5: [(0, A)]},
        query_class={1: 0, 2: 1, 3: 2, 4: 2, 5: 0},
        query_area={oid: 100.0 for oid in range(1, 6)},
        gallery=tuple(GalleryObject(*g) for g in gallery),
    )
    by_id = {g.object_id: g for g in gt.gallery}
    results = [
        RankedResult(q, tuple(Hit(o, 0.0, by_id[o].image_id, by_id[o].bbox) for o in (1, 2, 3, 4, 5)))
        for q in (2, 3, 1, 4)
    ]
    with caplog.at_level(logging.WARNING, logger="groupvec.metrics"):
        assert mean_ap(results, gt, EvalConfig(), "object") == 0.25
    assert len(caplog.records) == 1
    message = caplog.records[0].getMessage()
    assert "excluded 3 queries with no relevant" in message
    assert "query 2, query 3, query 4" in message

    caplog.clear()
    report = ScaleReport(gt, EvalConfig())
    for res in results:
        report.add(res.query_id, gt.rows_of([h.object_id for h in res.hits]))
    with caplog.at_level(logging.WARNING, logger="groupvec.metrics"):
        report.text()
    # one line per level, across all bins
    assert [r.getMessage().split(":")[0] for r in caplog.records] == ["object level", "image level"]
