"""Retrieval evaluation: IoU matching, Recall@1, mAP, per-scale reports.

Two scoring levels share one ranking: object level gates hits at IoU 0.3,
image level first collapses the ranking to images (best hit each) and
gates at IoU 1e-10, i.e. any positive overlap.  Average precision divides
by the query's relevant-item count, so a perfect ranking scores 1.

Scoring works on gallery rows, not on hit objects.  For each IoU
threshold ``GroundTruth`` builds, once, a pass table of gallery rows x
classes: whether the row overlaps a box of that class in its own image.
``score_rows`` reads a query's hits, its relevant count and its
image-level ranking off that table.  ``iou`` and ``hit_test`` are the
scalar definitions the table reproduces operation for operation.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

log = logging.getLogger(__name__)

# The scoring protocol: the IoU gate of each level and the query-area bins
# of the report.
IOU_GATES = {"object": 0.3, "image": 1e-10}
SCALE_BINS = (
    (0.0, 400.0),
    (400.0, 900.0),
    (900.0, 3600.0),
    (3600.0, 10000.0),
    (10000.0, math.inf),
)

REPORT_COLUMNS = ("bin", "n", "O-R@1", "O-mAP", "I-R@1", "I-mAP")
LEVELS = tuple(IOU_GATES)


@dataclass(frozen=True)
class EvalConfig:
    topk: int | None = None

    def __post_init__(self):
        if self.topk is not None and self.topk < 1:
            raise ValueError("topk must be positive")


@dataclass(frozen=True)
class GalleryObject:
    object_id: int
    image_id: int
    bbox: tuple[float, float, float, float]


def _lookup(keys: np.ndarray, values: np.ndarray):
    """Position of each value in the sorted ``keys``, and whether it is there."""
    pos = np.searchsorted(keys, values)
    found = np.zeros(pos.shape, dtype=bool)
    inside = pos < keys.size
    found[inside] = keys[pos[inside]] == values[inside]
    return pos, found


@dataclass(frozen=True)
class PassTable:
    """Which gallery rows pass for which class at one IoU threshold:
    ``passes[row, col]`` holds when the row overlaps a box of class
    ``classes[col]`` in its own image at the threshold."""

    classes: np.ndarray  # (c,) sorted class ids of the annotations
    passes: np.ndarray  # (n, c) bool

    def column(self, class_id: int) -> int:
        """Column of a class, or -1 when no annotation has it."""
        pos, found = _lookup(self.classes, np.array([class_id], dtype=np.int64))
        return int(pos[0]) if found[0] else -1


@dataclass(frozen=True)
class GroundTruth:
    boxes_by_image: dict[int, list[tuple[int, tuple[float, float, float, float]]]]
    query_class: dict[int, int]
    query_area: dict[int, float] = field(default_factory=dict)
    gallery: tuple[GalleryObject, ...] = ()

    @classmethod
    def from_table(cls, table) -> "GroundTruth":
        """Build from an ObjectTable whose records carry class ids.

        Unlabeled objects are left out of both the box index and the
        gallery; they can be neither queries nor relevant items.
        """
        boxes: dict[int, list] = {}
        qclass: dict[int, int] = {}
        qarea: dict[int, float] = {}
        gallery = []
        for rec in table:
            if rec.class_id is None:
                continue
            boxes.setdefault(rec.image_id, []).append((rec.class_id, rec.bbox))
            qclass[rec.object_id] = rec.class_id
            qarea[rec.object_id] = rec.area
            gallery.append(GalleryObject(rec.object_id, rec.image_id, rec.bbox))
        return cls(
            boxes_by_image=boxes,
            query_class=qclass,
            query_area=qarea,
            gallery=tuple(gallery),
        )

    # Derived arrays, built on first use; the fields must not change after.

    @cached_property
    def _id_index(self) -> tuple[np.ndarray, np.ndarray]:
        ids = np.array([g.object_id for g in self.gallery], dtype=np.int64)
        order = np.argsort(ids, kind="stable")
        return ids[order], order

    @cached_property
    def gallery_images(self) -> np.ndarray:
        return np.array([g.image_id for g in self.gallery], dtype=np.int64)

    @cached_property
    def _pass_tables(self) -> dict[float, PassTable]:
        return {}

    def rows_of(self, object_ids) -> np.ndarray:
        """Gallery row of each object id; ValueError for an id not in it."""
        try:
            ids = np.asarray(object_ids, dtype=np.int64).reshape(-1)
        except OverflowError:
            raise ValueError("object id outside the int64 range") from None
        sorted_ids, order = self._id_index
        pos, found = _lookup(sorted_ids, ids)
        if not found.all():
            raise ValueError(f"object {int(ids[~found][0])} is not in the gallery")
        return order[pos]

    def row_of(self, object_id: int) -> int:
        """Gallery row of an object id, or -1 when it is not in the gallery."""
        sorted_ids, order = self._id_index
        pos, found = _lookup(sorted_ids, np.array([object_id], dtype=np.int64))
        return int(order[pos[0]]) if found[0] else -1

    def pass_table(self, threshold: float) -> PassTable:
        """The pass table at one IoU threshold, built once."""
        if threshold not in self._pass_tables:
            self._pass_tables[threshold] = _build_pass_table(self, threshold)
        return self._pass_tables[threshold]


def iou(box_a, box_b) -> float:
    """Intersection over union of two (x, y, w, h) boxes."""
    ax, ay, aw, ah = box_a
    bx, by, bw, bh = box_b
    if aw <= 0 or ah <= 0 or bw <= 0 or bh <= 0:
        raise ValueError("boxes must have positive width and height")
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union


def iou_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou(a[i], b[i])`` for every row of two (n, 4) box arrays, with the
    same floating-point operations in the same order."""
    if np.any(a[:, 2:] <= 0) or np.any(b[:, 2:] <= 0):
        raise ValueError("boxes must have positive width and height")
    ax, ay, aw, ah = a.T
    bx, by, bw, bh = b.T
    ix = np.maximum(0.0, np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx))
    iy = np.maximum(0.0, np.minimum(ay + ah, by + bh) - np.maximum(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union


def hit_test(hit, query_class: int, gt: GroundTruth, threshold: float) -> bool:
    """True iff some ground-truth box in the hit's image shares the query
    class and overlaps the hit's box with IoU at or above the threshold."""
    if hit.image_id not in gt.boxes_by_image:
        raise ValueError(f"image {hit.image_id} missing from ground truth")
    for class_id, box in gt.boxes_by_image[hit.image_id]:
        if class_id == query_class and iou(hit.bbox, box) >= threshold:
            return True
    return False


def _build_pass_table(gt: GroundTruth, threshold: float) -> PassTable:
    """One vectorized IoU over every (gallery row, annotation of its image)
    pair, gated at the threshold and folded into rows x classes."""
    images = sorted(gt.boxes_by_image)
    anns = [a for img in images for a in gt.boxes_by_image[img]]
    counts = np.array([len(gt.boxes_by_image[img]) for img in images], dtype=np.int64)
    ann_class = np.array([c for c, _ in anns], dtype=np.int64)
    ann_box = np.array([b for _, b in anns], dtype=np.float64).reshape(-1, 4)
    gal_box = np.array([g.bbox for g in gt.gallery], dtype=np.float64).reshape(-1, 4)
    classes = np.unique(ann_class)
    image_pos, found = _lookup(np.array(images, dtype=np.int64), gt.gallery_images)
    if not found.all():
        raise ValueError(f"image {int(gt.gallery_images[~found][0])} missing from ground truth")

    # annotations are laid out image by image; row r pairs with the
    # counts[image_pos[r]] annotations starting at its image's offset
    per_row = counts[image_pos]
    first_ann = (np.cumsum(counts) - counts)[image_pos]
    first_pair = np.cumsum(per_row) - per_row
    pair_row = np.repeat(np.arange(len(gt.gallery)), per_row)
    pair_ann = np.repeat(first_ann - first_pair, per_row) + np.arange(pair_row.size)
    ok = iou_rows(gal_box[pair_row], ann_box[pair_ann]) >= threshold

    passes = np.zeros((len(gt.gallery), classes.size), dtype=bool)
    passes[pair_row[ok], np.searchsorted(classes, ann_class[pair_ann[ok]])] = True
    return PassTable(classes=classes, passes=passes)


def _threshold(level: str) -> float:
    if level not in IOU_GATES:
        raise ValueError(f"unknown level {level!r}; expected 'object' or 'image'")
    return IOU_GATES[level]


def score_rows(gt: GroundTruth, cfg: EvalConfig, level: str, query_id, rows):
    """Score one query at one level from the gallery rows of its ranking,
    best first.

    Returns whether the top hit passes the level's IoU gate, and the
    average precision, or None when the query has no relevant items.  The
    query's own row is dropped from the ranking, then topk applies; image
    level keeps each image's first (best) row.
    """
    table = gt.pass_table(_threshold(level))
    col = table.column(gt.query_class[query_id])
    query_row = gt.row_of(query_id)
    rows = np.asarray(rows, dtype=np.int64)
    if query_row >= 0:
        rows = rows[rows != query_row]
    if cfg.topk is not None:
        rows = rows[: cfg.topk]
    if col < 0:
        return False, None
    relevant = table.passes[:, col].copy()
    if query_row >= 0:
        relevant[query_row] = False
    if level == "image":
        n_relevant = np.unique(gt.gallery_images[relevant]).size
        _, first = np.unique(gt.gallery_images[rows], return_index=True)
        rows = rows[np.sort(first)]
    else:
        n_relevant = int(relevant.sum())
    hits = table.passes[rows, col]
    top = bool(hits.size) and bool(hits[0])
    if n_relevant == 0:
        return top, None
    pos = np.flatnonzero(hits) + 1
    # precision at each hit, summed in rank order (a running sum, not numpy's
    # pairwise sum) so that AP equals a loop over the ranking bit for bit
    acc = float(np.cumsum(np.arange(1, pos.size + 1) / pos)[-1]) if pos.size else 0.0
    return top, acc / n_relevant


def _scores(results, gt: GroundTruth, cfg: EvalConfig, level: str):
    if not results:
        raise ValueError("need at least one query result")
    return [
        score_rows(gt, cfg, level, res.query_id, gt.rows_of([h.object_id for h in res.hits]))
        for res in results
    ]


def _recall(tops) -> float:
    return sum(1.0 for top in tops if top) / len(tops)


def _mean_ap(query_ids, aps):
    """Mean over the queries with an AP, in query order, and the ids of
    the queries left out."""
    values = [ap for ap in aps if ap is not None]
    excluded = [qid for qid, ap in zip(query_ids, aps) if ap is None]
    return (sum(values) / len(values) if values else math.nan), excluded


def _warn_excluded(level: str, excluded) -> None:
    if excluded:
        first = ", ".join(f"query {qid}" for qid in excluded[:5])
        more = ", ..." if len(excluded) > 5 else ""
        log.warning(
            "%s level: excluded %d queries with no relevant gallery items (first: %s%s)",
            level, len(excluded), first, more,
        )


def recall_at_1(results, gt: GroundTruth, cfg: EvalConfig, level: str) -> float:
    """Fraction of queries whose best hit passes the level's IoU gate.

    At image level the best hit of the top-ranked image is scored, which
    is the overall best hit; a query with no hits scores 0.
    """
    return _recall([top for top, _ in _scores(results, gt, cfg, level)])


def mean_ap(results, gt: GroundTruth, cfg: EvalConfig, level: str) -> float:
    """Mean average precision over queries with at least one relevant item.

    Queries with none are excluded, with one warning per call that counts
    them; if every query is excluded the result is NaN.
    """
    aps = [ap for _, ap in _scores(results, gt, cfg, level)]
    value, excluded = _mean_ap([res.query_id for res in results], aps)
    _warn_excluded(level, excluded)
    return value


def _fmt_pct(value: float) -> str:
    return "" if math.isnan(value) else f"{100.0 * value:.2f}"


def _bin_label(lo: float, hi: float) -> str:
    hi_s = "inf" if math.isinf(hi) else f"{hi:g}"
    return f"[{lo:g},{hi_s})"


class ScaleReport:
    """Per-area-bin score table, filled one query at a time.

    ``add`` scores a query at both levels and keeps only the scores, so
    memory grows with the number of queries, not with their rankings.
    """

    def __init__(self, gt: GroundTruth, cfg: EvalConfig):
        self.gt = gt
        self.cfg = cfg
        self._scored = []  # (query id, ((top, ap) per level))

    def add(self, query_id, rows) -> None:
        """Score a query from the gallery rows of its ranking, best first."""
        scores = tuple(score_rows(self.gt, self.cfg, level, query_id, rows) for level in LEVELS)
        self._scored.append((query_id, scores))

    def text(self) -> str:
        """Tab separated, percentages to 2 decimals; the queries excluded
        from mAP are logged once per level."""
        rows = ["\t".join(REPORT_COLUMNS)]
        excluded = {level: [] for level in LEVELS}
        for lo, hi in SCALE_BINS:
            subset = [(q, s) for q, s in self._scored if lo <= self.gt.query_area[q] < hi]
            if not subset:
                rows.append("\t".join([_bin_label(lo, hi), "0", "", "", "", ""]))
                continue
            cells = [_bin_label(lo, hi), str(len(subset))]
            for i, level in enumerate(LEVELS):
                value, missing = _mean_ap([q for q, _ in subset], [s[i][1] for _, s in subset])
                excluded[level] += missing
                cells.append(_fmt_pct(_recall([s[i][0] for _, s in subset])))
                cells.append(_fmt_pct(value))
            rows.append("\t".join(cells))
        for level in LEVELS:
            _warn_excluded(level, excluded[level])
        return "\n".join(rows) + "\n"


def scale_report(results, gt: GroundTruth, cfg: EvalConfig) -> str:
    """Per-area-bin score table of ranked results, as ``ScaleReport.text``."""
    report = ScaleReport(gt, cfg)
    for res in results:
        report.add(res.query_id, gt.rows_of([h.object_id for h in res.hits]))
    return report.text()
