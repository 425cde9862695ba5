"""Correctness checks, each against a computation made here, apart from
the program, or against a property the method must have.

Every check returns a list of problems; an empty list means it passed.
Distances are recomputed in float64 from exact coordinate differences,
so two candidates may swap places only when their distances agree to
rounding (``RTOL``).
"""

from __future__ import annotations

import math

import numpy as np

RTOL = 1e-9
BIN_EDGES = (0.0, 400.0, 900.0, 3600.0, 10000.0, math.inf)
IOU_OBJECT = 0.3
IOU_IMAGE = 1e-10


def exact_dist(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    diff = np.asarray(rows, dtype=np.float64) - np.asarray(q, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _tol(a, b):
    return RTOL * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)


def _same_up_to_ties(got_ids, got_true_d, want_ids, want_d, label):
    """Position by position: the expected id, or another id whose exact
    distance (``got_true_d``, NaN for an unknown id) ties the expected one
    to rounding."""
    got_ids, want_ids = np.asarray(got_ids, dtype=np.int64), np.asarray(want_ids, dtype=np.int64)
    if got_ids.size != want_ids.size:
        return [f"{label}: {got_ids.size} entries, {want_ids.size} expected"]
    if np.unique(got_ids).size != got_ids.size:
        return [f"{label}: repeated id"]
    want_d = np.asarray(want_d, dtype=np.float64)
    true_d = np.asarray(got_true_d, dtype=np.float64)
    bad = np.flatnonzero((got_ids != want_ids) & ~(np.abs(true_d - want_d) <= _tol(true_d, want_d)))
    if bad.size:
        j = bad[0]
        return [f"{label}: position {j} holds {got_ids[j]}, expected {want_ids[j]} at {float(want_d[j])!r}"]
    return []


def _distances_match(got_d, want_d, label):
    got_d, want_d = np.asarray(got_d, dtype=np.float64), np.asarray(want_d, dtype=np.float64)
    bad = np.flatnonzero(~(np.abs(got_d - want_d) <= _tol(got_d, want_d)))
    if bad.size:
        j = bad[0]
        return [f"{label}: distance at position {j} is {float(got_d[j])!r}, expected {float(want_d[j])!r}"]
    return []


# ---- training -------------------------------------------------------------

def check_finite_log(lines) -> list[str]:
    for line in lines:
        fields = line.split("\t")
        if len(fields) != 7 or not all(math.isfinite(float(v)) for v in fields[1:]):
            return [f"loss log line not 7 finite fields: {line!r}"]
    return []


def check_resume(uninterrupted, resumed) -> list[str]:
    """The resumed run's loss-log lines are byte-identical."""
    if len(uninterrupted) != len(resumed):
        return [f"resumed run logged {len(resumed)} lines, {len(uninterrupted)} expected"]
    for n, (a, b) in enumerate(zip(uninterrupted, resumed)):
        if a != b:
            return [f"resumed loss-log line {n} is {b!r}, expected {a!r}"]
    return []


def check_ema(old: dict, teacher, student, momentum: float) -> list[str]:
    """Teacher's shared parameters are momentum*old + (1-momentum)*student."""
    for name, before in old.items():
        want = momentum * before + (1.0 - momentum) * student.params.view(name)
        if not np.allclose(teacher.params.view(name), want, rtol=1e-12, atol=1e-15):
            return [f"EMA update of {name} is off"]
    return []


def teacher_wide(params, feats: np.ndarray, trunk_layers: int) -> np.ndarray:
    """The teacher's wide embedding, computed from its parameter views."""
    a = np.asarray(feats, dtype=np.float64)
    for layer in range(trunk_layers):
        a = np.maximum(a @ params.view(f"trunk{layer}.w") + params.view(f"trunk{layer}.b"), 0.0)
    return a @ params.view("proj.w") + params.view("proj.b")


def brute_knn(f, ids, group_of, k, slack=8):
    """Within-group kNN, self excluded, ordered by (exact distance, id).

    Candidates come from the Gram form; the nearest ``k + slack`` of each
    row are then measured exactly.
    """
    f = np.asarray(f, dtype=np.float64)
    out = {}
    for g in np.unique(group_of):
        rows = np.flatnonzero(group_of == g)
        sub = f[rows]
        sq = (sub * sub).sum(axis=1)
        gram = sq[:, None] + sq[None, :] - 2.0 * (sub @ sub.T)
        np.fill_diagonal(gram, np.inf)
        take = min(k, rows.size - 1)
        width = min(take + slack, rows.size - 1)
        cand = np.argpartition(gram, width - 1, axis=1)[:, :width]
        for local in range(rows.size):
            c = cand[local]
            d = exact_dist(sub[c], sub[local])
            order = np.lexsort((ids[rows[c]], d))[:take]
            out[int(ids[rows[local]])] = (ids[rows[c[order]]], d[order])
    return out


def check_knn(neighbors: dict, f, ids, group_of, k) -> list[str]:
    ids = np.asarray(ids, dtype=np.int64)
    want = brute_knn(f, ids, group_of, k)
    row_of = {int(o): r for r, o in enumerate(ids)}
    if set(neighbors) != set(want):
        return ["neighbour table does not cover every object"]
    for oid, (w_ids, w_d) in want.items():
        got = [int(x) for x in neighbors[oid]]
        if oid in got or any(x not in row_of or group_of[row_of[x]] != group_of[row_of[oid]]
                             for x in got):
            return [f"kNN row {oid}: self, an unknown id or another group's object listed"]
        got_d = exact_dist(f[[row_of[x] for x in got]], f[row_of[oid]])
        problems = _same_up_to_ties(got, got_d, w_ids, w_d, f"kNN row {oid}")
        if problems:
            return problems
    return []


def check_bank(centroids, clusters, width) -> list[str]:
    c = np.asarray(centroids)
    if c.shape != (clusters, width) or not np.all(np.isfinite(c)):
        return [f"centroid bank has shape {c.shape}, ({clusters}, {width}) finite expected"]
    return []


# ---- search -----------------------------------------------------------------

def brute_rankings(queries: dict, vectors, ids) -> dict:
    """qid -> (exact float64 distance to every stored row, row order by
    (distance, id)).  Each query is rounded to the store's float32 grid
    first, as a stored row must come back at distance 0."""
    v = np.asarray(vectors, dtype=np.float64)
    out = {}
    for qid, q in queries.items():
        d = exact_dist(v, np.asarray(q, dtype=np.float32).astype(np.float64))
        out[qid] = (d, np.lexsort((ids, d)))
    return out


def _true_dist(row_of: dict, got_ids, dist_of_row):
    """Exact distance of each listed id; NaN for an id not in the store."""
    rows = np.fromiter((row_of.get(int(i), -1) for i in got_ids), dtype=np.int64,
                       count=len(got_ids))
    return np.where(rows >= 0, dist_of_row(np.maximum(rows, 0)), np.nan)


def parse_rankings(path):
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            qid, ranked = line.rstrip("\n").split("\t")
            pairs = [item.split(":") for item in ranked.split(",")] if ranked else []
            out.append((int(qid), [int(o) for o, _ in pairs], [float(d) for _, d in pairs]))
    return out


def check_rankings(parsed, brute: dict, ids) -> list[str]:
    """Every line is the brute-force full ranking of its query."""
    if [qid for qid, _, _ in parsed] != list(brute):
        return ["rankings file does not list the expected queries in order"]
    row_of = {int(o): r for r, o in enumerate(ids)}
    for qid, got_ids, got_d in parsed:
        d, order = brute[qid]
        label = f"query {qid}"
        problems = (_distances_match(got_d, d[order], label) if len(got_d) == len(order) else
                    [f"{label}: {len(got_ids)} hits, the whole store of {len(ids)} expected"])
        problems = problems or _same_up_to_ties(
            got_ids, _true_dist(row_of, got_ids, d.__getitem__), ids[order], d[order], label)
        if problems:
            return problems
    return []


# ---- scoring ----------------------------------------------------------------

def _iou_rows(a, b):
    """IoU of each box in a (n,4) with each box in b (m,4), x/y/w/h."""
    ix = np.maximum(0.0, np.minimum(a[:, None, 0] + a[:, None, 2], b[None, :, 0] + b[None, :, 2])
                    - np.maximum(a[:, None, 0], b[None, :, 0]))
    iy = np.maximum(0.0, np.minimum(a[:, None, 1] + a[:, None, 3], b[None, :, 1] + b[None, :, 3])
                    - np.maximum(a[:, None, 1], b[None, :, 1]))
    inter = ix * iy
    union = (a[:, 2] * a[:, 3])[:, None] + (b[:, 2] * b[:, 3])[None, :] - inter
    return inter / union


def pass_tables(image_ids, boxes, classes, n_classes):
    """passes[level][row, c]: the object at ``row`` overlaps a class-c box
    of its own image at the level's IoU threshold."""
    n = len(image_ids)
    out = {"object": np.zeros((n, n_classes), bool), "image": np.zeros((n, n_classes), bool)}
    for img in np.unique(image_ids):
        rows = np.flatnonzero(image_ids == img)
        iou = _iou_rows(boxes[rows], boxes[rows])
        for level, thr in (("object", IOU_OBJECT), ("image", IOU_IMAGE)):
            ok = iou >= thr
            for c in np.unique(classes[rows]):
                out[level][rows, c] = ok[:, classes[rows] == c].any(axis=1)
    return out


def score_cells(rankings: dict, table_ids, image_ids, boxes, classes, areas):
    """Expected report rows: [(label, n, O-R@1, O-mAP, I-R@1, I-mAP)] with
    scores as fractions (NaN when a bin has no query with relevant items)."""
    n_classes = int(classes.max()) + 1
    passes = pass_tables(image_ids, boxes, classes, n_classes)
    row_of = {int(o): r for r, o in enumerate(table_ids)}
    per_query = {}
    for qid, ranked in rankings.items():
        qr = row_of[qid]
        c = classes[qr]
        hits = np.searchsorted(table_ids, ranked)  # table ids ascend
        hits = hits[hits != qr]
        scores = []
        for level in ("object", "image"):
            ok = passes[level][:, c].copy()
            ok[qr] = False
            if level == "image":
                n_rel = np.unique(image_ids[ok]).size
                _, first = np.unique(image_ids[hits], return_index=True)
                ranked_rows = hits[np.sort(first)]
            else:
                n_rel = int(ok.sum())
                ranked_rows = hits
            good = passes[level][ranked_rows, c]
            r1 = float(good[0]) if good.size else 0.0
            if n_rel:
                pos = np.flatnonzero(good) + 1.0
                ap = float((np.arange(1, pos.size + 1) / pos).sum() / n_rel)
            else:
                ap = None
            scores += [r1, ap]
        per_query[qid] = scores
    rows = []
    for lo, hi in zip(BIN_EDGES, BIN_EDGES[1:]):
        label = f"[{lo:g},{'inf' if math.isinf(hi) else f'{hi:g}'})"
        qs = [q for q in rankings if lo <= areas[row_of[q]] < hi]
        cells = [label, len(qs)]
        for col in range(4):
            vals = [per_query[q][col] for q in qs if per_query[q][col] is not None]
            cells.append(float(np.mean(vals)) if vals else math.nan)
        rows.append(cells)
    return rows


def check_report(text: str, expected) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    if lines[0].split("\t") != ["bin", "n", "O-R@1", "O-mAP", "I-R@1", "I-mAP"]:
        return ["report header differs"]
    if len(lines) - 1 != len(expected):
        return [f"report has {len(lines) - 1} bins, {len(expected)} expected"]
    for line, (label, n, *scores) in zip(lines[1:], expected):
        cells = line.split("\t")
        if cells[0] != label or cells[1] != str(n):
            return [f"report row {line!r}: expected bin {label} with n={n}"]
        for text_cell, want in zip(cells[2:], scores):
            if n == 0 or math.isnan(want):
                if text_cell != "":
                    return [f"report row {label}: {text_cell!r} where an empty cell is expected"]
            elif text_cell == "" or abs(float(text_cell) - 100.0 * want) > 0.005 + 1e-9:
                return [f"report row {label}: {text_cell!r}, expected {100.0 * want:.4f} to two decimals"]
    return []
