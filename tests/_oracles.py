"""Brute-force reference implementations used to pin expected test values.

Everything here is written as plain loops over rows, or as the plain
expression form that the library's fused code replaces, independent of the
library's vectorized kernels, so agreement is meaningful.  The oracles of
the screened and incremental sampler (``knn_rows``,
``farthest_point_loop``, ``lloyd_full``) measure with the library's own
distance kernels instead: they check the screen and the bookkeeping, not
a second sum.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from groupvec.backends import assign_nearest, cross_sqdist
from groupvec.losses import (
    _centroid_sim_fwd,
    _ckd_with_grads,
    relaxed_contrastive,
    self_distill,
)
from groupvec.sampling import NeighborTable, _farthest_point_init, kmeans, knn_table

log = logging.getLogger(__name__)


def fd_grad(fun, x, eps=1e-5):
    """Central finite differences of scalar ``fun`` at ``x``, elementwise."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = fun(x)
        flat[i] = keep - eps
        down = fun(x)
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * eps)
    return g


def max_rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def rel_dist_loops(f):
    f = np.asarray(f, dtype=np.float64)
    n = f.shape[0]
    e = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            e[i, j] = math.sqrt(float(((f[i] - f[j]) ** 2).sum()))
    d = np.zeros((n, n))
    for i in range(n):
        mu = sum(e[i, k] for k in range(n)) / n
        for j in range(n):
            if j != i:
                d[i, j] = e[i, j] / mu
    return d


def contrastive_loops(f, f_t, sigma, delta):
    d = rel_dist_loops(f)
    n = d.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            w = math.exp(-float(((f_t[i] - f_t[j]) ** 2).sum()) / sigma)
            total += w * d[i, j] ** 2
            total += (1.0 - w) * max(0.0, delta - d[i, j]) ** 2
    return total / n


def self_distill_loops(f_h, f_l):
    d_h = rel_dist_loops(f_h)
    d_l = rel_dist_loops(f_l)
    n = d_h.shape[0]
    total = 0.0
    for i in range(n):
        zp = [-d_l[i, j] for j in range(n) if j != i]
        zq = [-d_h[i, j] for j in range(n) if j != i]
        denp = sum(math.exp(v) for v in zp)
        denq = sum(math.exp(v) for v in zq)
        for a in range(n - 1):
            p = math.exp(zp[a]) / denp
            q = math.exp(zq[a]) / denq
            total += (p / n) * math.log(p / q)
    return total


def cross_entropy_rows_loops(p, q):
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    vals = []
    for i in range(p.shape[0]):
        vals.append(-sum(p[i, l] * math.log(q[i, l]) for l in range(p.shape[1])))
    return sum(vals) / len(vals)


def entropy_rows_loops(p):
    return cross_entropy_rows_loops(p, p)


def _overlap_1d(a0, a1, b0, b1):
    lo = a0 if a0 > b0 else b0
    hi = a1 if a1 < b1 else b1
    return hi - lo if hi > lo else 0.0


def iou_loops(box_a, box_b):
    ax, ay, aw, ah = box_a
    bx, by, bw, bh = box_b
    inter = _overlap_1d(ax, ax + aw, bx, bx + bw) * _overlap_1d(ay, ay + ah, by, by + bh)
    return inter / (aw * ah + bw * bh - inter)


def _passes(box, image_id, query_class, annotations, threshold):
    for cls, gt_box in annotations[image_id]:
        if cls == query_class and iou_loops(box, gt_box) >= threshold:
            return True
    return False


def eval_scores_loops(instance, iou_object=0.3, iou_image=1e-10):
    """Score an eval instance with plain loops: returns a dict with
    object/image recall@1 and mAP, mirroring the published protocol.

    The query object never counts as its own hit or relevant item; image
    level collapses the ranking to first occurrence per image and counts
    relevant images rather than objects.
    """
    by_id = {oid: (img, box, cls) for oid, img, box, cls in instance["gallery"]}
    by_image = instance["annotations"]
    topk = instance.get("topk")

    recalls = {"object": [], "image": []}
    aps = {"object": [], "image": []}
    for qid in instance["queries"]:
        _, _, qcls = by_id[qid]
        ranked = [oid for oid in instance["rankings"][qid] if oid != qid]
        if topk is not None:
            ranked = ranked[:topk]
        for level, thr in (("object", iou_object), ("image", iou_image)):
            if ranked:
                img, box, _ = by_id[ranked[0]]
                first = 1.0 if _passes(box, img, qcls, by_image, thr) else 0.0
            else:
                first = 0.0
            recalls[level].append(first)

            rel_objects = [
                oid
                for oid, img, box, cls in instance["gallery"]
                if oid != qid and _passes(box, img, qcls, by_image, thr)
            ]
            if level == "image":
                n_rel = len({by_id[oid][0] for oid in rel_objects})
                seen = set()
                scan = []
                for oid in ranked:
                    img = by_id[oid][0]
                    if img not in seen:
                        seen.add(img)
                        scan.append(oid)
            else:
                n_rel = len(rel_objects)
                scan = ranked
            if n_rel == 0:
                continue
            found = 0
            acc = 0.0
            for pos, oid in enumerate(scan, start=1):
                img, box, _ = by_id[oid]
                if _passes(box, img, qcls, by_image, thr):
                    found += 1
                    acc += found / pos
            aps[level].append(acc / n_rel)

    out = {}
    for level in ("object", "image"):
        out[f"{level}_recall_at_1"] = sum(recalls[level]) / len(recalls[level])
        vals = aps[level]
        out[f"{level}_mean_ap"] = sum(vals) / len(vals) if vals else math.nan
    return out


def _random_box(rng, lo=0.0, hi=80.0, smin=2.0, smax=40.0):
    return (
        float(rng.uniform(lo, hi)),
        float(rng.uniform(lo, hi)),
        float(rng.uniform(smin, smax)),
        float(rng.uniform(smin, smax)),
    )


def random_eval_instance(rng, max_queries=20, max_gallery=200):
    """A random retrieval-eval instance in the detector-vs-annotation
    regime: annotated boxes per image, gallery boxes jittered off them so
    every IoU band (miss, loose, tight) occurs, random rankings."""
    n_images = int(rng.integers(3, 13))
    n_classes = int(rng.integers(2, 7))
    annotations = {}
    for img in range(n_images):
        annotations[img] = [
            (int(rng.integers(n_classes)), _random_box(rng))
            for _ in range(int(rng.integers(1, 4)))
        ]
    n_gallery = int(rng.integers(10, max_gallery + 1))
    gallery = []
    for oid in range(n_gallery):
        img = int(rng.integers(n_images))
        cls = int(rng.integers(n_classes))
        if rng.random() < 0.6 and annotations[img]:
            # a detection: jitter an annotated box of this image
            _, (x, y, w, h) = annotations[img][int(rng.integers(len(annotations[img])))]
            shift = float(rng.uniform(0.0, 0.8)) * min(w, h)
            box = (
                x + float(rng.uniform(-shift, shift)),
                y + float(rng.uniform(-shift, shift)),
                max(1.0, w * float(rng.uniform(0.6, 1.4))),
                max(1.0, h * float(rng.uniform(0.6, 1.4))),
            )
        else:
            box = _random_box(rng)
        gallery.append((oid, img, box, cls))
    n_queries = int(rng.integers(1, max_queries + 1))
    queries = [int(q) for q in rng.choice(n_gallery, size=min(n_queries, n_gallery), replace=False)]
    rankings = {}
    for qid in queries:
        dist = rng.random(n_gallery)
        order = sorted(range(n_gallery), key=lambda i: (dist[i], i))
        rankings[qid] = order
    topk = None if rng.random() < 0.5 else int(rng.integers(1, n_gallery + 1))
    return {
        "gallery": gallery,
        "annotations": annotations,
        "queries": queries,
        "rankings": rankings,
        "topk": topk,
    }


def knn_loops(f, object_ids, group_of, k_neighbors):
    """Within-group k nearest neighbors by full sort of (distance, id)."""
    f = np.asarray(f, dtype=np.float64)
    out = {}
    for i, oid in enumerate(object_ids):
        cand = []
        for j, other in enumerate(object_ids):
            if j == i or group_of[j] != group_of[i]:
                continue
            d2 = float(((f[j] - f[i]) ** 2).sum())
            cand.append((d2, int(other)))
        cand.sort()
        take = min(k_neighbors, len(cand))
        out[int(oid)] = [oid2 for _, oid2 in cand[:take]]
    return out


def sqdist_rows(x, c):
    """The exact squared distances one row of x at a time."""
    return np.stack([np.einsum("jk,jk->j", row - c, row - c) for row in x])


def knn_rows(f, object_ids, group_of, k_neighbors=5, step=0):
    """Within-group kNN table measuring each row against its whole group:
    one ``cross_sqdist`` of the group against the row and one lexsort of
    (distance, id) per row, with no screen, and each row padded with -1 to
    the longest.  Same signature and result as ``sampling.knn_table``."""
    f = np.asarray(f, dtype=np.float64)
    object_ids = np.asarray(object_ids, dtype=np.int64)
    group_of = np.asarray(group_of)
    if not (f.shape[0] == object_ids.size == group_of.size):
        raise ValueError("rows, object ids and group assignment must align")
    neighbors = {}
    for g in np.unique(group_of):
        rows = np.flatnonzero(group_of == g)
        if rows.size < 2:
            raise ValueError(f"group {g} has fewer than two members")
        sub = f[rows]
        ids = object_ids[rows]
        take = min(k_neighbors, rows.size - 1)
        for local, oid in enumerate(ids):
            d2 = cross_sqdist(sub, sub[local][None, :]).ravel()
            order = np.lexsort((ids, d2))
            neighbors[int(oid)] = [int(ids[j]) for j in order if j != local][:take]
    ids = np.array(sorted(neighbors), dtype=np.int64)
    rows = np.full((ids.size, max(map(len, neighbors.values()), default=0)), -1, dtype=np.int64)
    for i, oid in enumerate(ids.tolist()):
        rows[i, : len(neighbors[oid])] = neighbors[oid]
    return NeighborTable(ids=ids, rows=rows, last_refresh_step=step)


def adam_step_expr(p, g, lr, weight_decay, m, v, t, beta1=0.9, beta2=0.999, eps=1e-8):
    """One adaptive-moment step with decoupled decay in expression form
    (a fresh array per operation).  Returns the new ``(p, m, v)``; ``t`` is
    the step count after the increment."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    p = p - lr * weight_decay * p
    return p, m, v


def adam_step_whole(p, g, lr, weight_decay, m, v, t, beta1=0.9, beta2=0.999, eps=1e-8):
    """The same step in place over the whole vectors through two
    whole-vector buffers; updates ``p``, ``m`` and ``v``.  ``t`` is the
    step count after the increment."""
    a = np.empty_like(g)
    b = np.empty_like(g)
    m *= beta1
    m += np.multiply(g, 1.0 - beta1, out=a)
    v *= beta2
    np.multiply(g, 1.0 - beta2, out=b)
    v += np.multiply(b, g, out=b)
    np.divide(m, 1.0 - beta1**t, out=a)
    a *= lr
    np.divide(v, 1.0 - beta2**t, out=b)
    np.sqrt(b, out=b)
    b += eps
    p -= np.divide(a, b, out=a)
    p -= np.multiply(p, lr * weight_decay, out=a)


def farthest_point_loop(f, n_clusters, rng):
    """Farthest-point seeding that measures every row against each new
    centre with ``cross_sqdist``.  Same signature and result as
    ``sampling._farthest_point_init``."""
    chosen = [int(rng.integers(f.shape[0]))]
    mind = cross_sqdist(f, f[chosen[-1]][None, :]).ravel()
    while len(chosen) < n_clusters:
        nxt = int(np.argmax(mind))
        chosen.append(nxt)
        mind = np.minimum(mind, cross_sqdist(f, f[nxt][None, :]).ravel())
    return f[np.array(chosen)].copy()


def cluster_sums_add_at(f, assign, n_clusters):
    """Per-cluster row sums by ``np.add.at``: each row added in row order
    into a +0.0 start."""
    sums = np.zeros((n_clusters, f.shape[1]))
    np.add.at(sums, assign, f)
    return sums


def lloyd_full(f, n_clusters, iters, rng):
    """Lloyd iterations that assign every row against every centroid and
    sum every cluster in each iteration.  Same signature and result as
    ``sampling._lloyd``."""
    cents = _farthest_point_init(f, n_clusters, rng)
    trace = []
    prev_assign = None
    n = f.shape[0]
    for _ in range(iters):
        assign, own = assign_nearest(f, cents)
        own = own.copy()
        trace.append(float(own.sum()))
        counts = np.bincount(assign, minlength=n_clusters)
        pending = list(np.flatnonzero(counts == 0))
        steals = 0
        while pending and steals < n:
            empty = pending.pop(0)
            j = int(np.argmax(own))
            old = int(assign[j])
            assign[j] = empty
            own[j] = 0.0
            counts[empty] += 1
            counts[old] -= 1
            steals += 1
            if counts[old] == 0:  # stealing may cascade
                pending.append(old)
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        sums = cluster_sums_add_at(f, assign, n_clusters)
        cents = sums / np.maximum(counts, 1)[:, None]
        prev_assign = assign
    return cents, trace


def refresh_composition(step, teacher, groups, provider, n_clusters=100,
                        k_neighbors=5, kmeans_iters=20, seed=0):
    """A firing refresh composed of the whole-corpus calls: the kNN table
    of ``teacher.embed`` of every object, and k-means of the stacked
    per-group ``head_embed``.  Returns ``(bank, table)``."""
    ids = groups.table.ids
    feats = provider.base_features(ids)
    table = knn_table(teacher.embed(feats), ids, groups.assignment, k_neighbors, step)
    head = np.empty((len(ids), teacher.cfg.student_dim))
    for m in range(groups.k):
        rows = groups.group_rows(m)
        if rows.size:
            head[rows] = teacher.head_embed(feats[rows], m)
    return kmeans(head, n_clusters, kmeans_iters, seed=seed + step, step=step), table


def total_loss_composition(f_h, f_l, f_t, centroids, n_shared, cfg):
    """``losses.total_loss`` composed of the public per-group losses: each
    term measures its own relative distances and teacher affinities.  Same
    signature and result."""
    parts = {"self": 0.0, "con_h": 0.0, "con_l": 0.0, "ckd": 0.0}
    d_fh, d_fl = [], []
    for m in range(len(f_h)):
        sl, gh, gl = self_distill(f_h[m], f_l[m], cfg)
        ch, gch = relaxed_contrastive(f_h[m], f_t[m], cfg)
        cl, gcl = relaxed_contrastive(f_l[m], f_t[m], cfg)
        parts["self"] += sl
        parts["con_h"] += ch
        parts["con_l"] += cl
        d_fh.append(gh + gch)
        d_fl.append(gl + gcl)
    if n_shared > 0:
        blocks = [np.asarray(b, dtype=np.float64)[-n_shared:] for b in f_h]
        ckd, gshared = _ckd_with_grads(blocks, centroids, cfg)
        parts["ckd"] = ckd
        for m in range(len(gshared)):
            d_fh[m][-n_shared:] += gshared[m]
    total = parts["self"] + parts["con_h"] + parts["con_l"] + parts["ckd"]
    return total, parts, d_fh, d_fl


def ema_update_per_name(teacher, student, momentum):
    """``encoder.ema_update`` as one in-place update per shared name."""
    for name, _ in student.params.shapes:
        tv = teacher.params.view(name)
        tv *= momentum
        tv += (1.0 - momentum) * student.params.view(name)


@dataclass(frozen=True)
class SimilarityMatrix:
    """Row-stochastic soft assignment of objects to centroids."""

    object_ids: np.ndarray
    values: np.ndarray

    def row_for(self, object_id):
        idx = np.flatnonzero(self.object_ids == object_id)
        if idx.size == 0:
            raise KeyError(f"object {object_id} has no similarity row")
        return self.values[idx[0]]


def centroid_similarity(f, c, cfg, object_ids=None):
    """Softmax of negated squared distances to centroids, floored and
    renormalized: the forward of the training loss's alignment term.

    Rows sum to one; every entry stays within a factor ``1 + L*epsilon_floor``
    of at least ``epsilon_floor``, keeping downstream logs finite.
    """
    sm, _ = _centroid_sim_fwd(f, c, cfg)
    if object_ids is None:
        object_ids = np.arange(sm.shape[0], dtype=np.int64)
    object_ids = np.asarray(object_ids, dtype=np.int64)
    if object_ids.shape != (sm.shape[0],):
        raise ValueError("one object id per row required")
    return SimilarityMatrix(object_ids=object_ids, values=sm)


def ckd_pair(s_a, s_b, shared):
    """Mean cross-row alignment cost over shared objects.

    The cross-entropy of the second group's rows under the first group's
    rows, so the value is bounded below by the mean row entropy of ``s_a``
    and is not symmetric in its arguments.
    """
    shared = list(shared)
    if not shared:
        log.warning("no shared objects between the two groups; pair term is 0")
        return 0.0
    p = np.stack([s_a.row_for(i) for i in shared])
    q = np.stack([s_b.row_for(i) for i in shared])
    return float(np.mean(-(p * np.log(q)).sum(axis=1)))


def ckd_total(mats, shared):
    """Mean pair alignment cost over the k(k-1)/2 unordered group pairs.

    Each unordered pair (a, b) with a < b contributes one directed term.
    """
    k = len(mats)
    if k < 2:
        log.warning("cross-group alignment needs at least two groups; returning 0")
        return 0.0
    vals = [ckd_pair(mats[a], mats[b], shared) for a in range(k) for b in range(a + 1, k)]
    return float(sum(vals) / len(vals))
