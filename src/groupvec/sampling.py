"""Centroid maintenance, within-group nearest neighbors, and batch assembly.

The sampler owns the slow-moving state of a training run: a bank of
cluster centroids over teacher embeddings and a per-object neighbor
table.  Both are rebuilt on a fixed period; batch assembly only reads
them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .backends import (KeptDistances, assign_nearest, cross_sqdist, gram_slack, gram_sqdist,
                       paired_sqdist, row_sqnorms)
from .data import ScaleGroups
from .encoder import TeacherNet
from .forked import Child, usable_cpus


@dataclass(frozen=True)
class CentroidBank:
    centroids: np.ndarray  # (L, width)
    last_refresh_step: int

    def __post_init__(self):
        c = self.centroids
        if c.ndim != 2 or c.shape[0] < 1:
            raise ValueError("centroid bank needs at least one centroid row")
        if not np.all(np.isfinite(c)):
            raise ValueError("centroids must be finite")


@dataclass(frozen=True)
class NeighborTable:
    """``ids`` (int64, ascending) and ``rows`` (int64): row i holds the
    neighbor ids of ``ids[i]``, nearest first, padded with -1."""

    ids: np.ndarray
    rows: np.ndarray
    last_refresh_step: int

    @functools.cached_property
    def neighbors(self) -> dict[int, np.ndarray]:
        """object_id -> the non-negative entries of its row, in order."""
        keep = self.rows >= 0
        flat = self.rows[keep]
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        return {oid: flat[s:e] for oid, s, e in zip(self.ids.tolist(), [0] + ends, ends)}

    def of(self, object_id: int) -> np.ndarray:
        return self.neighbors[object_id]


@dataclass(frozen=True)
class Batch:
    """Per-group object draws plus one shared block appended to every group."""

    group_ids: tuple[np.ndarray, ...]
    shared_ids: np.ndarray


def _farthest_point_init(f: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """Farthest-point seeding: each new centre is the row farthest from the
    centres so far (ties to the lowest index).

    Only the rows whose lower bound to a new centre, its ``gram_sqdist``
    less its ``gram_slack``, does not exceed their current minimum can
    lower it, so only those are measured with ``cross_sqdist``: the minima
    are those of measuring every row, to the bit.  The bounds come from
    ``_screen_columns``, whose one Gram product also screens the likeliest
    later centres.  Every row is measured when a centre's screened column
    is not finite."""
    first = int(rng.integers(f.shape[0]))
    # allocated before any screen, so that the long-lived centres do not
    # land above the screens' temporaries in the heap
    cents = np.empty((n_clusters, f.shape[1]))
    cents[0] = f[first]
    mind = cross_sqdist(f, f[first][None, :]).ravel()
    sq = row_sqnorms(f)
    screen: dict = {}
    for k in range(1, n_clusters):
        # ties go to the lowest index via argmax on the raw array
        nxt = int(np.argmax(mind))
        cents[k] = f[nxt]
        if nxt not in screen:
            screen = _screen_columns(f, sq, mind, nxt)
        if screen[nxt] is None:
            rows = slice(None)
        else:
            near, lower = screen[nxt]
            rows = near[lower <= mind[near]]
        mind[rows] = np.minimum(mind[rows], cross_sqdist(f[rows], f[nxt][None, :]).ravel())
    return cents


# Rows screened with each new seeding centre: the next centres are mostly
# among the rows now farthest from the centres so far.
_SCREEN_BATCH = 16


def _screen_columns(f: np.ndarray, sq: np.ndarray, mind: np.ndarray, centre: int) -> dict:
    """Screen every row of ``f`` against ``centre`` and the ``_SCREEN_BATCH``
    rows with the largest ``mind`` in one Gram product.  By row screened:
    the rows whose lower bound, ``gram_sqdist`` less ``gram_slack``, does
    not exceed ``mind``, with those bounds, or None where the bounds hold a
    non-finite value.

    ``mind`` only falls, so a row left out here stays out when the row
    becomes a centre later.  The slack bounds any summation order, so a
    column of this product screens as validly as a product with its row
    alone."""
    top = np.argpartition(mind, -min(_SCREEN_BATCH, mind.size))[-_SCREEN_BATCH:]
    batch = np.append(top, centre)
    with np.errstate(over="ignore", invalid="ignore"):
        lower = gram_sqdist(f, sq, f[batch], sq[batch])
        lower -= gram_slack(sq, sq[batch], f.shape[1])
    screen = dict.fromkeys(batch.tolist())
    for col in np.flatnonzero(np.isfinite(lower).all(axis=0)):
        near = np.flatnonzero(lower[:, col] <= mind)
        screen[int(batch[col])] = (near, lower[near, col])
    return screen


def _cluster_sums(f: np.ndarray, assign: np.ndarray, clusters: np.ndarray) -> np.ndarray:
    """Row sums of the given clusters, each adding its rows in row order
    from +0.0, as ``np.add.at`` does, to the bit.

    A cluster's rows are gathered by a stable sort of ``assign`` into one
    C-contiguous block, and a sum over its first axis adds them one row at
    a time.  A single column keeps ``np.add.at``: NumPy sums it pairwise.
    """
    clusters = np.asarray(clusters, dtype=np.int64)
    if f.shape[1] == 1:
        sums = np.zeros((max(assign.max(), clusters.max()) + 1, 1), dtype=np.float64)
        np.add.at(sums, assign, f)
        return sums[clusters]
    order = np.argsort(assign, kind="stable")
    labels = assign[order]
    starts = np.searchsorted(labels, clusters, side="left")
    ends = np.searchsorted(labels, clusters, side="right")
    sums = np.zeros((clusters.size, f.shape[1]), dtype=np.float64)
    for i in np.flatnonzero(ends > starts):
        sums[i] = f[order[starts[i] : ends[i]]].sum(axis=0)
    return sums


def _lloyd(f: np.ndarray, n_clusters: int, iters: int, rng: np.random.Generator):
    """Lloyd iterations with farthest-point seeding.

    Returns (centroids, inertia_trace); the trace is evaluated against the
    centroids at the top of each iteration and is non-increasing.

    A cluster whose rows are the same as in the last iteration keeps its
    centroid and its distance column to the bit, so after the first update
    only the clusters that a relabelled row left or joined are summed and
    measured again: at least two, or none, and then Lloyd has converged.
    """
    cents = _farthest_point_init(f, n_clusters, rng)
    trace: list[float] = []
    kept = KeptDistances()
    prev_assign = None
    moved = None  # every centroid is new
    n = f.shape[0]
    for _ in range(iters):
        assign, own = assign_nearest(f, cents, kept, moved)
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
        if prev_assign is None:
            moved = np.arange(n_clusters)
        else:
            changed = assign != prev_assign
            if not changed.any():
                break
            moved = np.union1d(prev_assign[changed], assign[changed])
        filled = np.maximum(counts[moved], 1)
        cents[moved] = _cluster_sums(f, assign, moved) / filled[:, None]
        prev_assign = assign
    return cents, trace


def kmeans(f: np.ndarray, n_clusters: int, iters: int = 20, seed: int = 0, step: int = 0) -> CentroidBank:
    """Cluster rows of ``f`` into ``n_clusters`` centroids, deterministically."""
    if n_clusters < 1:
        raise ValueError("cluster count must be positive")
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 2 or f.shape[0] < n_clusters:
        raise ValueError("need at least as many rows as clusters")
    cents, _ = _lloyd(f, n_clusters, iters, np.random.default_rng(seed))
    return CentroidBank(centroids=cents, last_refresh_step=step)


def knn_table(f: np.ndarray, object_ids: np.ndarray, k_neighbors: int = 5) -> np.ndarray:
    """Nearest neighbors within one group of two or more rows, by Euclidean
    distance: the ``(n, min(k_neighbors, n - 1))`` int64 neighbor ids, row
    i for row i of ``f``, nearest first.  Self is excluded; exact distance
    ties break toward the smaller object id.

    Distances are ``backends.cross_sqdist``'s per-pair sums.  The group is
    first screened with one Gram product, ``|x|^2 + |y|^2 - 2 x.y``,
    whose rounding error has a proven bound (``backends.gram_slack``); only
    rows within the slack of the k-th screened distance are measured
    exactly, all candidate pairs in one ``paired_sqdist`` pass, so the rows
    equal a full sort of (distance, id).
    """
    f = np.asarray(f, dtype=np.float64)
    object_ids = np.asarray(object_ids, dtype=np.int64)
    if f.shape[0] != object_ids.size:
        raise ValueError("rows and object ids must align")
    take = min(k_neighbors, f.shape[0] - 1)
    row, cand = _knn_candidates(f, take)
    d2 = paired_sqdist(f, cand, row)
    # each row's candidates stay in place, sorted by (distance, id)
    order = np.lexsort((object_ids[cand], d2, row))
    first = np.searchsorted(row, np.arange(f.shape[0]))
    return object_ids[cand[order[first[:, None] + np.arange(take)]]]


def _knn_candidates(sub: np.ndarray, take: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (row, candidate) of rows that may be among each other's
    ``take`` nearest, ordered by row, then candidate.

    Row j is kept for row i when its screened distance minus the slack
    does not exceed the ``take``-th smallest screened distance plus the
    slack; that keeps every row whose exact distance is at most the
    ``take``-th exact distance, ties included.  A group with a non-finite
    screened value keeps every row.
    """
    sq = row_sqnorms(sub)
    with np.errstate(over="ignore", invalid="ignore"):
        approx = gram_sqdist(sub, sq, sub, sq)
        if np.isfinite(approx).all():
            slack = gram_slack(sq, sq, sub.shape[1])
            upper = approx + slack
            np.fill_diagonal(upper, np.inf)
            kth = np.partition(upper, take - 1, axis=1)[:, take - 1]
            approx -= slack
            keep = approx <= kth[:, None]
        else:
            keep = np.ones((len(sub), len(sub)), dtype=bool)
    np.fill_diagonal(keep, False)
    return np.nonzero(keep)


def assemble_batch(
    groups: ScaleGroups,
    table: NeighborTable,
    rng: np.random.Generator,
    budget: int = 120,
    n_shared: int = 6,
) -> Batch:
    """Draw one multi-group batch of object ids.

    Per group: anchors are drawn uniformly without replacement and each
    anchor brings its stored neighbors; the deduplicated stream is cut at
    the per-group quota (budget - k*n_shared) // k.  The shared block is
    drawn from the whole table afterwards and appended to every group.
    """
    k = groups.k
    if n_shared < 0:
        raise ValueError("n_shared must be non-negative")
    quota = (budget - k * n_shared) // k
    if quota < 1:
        raise ValueError(
            f"per-group quota {quota} unattainable: budget {budget}, "
            f"{k} groups, {n_shared} shared"
        )
    blocks: list[np.ndarray] = []
    for m in range(k):
        ids = groups.group_object_ids(m)
        target = min(quota, ids.size)
        picked: list[int] = []
        seen: set[int] = set()
        for anchor in rng.permutation(ids):
            if len(picked) >= target:
                break
            for oid in (int(anchor), *map(int, table.of(int(anchor)))):
                if oid not in seen:
                    seen.add(oid)
                    picked.append(oid)
                    if len(picked) == target:
                        break
        blocks.append(np.array(picked, dtype=np.int64))
    all_ids = groups.table.ids
    if n_shared > all_ids.size:
        raise ValueError("n_shared exceeds the table size")
    shared = rng.choice(all_ids, size=n_shared, replace=False).astype(np.int64)
    return Batch(group_ids=tuple(blocks), shared_ids=shared)


def refresh(
    step: int,
    period: int,
    teacher: TeacherNet,
    groups: ScaleGroups,
    provider,
    bank: CentroidBank | None,
    table: NeighborTable | None,
    n_clusters: int = 100,
    k_neighbors: int = 5,
    kmeans_iters: int = 20,
    seed: int = 0,
):
    """Rebuild the centroid bank and neighbor table when the period elapses.

    Fires when ``step`` is a multiple of ``period`` (including step 0, the
    initial build); otherwise returns the inputs untouched.  Neighbors come
    from the teacher's wide embedding; centroids cluster the teacher's
    per-group head embeddings of every object, so they live in the same
    space as the similarity rows computed during training.

    The two halves read only the base features and the teacher, so where
    the process may run on two or more CPUs the neighbor table is built in
    one forked child (``forked.Child``) while this process builds the
    bank, and comes back as the ``NeighborTable`` itself; on one CPU, or
    without ``os.fork``, this process builds both, the table first.  Both
    ways run the same two functions on the same inputs, so the results
    have the same bits.
    """
    if step % period != 0:
        return bank, table
    feats = provider.base_features(groups.table.ids)
    args = (teacher, groups, feats)
    if usable_cpus() < 2:
        table = _neighbor_table(*args, k_neighbors, step)
        return _centroid_bank(*args, n_clusters, kmeans_iters, seed + step, step), table
    with Child("a neighbor-table process", lambda: _neighbor_table(*args, k_neighbors, step)) as child:
        bank = _centroid_bank(*args, n_clusters, kmeans_iters, seed + step, step)
        return bank, child.result()


def _neighbor_table(teacher, groups, feats, k_neighbors, step) -> NeighborTable:
    """The within-group kNN table of the teacher's wide embedding, built one
    group at a time (neighbors never cross a group, so no wide embedding of
    the whole corpus is ever held) into rows padded with -1 to the largest
    group's."""
    sizes = groups.group_sizes()
    if min(sizes) < 2:
        raise ValueError(f"group {sizes.index(min(sizes))} has fewer than two members")
    ids = groups.table.ids
    table = np.full((ids.size, min(k_neighbors, max(sizes) - 1)), -1, dtype=np.int64)
    for m in range(groups.k):
        rows = groups.group_rows(m)
        part = knn_table(teacher.embed(feats[rows]), ids[rows], k_neighbors)
        table[rows, : part.shape[1]] = part
    return NeighborTable(ids=ids, rows=table, last_refresh_step=step)


def _centroid_bank(teacher, groups, feats, n_clusters, iters, seed, step) -> CentroidBank:
    """k-means of every object's teacher head embedding, each through its
    own group's head."""
    head = np.empty((feats.shape[0], teacher.cfg.student_dim), dtype=np.float64)
    for m in range(groups.k):
        rows = groups.group_rows(m)
        if rows.size:
            head[rows] = teacher.head_embed(feats[rows], m)
    return kmeans(head, n_clusters, iters, seed=seed, step=step)
