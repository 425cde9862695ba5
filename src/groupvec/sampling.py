"""Centroid maintenance, within-group nearest neighbors, and batch assembly.

The sampler owns the slow-moving state of a training run: a bank of
cluster centroids over teacher embeddings and a per-object neighbor
table.  Both are rebuilt on a fixed period; batch assembly only reads
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends import KeptDistances, assign_nearest, cross_sqdist, row_sqnorms
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
    neighbors: dict[int, np.ndarray]  # object_id -> neighbor ids, nearest first
    last_refresh_step: int

    def of(self, object_id: int) -> np.ndarray:
        return self.neighbors[object_id]

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ids, rows)``: the object ids in ascending order and, in row i,
        the neighbors of ``ids[i]``, padded with -1 to the longest list."""
        ids = np.array(sorted(self.neighbors), dtype=np.int64)
        width = max((len(v) for v in self.neighbors.values()), default=0)
        rows = np.full((ids.size, width), -1, dtype=np.int64)
        for i, oid in enumerate(ids.tolist()):
            nb = self.neighbors[oid]
            rows[i, : len(nb)] = nb
        return ids, rows

    @classmethod
    def from_arrays(cls, ids: np.ndarray, rows: np.ndarray, step: int) -> "NeighborTable":
        """The table whose ``to_arrays`` are the int64 ``ids`` and ``rows``,
        refreshed at ``step``: each id's neighbors are the non-negative
        entries of its row, in order."""
        keep = rows >= 0
        flat = rows[keep]
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        neighbors = {
            oid: flat[start:end] for oid, start, end in zip(ids.tolist(), [0] + ends, ends)
        }
        return cls(neighbors=neighbors, last_refresh_step=step)


@dataclass(frozen=True)
class Batch:
    """Per-group object draws plus one shared block appended to every group."""

    group_ids: tuple[np.ndarray, ...]
    shared_ids: np.ndarray


def _farthest_point_init(f: np.ndarray, n_clusters: int, rng: np.random.Generator) -> np.ndarray:
    """Farthest-point seeding: each new centre is the row farthest from the
    centres so far (ties to the lowest index).

    Only the rows whose lower ``_gram_bounds`` to a new centre do not exceed
    their current minimum can lower it, so only those are measured with
    ``cross_sqdist``: the minima are those of measuring every row, to the
    bit.  Every row is measured when a screened value is not finite."""
    chosen = [int(rng.integers(f.shape[0]))]
    mind = cross_sqdist(f, f[chosen[-1]][None, :]).ravel()
    sq = row_sqnorms(f)
    while len(chosen) < n_clusters:
        # ties go to the lowest index via argmax on the raw array
        nxt = int(np.argmax(mind))
        chosen.append(nxt)
        bounds = _gram_bounds(f, sq, f[nxt], sq[nxt])
        rows = slice(None) if bounds is None else np.flatnonzero(bounds[0] <= mind)
        mind[rows] = np.minimum(mind[rows], cross_sqdist(f[rows], f[nxt][None, :]).ravel())
    return f[np.array(chosen)].copy()


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


def knn_table(
    f: np.ndarray,
    object_ids: np.ndarray,
    group_of: np.ndarray,
    k_neighbors: int = 5,
    step: int = 0,
) -> NeighborTable:
    """Within-group nearest neighbors by Euclidean distance.

    Self is excluded; exact distance ties break toward the smaller object
    id.  Each object gets min(k_neighbors, group size - 1) neighbors.

    Distances are ``backends.cross_sqdist``'s per-pair sums.  A group is
    first screened with one Gram product, ``|x|^2 + |y|^2 - 2 x.y``,
    whose rounding error has a proven bound (the slack); only rows within
    the slack of the k-th screened distance are measured exactly, so the
    table equals a full sort of (distance, id).
    """
    f = np.asarray(f, dtype=np.float64)
    object_ids = np.asarray(object_ids, dtype=np.int64)
    group_of = np.asarray(group_of)
    if not (f.shape[0] == object_ids.size == group_of.size):
        raise ValueError("rows, object ids and group assignment must align")
    neighbors: dict[int, np.ndarray] = {}
    for g in np.unique(group_of):
        rows = np.flatnonzero(group_of == g)
        if rows.size < 2:
            raise ValueError(f"group {g} has fewer than two members")
        sub = f[rows]
        ids = object_ids[rows]
        take = min(k_neighbors, rows.size - 1)
        for local, cand in enumerate(_knn_candidates(sub, take)):
            d2 = cross_sqdist(sub[cand], sub[local][None, :]).ravel()
            order = np.lexsort((ids[cand], d2))[:take]
            neighbors[int(ids[local])] = ids[cand[order]]
    return NeighborTable(neighbors=neighbors, last_refresh_step=step)


def _knn_candidates(sub: np.ndarray, take: int) -> list[np.ndarray]:
    """Per row, the other rows that may be among its ``take`` nearest.

    Row j is kept for row i when its screened distance minus the slack
    does not exceed the ``take``-th smallest screened distance plus the
    slack; that keeps every row whose exact distance is at most the
    ``take``-th exact distance, ties included.  A group with a non-finite
    screened value keeps every row.
    """
    sq = row_sqnorms(sub)
    bounds = _gram_bounds(sub, sq, sub, sq)
    if bounds is None:
        keep = np.ones((len(sub), len(sub)), dtype=bool)
    else:
        lower, upper = bounds
        np.fill_diagonal(upper, np.inf)
        kth = np.partition(upper, take - 1, axis=1)[:, take - 1]
        keep = lower <= kth[:, None]
    np.fill_diagonal(keep, False)
    return [np.flatnonzero(row) for row in keep]


def _gram_bounds(x: np.ndarray, sq_x: np.ndarray, y: np.ndarray, sq_y):
    """The screened distances ``|x|^2 + |y|^2 - 2 x.y`` of the rows of ``x``
    to the rows of ``y`` (or to one row ``y``), from their squared norms,
    minus and plus ``_gram_slack``: bounds on the exact distances.  None
    when a screened value is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.outer(sq_x, sq_y)
        approx = total - 2.0 * (x @ y.T)
        if not np.isfinite(approx).all():
            return None
        slack = _gram_slack(total, x.shape[1])
        return approx - slack, approx + slack


def _gram_slack(total: np.ndarray, dim: int) -> np.ndarray:
    """Bound on the gap between a screened distance ``|x|^2 + |y|^2 - 2 x.y``
    (``total = |x|^2 + |y|^2``, ``dim`` columns) and the exact sum
    ``cross_sqdist`` gives; a row whose screened distance minus this
    slack exceeds a threshold has an exact distance above it."""
    # With unit roundoff u = eps/2, each squared norm and the dot product
    # is off by at most D u total (any summation order, fused or not), the
    # two final additions by 2 u (2 total), and the exact per-row sum by
    # (D + 2) u (2 total): (2 D + 4) eps total in all.  Every underflowing
    # product adds at most one smallest subnormal, 5 D of them.  The factor
    # 8 covers the second-order terms and the rounding of the slack itself.
    f64 = np.finfo(np.float64)
    return 8.0 * (dim + 4) * (f64.eps * total + f64.smallest_subnormal)


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
    bank, and comes back as ``NeighborTable.to_arrays``; on one CPU, or
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
    with Child(
        "a neighbor-table process", lambda: _neighbor_table(*args, k_neighbors, step).to_arrays()
    ) as child:
        bank = _centroid_bank(*args, n_clusters, kmeans_iters, seed + step, step)
        return bank, NeighborTable.from_arrays(*child.result(), step)


def _neighbor_table(teacher, groups, feats, k_neighbors, step) -> NeighborTable:
    """The within-group kNN table of the teacher's wide embedding, built one
    group at a time: neighbors never cross a group, so no wide embedding
    of the whole corpus is ever held."""
    neighbors: dict[int, np.ndarray] = {}
    for m in range(groups.k):
        rows = groups.group_rows(m)
        if rows.size:
            wide = teacher.embed(feats[rows])
            ids = groups.table.ids[rows]
            neighbors.update(knn_table(wide, ids, np.full(rows.size, m), k_neighbors, step).neighbors)
    return NeighborTable(neighbors=neighbors, last_refresh_step=step)


def _centroid_bank(teacher, groups, feats, n_clusters, iters, seed, step) -> CentroidBank:
    """k-means of every object's teacher head embedding, each through its
    own group's head."""
    head = np.empty((feats.shape[0], teacher.cfg.student_dim), dtype=np.float64)
    for m in range(groups.k):
        rows = groups.group_rows(m)
        if rows.size:
            head[rows] = teacher.head_embed(feats[rows], m)
    return kmeans(head, n_clusters, iters, seed=seed, step=step)
