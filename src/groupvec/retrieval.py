"""Gallery embedding and exact nearest-neighbor search.

A store holds one float64 array whose values are float32: its rows are
rounded to float32 once, when the store is made, and its file keeps
them as float32, with the sha256 of the manifest they were embedded
from.  Search is exact and reads that array: ``rank``
computes the distance to every row and orders the rows by (distance,
object id), so rankings are deterministic and a query equal to a stored
row comes back at distance exactly 0.0.  The distances are
``backends.cross_sqdist``'s per-pair sums, taken over blocks of rows
through one cache-sized buffer (256 rows at 512-d) with the same bits as
one pass over the whole store, at any store size.  ``rank`` returns
arrays for whole-gallery work such as ``groupvec eval``, which searches
with each query object's own store row; ``query`` joins only its top k
to the object table as ``Hit`` objects.  ``rank`` keeps no state between
calls, so ``groupvec eval`` runs it in one process per part of its
queries (one part per CPU; the children are ``forked.Child``, as is the
neighbor-table child of a training refresh), each on the same store
shared copy-on-write, and every query's ranking has the same bits in
whichever process it ran.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backends import cross_sqdist
from .checkpoint import read_container, write_container
from .data import ObjectTable, ScaleGroups
from .encoder import StudentNet


@dataclass(frozen=True)
class EmbeddingStore:
    vectors: np.ndarray  # (n, dim) float64, each value a float32
    object_ids: np.ndarray  # (n,) int64, unique
    manifest_sha256: str = ""  # of the manifest.tsv the rows were embedded from

    def __post_init__(self):
        v, ids = self.vectors, self.object_ids
        if v.ndim != 2 or ids.ndim != 1 or v.shape[0] != ids.size:
            raise ValueError("vectors and object ids must align")
        if np.unique(ids).size != ids.size:
            raise ValueError("object ids must be unique")
        # storage precision, kept in the float64 that search computes in
        object.__setattr__(self, "vectors", np.asarray(v, dtype=np.float32).astype(np.float64))

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def save(self, path) -> None:
        write_container(path, {"format": "embedding-store", "manifest_sha256": self.manifest_sha256},
                        {"vectors": self.vectors.astype(np.float32), "ids": self.object_ids})

    @classmethod
    def load(cls, path) -> "EmbeddingStore":
        """The store at ``path``, its float32 rows read into one array and
        widened once; a file that is not a whole store is one error naming it."""
        header, blobs = read_container(path, what="store")
        if header.get("format") != "embedding-store":
            raise ValueError(f"{path}: not an embedding store")
        try:
            vec, ids = blobs["vectors"], blobs["ids"]
            if vec.dtype != "<f4" or ids.dtype != "<i8" or (ids < 0).any():
                raise ValueError
            return cls(vec, ids, header["manifest_sha256"])
        except (KeyError, ValueError):
            raise ValueError(f"{path}: damaged store") from None


@dataclass(frozen=True)
class Hit:
    object_id: int
    distance: float
    image_id: int
    bbox: tuple[float, float, float, float]


@dataclass(frozen=True)
class RankedResult:
    query_id: int | None
    hits: tuple[Hit, ...]


def embed_all(
    student: StudentNet,
    table: ObjectTable,
    provider,
    groups: ScaleGroups,
    manifest_sha256: str = "",
) -> EmbeddingStore:
    """Embed every object through the h-head of its own scale group; the
    store records ``manifest_sha256``, that of the table's manifest."""
    out = np.zeros((len(table.ids), student.cfg.student_dim), dtype=np.float64)
    feats = provider.base_features(table.ids)
    for m in range(groups.k):
        rows = groups.group_rows(m)
        if rows.size:
            out[rows] = student.head_embed(feats[rows], m)
    return EmbeddingStore(vectors=out, object_ids=table.ids.copy(), manifest_sha256=manifest_sha256)


def embed_query(
    student: StudentNet,
    groups: ScaleGroups,
    feature: np.ndarray,
    area: float,
) -> np.ndarray:
    """Embed one query feature with the h-head of the group covering its area.

    ``groupvec query`` and ``eval`` rank a table object's own store row
    instead, which the head of ``groups.assignment[row]`` embedded; an
    area equal to a later group's first area routes to that group.
    """
    m = groups.route_area(area)
    return student.head_embed(np.asarray(feature, dtype=np.float64)[None, :], m)[0]


def rank(store: EmbeddingStore, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact Euclidean search of the whole store.

    Returns the store rows ordered by (distance, object id) and the
    float64 distance of every row, indexed by row.
    """
    if store.count == 0:
        raise ValueError("store is empty")
    q = np.asarray(q, dtype=np.float64).ravel()
    if q.size != store.dim:
        raise ValueError(f"query width {q.size} != store width {store.dim}")
    # search runs at storage precision: a query equal to a stored row must
    # come back at distance exactly zero, so round it to the same grid
    q = q.astype(np.float32).astype(np.float64)
    dist = cross_sqdist(store.vectors, q[None, :]).ravel()
    np.sqrt(dist, out=dist)
    return np.lexsort((store.object_ids, dist)), dist


def query(store: EmbeddingStore, q: np.ndarray, topk: int, table: ObjectTable,
          query_id: int | None = None) -> RankedResult:
    """Exact Euclidean top-k over the store, joined to the object table.

    Distance ties break toward the smaller gallery object id; topk is
    clipped to the store size.
    """
    if topk < 1:
        raise ValueError("topk must be at least 1")
    order, dist = rank(store, q)
    hits = []
    for idx in order[:topk]:
        oid = int(store.object_ids[idx])
        rec = table.get(oid)
        hits.append(
            Hit(
                object_id=oid,
                distance=float(dist[idx]),
                image_id=rec.image_id,
                bbox=rec.bbox,
            )
        )
    return RankedResult(query_id=query_id, hits=tuple(hits))

