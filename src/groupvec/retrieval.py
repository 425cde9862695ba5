"""Gallery embedding, exact nearest-neighbor search, and image ranking.

Stores hold float32 rows for compactness.  Search is exact and runs in
float64 on an upcast copy of the rows that each store makes once, on its
first search: ``rank`` computes the distance to every row and orders the
rows by (distance, object id), so rankings are deterministic and a query
equal to a stored row comes back at distance exactly 0.0.  ``rank``
returns arrays for whole-gallery work such as ``groupvec eval``; ``query``
joins only its top k to the object table as ``Hit`` objects.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .checkpoint import atomic_write, read_exact
from .data import ObjectTable, ScaleGroups
from .encoder import StudentNet

STORE_MAGIC = b"MSE1"
STORE_VERSION = 1


@dataclass(frozen=True)
class EmbeddingStore:
    vectors: np.ndarray  # (n, dim) float32
    object_ids: np.ndarray  # (n,) int64, unique

    def __post_init__(self):
        v, ids = self.vectors, self.object_ids
        if v.ndim != 2 or ids.ndim != 1 or v.shape[0] != ids.size:
            raise ValueError("vectors and object ids must align")
        if np.unique(ids).size != ids.size:
            raise ValueError("object ids must be unique")

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @cached_property
    def vectors64(self) -> np.ndarray:
        """The rows upcast to float64, made on first use and kept with the
        store; ``vectors`` must not be modified after the first search."""
        return self.vectors.astype(np.float64)

    def save(self, path) -> None:
        with atomic_write(path) as fh:
            fh.write(STORE_MAGIC)
            fh.write(struct.pack("<I", STORE_VERSION))
            fh.write(struct.pack("<I", self.dim))
            fh.write(struct.pack("<Q", self.count))
            fh.write(np.ascontiguousarray(self.vectors, dtype="<f4").tobytes())
            fh.write(np.ascontiguousarray(self.object_ids, dtype="<u8").tobytes())

    @classmethod
    def load(cls, path) -> "EmbeddingStore":
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != STORE_MAGIC:
                if len(magic) < 4 and STORE_MAGIC.startswith(magic):
                    raise ValueError(f"{path}: truncated store")
                raise ValueError(f"{path}: bad store magic {magic!r}: MSE1 expected")
            (version,) = struct.unpack("<I", read_exact(fh, 4, path, "store"))
            if version != STORE_VERSION:
                raise ValueError(f"{path}: unsupported store version {version}")
            dim, count = struct.unpack("<IQ", read_exact(fh, 12, path, "store"))
            vec_raw = read_exact(fh, count * dim * 4, path, "store")
            ids_raw = read_exact(fh, count * 8, path, "store")
        vec = np.frombuffer(vec_raw, dtype="<f4")
        ids = np.frombuffer(ids_raw, dtype="<u8")
        return cls(
            vectors=vec.reshape(count, dim).copy(),
            object_ids=ids.astype(np.int64),
        )


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


def _student_rows(student: StudentNet, feats: np.ndarray, group: int, concat: bool) -> np.ndarray:
    f_h, f_l = student.forward(feats, group)
    return np.hstack([f_h, f_l]) if concat else f_h


def embed_all(
    student: StudentNet,
    table: ObjectTable,
    provider,
    groups: ScaleGroups,
    concat: bool = False,
) -> EmbeddingStore:
    """Embed every object through the h-head of its own scale group.

    With ``concat`` both heads are kept, doubling the store width.
    """
    dim = student.cfg.student_dim * (2 if concat else 1)
    out = np.zeros((len(table.ids), dim), dtype=np.float64)
    feats = provider.base_features(table.ids)
    for m in range(groups.k):
        rows = groups.group_rows(m)
        if rows.size:
            out[rows] = _student_rows(student, feats[rows], m, concat)
    return EmbeddingStore(
        vectors=out.astype(np.float32), object_ids=table.ids.copy()
    )


def embed_query(
    student: StudentNet,
    groups: ScaleGroups,
    feature: np.ndarray,
    area: float,
    concat: bool = False,
) -> np.ndarray:
    """Embed one query feature with the head of the group covering its area."""
    m = groups.route_area(area)
    return _student_rows(student, np.asarray(feature, dtype=np.float64)[None, :], m, concat)[0]


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
    diff = store.vectors64 - q
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
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


def rank_images(result: RankedResult) -> list[int]:
    """Images ordered by their best hit; each image listed once."""
    seen: set[int] = set()
    out: list[int] = []
    for hit in result.hits:
        if hit.image_id not in seen:
            seen.add(hit.image_id)
            out.append(hit.image_id)
    return out
