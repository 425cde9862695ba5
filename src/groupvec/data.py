"""Object records, COCO-style ingestion, scale grouping, synthetic corpora.

An object is a bounding box inside a parent image plus an optional class
label. Class labels ride along for evaluation only; nothing in the
training path accepts them. The synthetic generator produces a
long-tailed corpus (Zipf class sizes, log-normal box areas) whose feature
noise grows as boxes shrink, which is the regime the grouped training
scheme is meant to handle.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .checkpoint import atomic_write

CANVAS = 4096.0  # virtual image side for synthesized boxes
_MIN_SIDE = 1.0
_MAX_SIDE = 4000.0
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class ObjectRecord:
    object_id: int
    image_id: int
    bbox: tuple[float, float, float, float]  # x, y, w, h in pixels
    area: float
    class_id: int | None = None
    feature_ref: int = -1

    def __post_init__(self):
        for name in ("object_id", "image_id", "class_id"):
            value = getattr(self, name)
            if value is None and name == "class_id":
                continue
            if (type(value) is bool or not isinstance(value, (int, np.integer))
                    or not _INT64_MIN <= value <= _INT64_MAX):
                raise ValueError(f"object {self.object_id!r}: {name} must be an int64 integer, got {value!r}")
        if self.object_id < 0:  # a checkpoint's neighbour rows pad with -1
            raise ValueError(f"object {self.object_id}: object_id must not be negative")
        x, y, w, h = self.bbox
        if not all(map(math.isfinite, (x, y, w, h, self.area))):
            raise ValueError(
                f"object {self.object_id}: bbox x, y, w, h and area must be finite, "
                f"got {self.bbox} and area {self.area}"
            )
        if not (w > 0 and h > 0):
            raise ValueError(
                f"object {self.object_id}: bbox width/height must be positive, got w={w} h={h}"
            )
        if self.area != w * h:
            raise ValueError(f"object {self.object_id}: area {self.area} != w*h {w * h}")


class ObjectTable:
    """Immutable ordered collection of ObjectRecords (ascending object_id)."""

    def __init__(self, records):
        records = sorted(records, key=lambda r: r.object_id)
        ids = [r.object_id for r in records]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate object_id in table")
        self.records: list[ObjectRecord] = records
        self._by_id = {r.object_id: r for r in records}
        self.ids = np.array(ids, dtype=np.int64)
        self.areas = np.array([r.area for r in records], dtype=np.float64)
        self.image_ids = np.array([r.image_id for r in records], dtype=np.int64)
        self.bboxes = np.array([r.bbox for r in records], dtype=np.float64).reshape(len(records), 4)
        self.feature_refs = np.array([r.feature_ref for r in records], dtype=np.int64)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def get(self, object_id: int) -> ObjectRecord:
        return self._by_id[object_id]


def write_manifest(table: ObjectTable, path) -> None:
    """Tab-separated object manifest, one record per line, LF endings,
    written atomically."""
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in table:
            x, y, w, h = r.bbox
            cls = "" if r.class_id is None else str(r.class_id)
            fh.write(
                f"{r.object_id}\t{r.image_id}\t{x!r}\t{y!r}\t{w!r}\t{h!r}\t{cls}\n"
            )


def read_manifest(path) -> ObjectTable:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 7:
                raise ValueError(f"{path}: line {lineno}: expected 7 fields, got {len(parts)}")
            oid, img, x, y, w, h, cls = parts
            try:
                records.append(
                    ObjectRecord(
                        object_id=int(oid),
                        image_id=int(img),
                        bbox=(float(x), float(y), float(w), float(h)),
                        area=float(w) * float(h),
                        class_id=None if cls == "" else int(cls),
                        feature_ref=len(records),
                    )
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return ObjectTable(records)


def ingest_coco(annotation_file) -> ObjectTable:
    """Build an ObjectTable from a COCO-style annotation document.

    Only the minimal subset is consumed: ``images[].id`` and
    ``annotations[].{id, image_id, bbox, category_id}``.
    """
    with open(annotation_file, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{annotation_file}: not valid JSON: {exc}") from exc
    for key in ("images", "annotations"):
        if not isinstance(doc, dict) or not isinstance(doc.get(key), list):
            raise ValueError(f"{annotation_file}: {key!r} must be an array")

    image_ids = set()
    for i, img in enumerate(doc["images"]):
        if not isinstance(img, dict) or type(img.get("id")) is not int:
            raise ValueError(f"images[{i}]: needs an integer 'id', got {img!r}")
        image_ids.add(img["id"])

    records = []
    for i, ann in enumerate(doc["annotations"]):
        where = f"annotations[{i}]"
        if not isinstance(ann, dict):
            raise ValueError(f"{where}: not an object")
        for key in ("id", "image_id", "bbox", "category_id"):
            if key not in ann:
                raise ValueError(f"{where}: missing '{key}'")
            if key != "bbox" and type(ann[key]) is not int:
                raise ValueError(f"{where}: {key} must be an integer, got {ann[key]!r}")
        aid, img_id, bbox = ann["id"], ann["image_id"], ann["bbox"]
        if not (isinstance(bbox, list) and len(bbox) == 4 and all(map(_is_number, bbox))):
            raise ValueError(f"{where}: bbox must be four numbers [x, y, w, h], got {bbox!r}")
        if img_id not in image_ids:
            raise ValueError(f"annotation {aid}: unknown image_id {img_id}")
        x, y, w, h = map(float, bbox)
        if not (w > 0 and h > 0):
            raise ValueError(f"annotation {aid}: bbox width/height must be positive")
        try:
            records.append(ObjectRecord(aid, img_id, (x, y, w, h), w * h, ann["category_id"]))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    records.sort(key=lambda r: r.object_id)
    return ObjectTable([dataclasses.replace(r, feature_ref=row) for row, r in enumerate(records)])


def _is_number(value) -> bool:
    """A JSON float, or a JSON integer that converts to one."""
    return type(value) is float or type(value) is int and abs(value) <= sys.float_info.max


class ScaleGroups:
    """Equal-count quantile partition of a table by box area.

    Objects are sorted by (area, object_id) and split into k contiguous
    runs whose sizes differ by at most one. Boundaries are the run-edge
    areas and stay fixed once computed.
    """

    def __init__(self, k: int, assignment: np.ndarray, boundaries: np.ndarray, table: ObjectTable):
        self.k = k
        self.assignment = assignment  # group index per table row
        self.boundaries = boundaries  # k+1 non-decreasing areas
        self._table = table
        self._rows = [np.flatnonzero(assignment == m) for m in range(k)]

    @property
    def table(self) -> ObjectTable:
        return self._table

    def group_rows(self, m: int) -> np.ndarray:
        """Table row positions of group m, ascending object_id."""
        return self._rows[m]

    def group_object_ids(self, m: int) -> np.ndarray:
        return self._table.ids[self._rows[m]]

    def group_sizes(self) -> list[int]:
        return [len(r) for r in self._rows]

    def route_area(self, area: float) -> int:
        """Group whose area range contains the given area (clamped at the ends)."""
        inner = self.boundaries[1 : self.k]
        return int(np.searchsorted(inner, area, side="right"))


def partition_by_scale(table: ObjectTable, k: int) -> ScaleGroups:
    n = len(table)
    if k < 1:
        raise ValueError(f"group count must be >= 1, got {k}")
    if n == 0:
        raise ValueError("cannot partition an empty table")
    if k > n:
        raise ValueError(f"group count {k} exceeds table size {n}")

    order = np.lexsort((table.ids, table.areas))
    base, rem = divmod(n, k)
    assignment = np.empty(n, dtype=np.int64)
    edges = [0]
    start = 0
    for m in range(k):
        size = base + (1 if m < rem else 0)
        assignment[order[start : start + size]] = m
        start += size
        edges.append(start)

    sorted_areas = table.areas[order]
    boundaries = np.empty(k + 1, dtype=np.float64)
    boundaries[0] = sorted_areas[0]
    boundaries[k] = sorted_areas[-1]
    for m in range(1, k):
        boundaries[m] = sorted_areas[edges[m]]
    return ScaleGroups(k, assignment, boundaries, table)


@dataclass
class SynthConfig:
    """Knobs for the synthetic long-tailed corpus.

    Feature noise per object is intra_class_sd plus an extra term scaled
    by scale_noise_gain / sqrt(area), so small boxes carry noisier
    features. Generation is a pure function of (config, seed).
    """

    n_classes: int = 12
    zipf_exponent: float = 1.0
    area_log_mean: float = math.log(900.0)
    area_log_sd: float = 1.3
    feature_dim: int = 32
    intra_class_sd: float = 0.75
    scale_noise_gain: float = 12.0
    seed: int = 0
    n_objects: int = 2000
    objects_per_image: int = 12

    def __post_init__(self):
        for name in ("zipf_exponent", "area_log_mean", "area_log_sd",
                     "intra_class_sd", "scale_noise_gain"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.n_objects < 1:
            raise ValueError("n_objects must be >= 1")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be > 0")
        for name in ("area_log_sd", "intra_class_sd", "scale_noise_gain"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.objects_per_image < 1:
            raise ValueError("objects_per_image must be >= 1")


@dataclass
class SyntheticFeatureModel:
    """Re-materializes an object's feature at an arbitrary box area.

    Each object keeps its frozen unit-noise draws, so requesting the
    object's own area reproduces its base feature bit-exactly, and other
    areas only change the scale-noise magnitude. Training code only sees
    this through ``base_features``, each object at its own area, and never
    touches the class data inside; ``features_at`` is kept for the tests
    and for ``perfbench``, which traces it by name.
    """

    means: np.ndarray
    class_of: np.ndarray
    intra_noise: np.ndarray
    scale_noise: np.ndarray
    intra_class_sd: float
    scale_noise_gain: float
    areas: np.ndarray

    def features_at(self, object_ids: np.ndarray, area: float) -> np.ndarray:
        ids = np.asarray(object_ids, dtype=np.int64)
        return self._features(ids, self.scale_noise_gain / math.sqrt(area))

    def base_features(self, object_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(object_ids, dtype=np.int64)
        return self._features(ids, (self.scale_noise_gain / np.sqrt(self.areas[ids]))[:, None])

    def _features(self, ids: np.ndarray, noise_scale) -> np.ndarray:
        return (
            self.means[self.class_of[ids]]
            + self.intra_class_sd * self.intra_noise[ids]
            + noise_scale * self.scale_noise[ids]
        )


@dataclass
class BaseFeatureProvider:
    """Feature lookup for ingested corpora: one fixed vector per object."""

    features: np.ndarray
    row_of: dict = field(default_factory=dict)

    @classmethod
    def from_table(cls, table: ObjectTable, features: np.ndarray) -> "BaseFeatureProvider":
        """Map each object to its feature row via the table's feature_ref."""
        refs = {int(r.object_id): int(r.feature_ref) for r in table}
        bad = [oid for oid, ref in refs.items() if not 0 <= ref < features.shape[0]]
        if bad:
            raise ValueError(f"object {bad[0]} has feature_ref outside the feature matrix")
        return cls(features, refs)

    def base_features(self, object_ids: np.ndarray) -> np.ndarray:
        rows = [self.row_of[int(i)] for i in np.asarray(object_ids)]
        return self.features[rows]


def synth_generate(config: SynthConfig):
    """Generate (ObjectTable, feature matrix) for the synthetic corpus."""
    table, features, _ = synth_generate_full(config)
    return table, features


def synth_generate_full(config: SynthConfig):
    """As synth_generate, but also returns the SyntheticFeatureModel."""
    rng = np.random.default_rng(config.seed)
    n, d = config.n_objects, config.feature_dim

    means = rng.normal(size=(config.n_classes, d))
    ranks = np.arange(1, config.n_classes + 1, dtype=np.float64)
    weights = ranks ** (-config.zipf_exponent)
    weights /= weights.sum()
    classes = rng.choice(config.n_classes, size=n, p=weights)

    target_area = rng.lognormal(config.area_log_mean, config.area_log_sd, size=n)
    aspect = np.exp(rng.normal(0.0, 0.25, size=n))
    w = np.clip(np.sqrt(target_area) * aspect, _MIN_SIDE, _MAX_SIDE)
    h = np.clip(np.sqrt(target_area) / aspect, _MIN_SIDE, _MAX_SIDE)
    xs = rng.uniform(size=n) * (CANVAS - w)
    ys = rng.uniform(size=n) * (CANVAS - h)

    eps = rng.normal(size=(n, d))
    eta = rng.normal(size=(n, d))
    model = SyntheticFeatureModel(
        means=means,
        class_of=classes.astype(np.int64),
        intra_noise=eps,
        scale_noise=eta,
        intra_class_sd=config.intra_class_sd,
        scale_noise_gain=config.scale_noise_gain,
        areas=w * h,
    )

    records = [
        ObjectRecord(
            object_id=i,
            image_id=i // config.objects_per_image,
            bbox=(float(xs[i]), float(ys[i]), float(w[i]), float(h[i])),
            area=float(w[i]) * float(h[i]),
            class_id=int(classes[i]),
            feature_ref=i,
        )
        for i in range(n)
    ]
    return ObjectTable(records), model.base_features(np.arange(n)), model
