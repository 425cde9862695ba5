import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupvec.data import (
    ObjectRecord,
    ObjectTable,
    SynthConfig,
    ingest_coco,
    partition_by_scale,
    read_manifest,
    synth_generate,
    synth_generate_full,
    write_manifest,
)


def make_table(areas, ids=None):
    ids = ids if ids is not None else list(range(len(areas)))
    recs = [
        ObjectRecord(object_id=i, image_id=0, bbox=(0.0, 0.0, float(a), 1.0), area=float(a))
        for i, a in zip(ids, areas)
    ]
    return ObjectTable(recs)


def coco_doc(annotations, images=None):
    if images is None:
        images = sorted({a["image_id"] for a in annotations})
        images = [{"id": i} for i in images]
    return {"images": images, "annotations": annotations}


class TestIngest:
    def test_two_annotations_one_image(self, tmp_path):
        doc = coco_doc(
            [
                {"id": 1, "image_id": 7, "bbox": [0, 0, 10, 10], "category_id": 3},
                {"id": 2, "image_id": 7, "bbox": [5, 5, 4, 2], "category_id": 1},
            ]
        )
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(doc))
        table = ingest_coco(p)
        assert len(table) == 2
        assert table.ids[table.image_ids == 7].tolist() == [1, 2]
        assert table.get(2).area == 8.0
        assert table.get(1).class_id == 3

    @pytest.mark.parametrize("key, value", [("images", 5), ("annotations", None)])
    def test_images_and_annotations_must_be_arrays(self, tmp_path, key, value):
        doc = coco_doc([{"id": 1, "image_id": 7, "bbox": [0, 0, 2, 2], "category_id": 0}])
        doc[key] = value
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: '{key}' must be an array$"):
            ingest_coco(p)

    def test_empty_annotations(self, tmp_path):
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(coco_doc([], images=[{"id": 1}])))
        assert len(ingest_coco(p)) == 0

    def test_zero_width_bbox_rejected(self, tmp_path):
        doc = coco_doc([{"id": 9, "image_id": 1, "bbox": [0, 0, 0, 10], "category_id": 0}])
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="annotation 9"):
            ingest_coco(p)

    def test_infinite_bbox_rejected(self, tmp_path):
        # json reads the Infinity that json.dumps writes
        doc = coco_doc([{"id": 9, "image_id": 1, "bbox": [0, 0, math.inf, 10], "category_id": 0}])
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="object 9: bbox x, y, w, h and area must be finite"):
            ingest_coco(p)

    def test_missing_key_names_entry(self, tmp_path):
        doc = coco_doc([{"id": 1, "image_id": 1, "category_id": 0}])
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"annotations\[0\]"):
            ingest_coco(p)

    def test_unknown_image_id(self, tmp_path):
        doc = {
            "images": [{"id": 1}],
            "annotations": [{"id": 5, "image_id": 2, "bbox": [0, 0, 1, 1], "category_id": 0}],
        }
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="annotation 5"):
            ingest_coco(p)


    @pytest.mark.parametrize("images, annotation, message", [
        pytest.param(None, {"bbox": [0, None, 4, 4]},
                     r"annotations\[0\]: bbox must be four numbers \[x, y, w, h\], got \[0, None",
                     id="null-bbox-entry"),
        pytest.param(None, {"bbox": [0, 0, 10**400, 4]}, r"annotations\[0\]: bbox must be four numbers",
                     id="bbox-int-beyond-float"),
        pytest.param(None, {"bbox": [0, 0, "4", 4]}, r"annotations\[0\]: bbox must be four numbers",
                     id="bbox-string"),
        pytest.param([{"id": [1]}], {}, r"images\[0\]: needs an integer 'id', got \{'id': \[1\]\}",
                     id="list-image-id"),
        pytest.param(None, {"category_id": 1.5}, r"annotations\[0\]: category_id must be an integer, got 1.5",
                     id="float-class"),
        pytest.param(None, {"category_id": "x"}, r"annotations\[0\]: category_id must be an integer, got 'x'",
                     id="string-class"),
        pytest.param(None, {"id": True}, r"annotations\[0\]: id must be an integer, got True",
                     id="bool-id"),
        pytest.param(None, {"id": 2**70}, r"annotations\[0\]: object 1180591620717411303424: "
                     r"object_id must be an int64 integer", id="id-beyond-int64"),
        pytest.param([{"id": 2**63}], {"image_id": 2**63}, r"annotations\[0\]: object 1: "
                     r"image_id must be an int64 integer, got 9223372036854775808", id="image-id-beyond-int64"),
        pytest.param(None, {"category_id": -(2**63) - 1}, r"annotations\[0\]: object 1: "
                     r"class_id must be an int64 integer", id="class-below-int64"),
    ])
    def test_bad_id_or_bbox_names_the_entry(self, tmp_path, images, annotation, message):
        ann = {"id": 1, "image_id": 1, "bbox": [0, 0, 4, 4], "category_id": 0, **annotation}
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(coco_doc([ann], images=images)))
        with pytest.raises(ValueError, match=message):
            ingest_coco(p)

    def test_mixed_int_and_string_ids(self, tmp_path):
        doc = coco_doc([
            {"id": 1, "image_id": 1, "bbox": [0, 0, 4, 4], "category_id": 0},
            {"id": "2", "image_id": 1, "bbox": [0, 0, 4, 4], "category_id": 0},
        ])
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"annotations\[1\]: id must be an integer, got '2'"):
            ingest_coco(p)

    def test_feature_rows_follow_ascending_ids(self, tmp_path):
        doc = coco_doc([
            {"id": 2**63 - 1, "image_id": 1, "bbox": [0, 0, 4, 4], "category_id": 0},
            {"id": 0, "image_id": 1, "bbox": [0, 0, 2, 2], "category_id": 1},
        ])
        p = tmp_path / "ann.json"
        p.write_text(json.dumps(doc))
        table = ingest_coco(p)
        assert table.ids.tolist() == [0, 2**63 - 1]
        assert table.feature_refs.tolist() == [0, 1]


class TestObjectRecordIds:
    @pytest.mark.parametrize("field, value", [
        ("object_id", 2**63), ("image_id", -(2**63) - 1), ("class_id", 2**64),
        ("object_id", 1.0), ("image_id", "3"), ("class_id", True), ("object_id", None),
    ])
    def test_non_int64_id_rejected(self, field, value):
        kw = dict(object_id=1, image_id=1, bbox=(0.0, 0.0, 2.0, 2.0), area=4.0, class_id=0)
        with pytest.raises(ValueError, match=f"{field} must be an int64 integer, got {value!r}"):
            ObjectRecord(**{**kw, field: value})

    def test_negative_object_id_rejected(self):
        # a checkpoint's neighbour rows pad with -1, so no object id may be negative
        with pytest.raises(ValueError, match="object -1: object_id must not be negative"):
            ObjectRecord(-1, 1, (0.0, 0.0, 2.0, 2.0), 4.0)

    def test_int64_bounds_and_numpy_ints_accepted(self):
        r = ObjectRecord(np.int64(2**63 - 1), -(2**63), (0.0, 0.0, 2.0, 2.0), 4.0, class_id=np.int32(3))
        assert ObjectTable([r]).ids.tolist() == [2**63 - 1]


class TestManifest:
    def test_round_trip(self, tmp_path):
        recs = [
            ObjectRecord(0, 3, (0.5, 1.25, 10.0, 4.0), 40.0, class_id=2, feature_ref=0),
            ObjectRecord(1, 3, (0.1, 0.2, 0.3, 0.7), 0.3 * 0.7, class_id=None, feature_ref=1),
        ]
        table = ObjectTable(recs)
        p = tmp_path / "manifest.tsv"
        write_manifest(table, p)
        back = read_manifest(p)
        assert len(back) == 2
        for a, b in zip(table, back):
            assert a.object_id == b.object_id
            assert a.image_id == b.image_id
            assert a.bbox == b.bbox
            assert a.class_id == b.class_id

    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1e6, allow_nan=False),
                st.floats(0.0, 1e6, allow_nan=False),
                st.floats(1e-3, 1e4, allow_nan=False, exclude_min=True),
                st.floats(1e-3, 1e4, allow_nan=False, exclude_min=True),
                st.one_of(st.none(), st.integers(0, 99)),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_exact_floats(self, tmp_path_factory, rows):
        recs = [
            ObjectRecord(i, i % 3, (x, y, w, h), w * h, class_id=c, feature_ref=i)
            for i, (x, y, w, h, c) in enumerate(rows)
        ]
        table = ObjectTable(recs)
        p = tmp_path_factory.mktemp("m") / "manifest.tsv"
        write_manifest(table, p)
        back = read_manifest(p)
        for a, b in zip(table, back):
            assert a.bbox == b.bbox
            assert a.area == b.area


class TestPartition:
    def test_eight_areas_four_groups(self):
        table = make_table([1, 2, 3, 4, 5, 6, 7, 8])
        groups = partition_by_scale(table, 4)
        assert [sorted(groups.group_object_ids(m).tolist()) for m in range(4)] == [
            [0, 1],
            [2, 3],
            [4, 5],
            [6, 7],
        ]

    def test_single_group_is_identity(self):
        table = make_table([5, 1, 9])
        groups = partition_by_scale(table, 1)
        assert sorted(groups.group_object_ids(0).tolist()) == [0, 1, 2]

    def test_equal_areas_tie_break_by_id(self):
        table = make_table([4, 4, 4, 4])
        groups = partition_by_scale(table, 2)
        assert sorted(groups.group_object_ids(0).tolist()) == [0, 1]
        assert sorted(groups.group_object_ids(1).tolist()) == [2, 3]

    def test_errors(self):
        table = make_table([1, 2])
        with pytest.raises(ValueError):
            partition_by_scale(table, 0)
        with pytest.raises(ValueError):
            partition_by_scale(table, 3)

    @given(
        st.lists(st.floats(0.01, 1e6, allow_nan=False), min_size=1, max_size=64),
        st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_quantile_invariants(self, areas, k):
        if k > len(areas):
            k = len(areas)
        table = make_table(areas)
        groups = partition_by_scale(table, k)
        sizes = groups.group_sizes()
        assert sum(sizes) == len(areas)
        assert max(sizes) - min(sizes) <= 1
        # concatenation of groups in order is a sorted-by-area permutation
        concat_areas = np.concatenate(
            [table.areas[groups.group_rows(m)] for m in range(k)]
        )
        assert np.all(np.diff(np.sort(concat_areas)) >= 0)
        for m in range(k - 1):
            a = table.areas[groups.group_rows(m)]
            b = table.areas[groups.group_rows(m + 1)]
            assert a.max() <= b.min()
        assert np.all(np.diff(groups.boundaries) >= 0)

    def test_route_area_covers_line(self):
        table = make_table([1, 2, 3, 4, 5, 6, 7, 8])
        groups = partition_by_scale(table, 4)
        assert groups.route_area(0.0) == 0
        assert groups.route_area(1e9) == 3
        assert groups.route_area(3.5) == 1


class TestSynth:
    def test_deterministic(self):
        cfg = SynthConfig(n_objects=200, seed=42)
        t1, f1 = synth_generate(cfg)
        t2, f2 = synth_generate(cfg)
        assert np.array_equal(f1, f2)
        assert all(a.bbox == b.bbox and a.class_id == b.class_id for a, b in zip(t1, t2))

    def test_zipf_class_counts(self):
        n = 1000
        cfg = SynthConfig(n_classes=4, zipf_exponent=1.0, n_objects=n, seed=7)
        table, _ = synth_generate(cfg)
        counts = np.bincount([r.class_id for r in table], minlength=4)
        weights = 1.0 / np.arange(1, 5)
        p = weights / weights.sum()
        for c in range(4):
            sd = math.sqrt(n * p[c] * (1 - p[c]))
            assert abs(counts[c] - n * p[c]) < 3 * sd
        assert counts[0] / counts[1] == pytest.approx(2.0, rel=0.25)

    def test_isotropic_covariance_without_scale_noise(self):
        sd = 0.7
        cfg = SynthConfig(
            n_classes=1,
            feature_dim=16,
            intra_class_sd=sd,
            scale_noise_gain=0.0,
            n_objects=10_000,
            seed=3,
        )
        _, features = synth_generate(cfg)
        cov = np.cov(features, rowvar=False)
        target = sd * sd * np.eye(16)
        rel = np.linalg.norm(cov - target) / np.linalg.norm(target)
        assert rel < 0.10

    def test_feature_model_matches_base(self):
        cfg = SynthConfig(n_objects=100, seed=11)
        table, features, model = synth_generate_full(cfg)
        ids = table.ids
        assert np.array_equal(model.base_features(ids), features)
        r = table.records[5]
        one = model.features_at(np.array([5]), r.area)[0]
        assert np.allclose(one, features[5], atol=1e-12)
        # noisier at smaller area
        small = model.features_at(np.array([5]), 4.0)[0]
        big = model.features_at(np.array([5]), 1e6)[0]
        mean = model.means[model.class_of[5]]
        assert np.linalg.norm(small - mean) > np.linalg.norm(big - mean)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SynthConfig(n_classes=0)
        with pytest.raises(ValueError):
            SynthConfig(feature_dim=0)

    def test_area_equals_wh(self):
        table, _ = synth_generate(SynthConfig(n_objects=50, seed=1))
        for r in table:
            assert r.area == r.bbox[2] * r.bbox[3]
