"""Embedding store format, exact search, and image ranking tests."""

import math
import struct

import numpy as np
import pytest

from groupvec import backends, encoder, retrieval
from groupvec.backends import _BLOCK_ELEMS
from groupvec.checkpoint import read_container, write_container
from groupvec.data import (
    ObjectRecord,
    ObjectTable,
    SynthConfig,
    BaseFeatureProvider,
    partition_by_scale,
    synth_generate,
)
from groupvec.encoder import EncoderConfig, StudentNet
from groupvec.retrieval import (
    EmbeddingStore,
    embed_all,
    embed_query,
    query,
    rank,
)


def small_table(ids_images_boxes):
    records = []
    for oid, img, box in ids_images_boxes:
        records.append(
            ObjectRecord(
                object_id=oid,
                image_id=img,
                bbox=box,
                area=box[2] * box[3],
                feature_ref=len(records),
            )
        )
    return ObjectTable(records)


def random_store(rng, n=50, dim=8, ids=None):
    vec = rng.normal(size=(n, dim)).astype(np.float32)
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    return EmbeddingStore(vectors=vec, object_ids=np.asarray(ids, dtype=np.int64))


@pytest.fixture
def corpus():
    cfg = SynthConfig(n_objects=40, feature_dim=8, n_classes=4, seed=11)
    table, features = synth_generate(cfg)
    provider = BaseFeatureProvider.from_table(table, features)
    groups = partition_by_scale(table, 2)
    student = StudentNet.init(
        EncoderConfig(
            feature_dim=8, groups=2, hidden_dim=16, trunk_layers=2, student_dim=8, teacher_dim=12
        ),
        seed=5,
    )
    return table, provider, groups, student


def test_store_round_trip_preserves_bytes(tmp_path):
    rng = np.random.default_rng(0)
    store = random_store(rng, ids=np.array([9, 4, 7] + list(range(100, 147)), dtype=np.int64))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    store.save(p1)
    loaded = EmbeddingStore.load(p1)
    # float64 rows, each value a float32, written back as the same bytes
    assert np.array_equal(loaded.vectors, store.vectors)
    assert loaded.vectors.dtype == np.float64
    assert np.array_equal(loaded.vectors.astype(np.float32).astype(np.float64), loaded.vectors)
    assert np.array_equal(loaded.object_ids, store.object_ids)
    loaded.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_store_round_trip(tmp_path):
    path = tmp_path / "empty.bin"
    EmbeddingStore(np.zeros((0, 3)), np.zeros(0, dtype=np.int64)).save(path)
    loaded = EmbeddingStore.load(path)
    assert loaded.vectors.shape == (0, 3)
    assert loaded.object_ids.shape == (0,)


def test_store_header_layout(tmp_path):
    rng = np.random.default_rng(1)
    store = random_store(rng, n=3, dim=2)
    path = tmp_path / "s.bin"
    store.save(path)
    raw = path.read_bytes()
    assert raw[:4] == b"MSG1"
    version, hlen = struct.unpack("<IQ", raw[4:16])
    header = b"format = embedding-store\nmanifest_sha256 = \n"
    assert (version, hlen, raw[16 : 16 + hlen]) == (2, len(header), header)
    at = 16 + hlen
    assert raw[at : at + 4] == struct.pack("<I", 2)
    ids = struct.pack("<H", 3) + b"ids<i8" + struct.pack("<BQ", 1, 3)
    vectors = struct.pack("<H", 7) + b"vectors<f4" + struct.pack("<B2Q", 2, 3, 2)
    assert raw[at + 4 :] == (ids + store.object_ids.astype("<i8").tobytes()
                             + vectors + store.vectors.astype("<f4").tobytes())


def test_store_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="bad store magic b'NOPE': MSG1 expected"):
        EmbeddingStore.load(path)


def test_store_rejects_unknown_version(tmp_path):
    rng = np.random.default_rng(2)
    path = tmp_path / "s.bin"
    random_store(rng, n=2, dim=2).save(path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unsupported store version"):
        EmbeddingStore.load(path)


def test_store_rejects_truncation(tmp_path):
    rng = np.random.default_rng(3)
    path = tmp_path / "s.bin"
    random_store(rng, n=4, dim=4).save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(ValueError, match="truncated"):
        EmbeddingStore.load(path)


def test_store_rejects_a_row_count_numpy_cannot_make(tmp_path):
    # 2**63 rows of width 0 are 0 bytes, so the length check passes
    path = tmp_path / "s.bin"
    random_store(np.random.default_rng(4), n=0, dim=0).save(path)
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"vectors<f4" + struct.pack("<BQ", 2, 0),
                                 b"vectors<f4" + struct.pack("<BQ", 2, 2**63 + 5)))
    with pytest.raises(ValueError, match=f"^{path}: damaged store$"):
        EmbeddingStore.load(path)


def _rewritten(path, header=(), **blobs):
    """Rewrite the store at ``path`` with entries of its header and its
    blobs replaced; an entry given as None is left out."""
    head, old = read_container(path, what="store")
    head.update(header)
    old.update(blobs)
    write_container(path, {k: v for k, v in head.items() if v is not None},
                    {k: v for k, v in old.items() if v is not None})


@pytest.mark.parametrize("damage", [
    pytest.param({"ids": np.array([0, 1, 2**63 - 1, -7])}, id="negative id"),
    pytest.param({"ids": np.arange(4.0)}, id="ids <f8"),
    pytest.param({"ids": np.arange(4, dtype=np.int64).reshape(2, 2)}, id="ids 2-D"),
    pytest.param({"ids": np.arange(3)}, id="ids too few"),
    pytest.param({"ids": np.array([0, 1, 1, 2])}, id="ids repeated"),
    pytest.param({"ids": None}, id="no ids"),
    pytest.param({"vectors": np.zeros((4, 2))}, id="vectors <f8"),
    pytest.param({"vectors": np.zeros(4, dtype=np.float32)}, id="vectors 1-D"),
    pytest.param({"vectors": None}, id="no vectors"),
])
def test_store_rejects_damaged_blobs_in_one_line(tmp_path, damage):
    path = tmp_path / "s.bin"
    random_store(np.random.default_rng(5), n=4, dim=2).save(path)
    _rewritten(path, **damage)
    with pytest.raises(ValueError, match=f"^{path}: damaged store$"):
        EmbeddingStore.load(path)


@pytest.mark.parametrize("header", [{"format": "train-state"}, {"format": None}])
def test_a_file_that_is_not_a_store(tmp_path, header):
    path = tmp_path / "s.bin"
    random_store(np.random.default_rng(6), n=2, dim=2).save(path)
    _rewritten(path, header)
    with pytest.raises(ValueError, match=f"^{path}: not an embedding store$"):
        EmbeddingStore.load(path)


def test_store_records_its_manifest_digest(tmp_path):
    path = tmp_path / "s.bin"
    vec = np.zeros((2, 3), dtype=np.float32)
    EmbeddingStore(vec, np.array([2**62, 5]), "0f" * 32).save(path)
    back = EmbeddingStore.load(path)
    assert back.manifest_sha256 == "0f" * 32
    assert back.object_ids.tolist() == [2**62, 5]
    _rewritten(path, {"manifest_sha256": None})
    with pytest.raises(ValueError, match=f"^{path}: damaged store$"):
        EmbeddingStore.load(path)


def test_store_validates_shapes():
    vec = np.zeros((3, 2), dtype=np.float32)
    with pytest.raises(ValueError, match="align"):
        EmbeddingStore(vectors=vec, object_ids=np.arange(4, dtype=np.int64))
    with pytest.raises(ValueError, match="unique"):
        EmbeddingStore(vectors=vec, object_ids=np.array([1, 1, 2], dtype=np.int64))


def test_query_matches_full_sort_oracle():
    rng = np.random.default_rng(17)
    n, dim = 60, 6
    store = random_store(rng, n=n, dim=dim, ids=rng.permutation(np.arange(100, 100 + n)))
    table = small_table(
        [(int(oid), int(oid) % 7, (1.0, 1.0, 2.0, 2.0)) for oid in store.object_ids]
    )
    for _ in range(5):
        q = rng.normal(size=dim).astype(np.float32).astype(np.float64)
        v64 = store.vectors.astype(np.float64)
        expect = sorted(
            (math.sqrt(float(((v64[i] - q) ** 2).sum())), int(store.object_ids[i]))
            for i in range(n)
        )
        res = query(store, q, topk=10, table=table, query_id=5)
        assert res.query_id == 5
        assert [h.object_id for h in res.hits] == [oid for _, oid in expect[:10]]
        for hit, (d, _) in zip(res.hits, expect):
            assert abs(hit.distance - d) < 1e-12


def test_query_breaks_distance_ties_by_object_id():
    row = np.ones(4, dtype=np.float32)
    vec = np.stack([row, row, row, 2 * row])
    store = EmbeddingStore(vectors=vec, object_ids=np.array([30, 10, 20, 1], dtype=np.int64))
    table = small_table([(oid, 0, (0.0, 0.0, 1.0, 1.0)) for oid in (1, 10, 20, 30)])
    res = query(store, np.ones(4), topk=4, table=table)
    assert [h.object_id for h in res.hits] == [10, 20, 30, 1]
    assert [h.distance for h in res.hits][:3] == [0.0, 0.0, 0.0]


def test_query_clips_topk():
    store = EmbeddingStore(
        vectors=np.eye(3, dtype=np.float32), object_ids=np.arange(3, dtype=np.int64)
    )
    table = small_table([(i, i, (0.0, 0.0, 1.0, 1.0)) for i in range(3)])
    res = query(store, np.zeros(3), topk=10, table=table)
    assert len(res.hits) == 3


def test_query_joins_table_metadata():
    store = EmbeddingStore(
        vectors=np.zeros((1, 2), dtype=np.float32), object_ids=np.array([7], dtype=np.int64)
    )
    table = small_table([(7, 3, (4.0, 5.0, 6.0, 7.0))])
    res = query(store, np.zeros(2), topk=1, table=table)
    assert res.hits[0].image_id == 3
    assert res.hits[0].bbox == (4.0, 5.0, 6.0, 7.0)
    assert res.hits[0].distance == 0.0


def test_query_argument_errors():
    store = EmbeddingStore(
        vectors=np.zeros((2, 3), dtype=np.float32), object_ids=np.arange(2, dtype=np.int64)
    )
    table = small_table([(i, 0, (0.0, 0.0, 1.0, 1.0)) for i in range(2)])
    with pytest.raises(ValueError, match="at least 1"):
        query(store, np.zeros(3), topk=0, table=table)
    with pytest.raises(ValueError, match="query width 2 != store width 3"):
        query(store, np.zeros(2), topk=1, table=table)
    empty = EmbeddingStore(
        vectors=np.zeros((0, 3), dtype=np.float32), object_ids=np.zeros(0, dtype=np.int64)
    )
    with pytest.raises(ValueError, match="empty"):
        query(empty, np.zeros(3), topk=1, table=table)


def _planted_store(rng, n, dim):
    """A criterion-4-style store: random rows, two exact copies of one row
    when there is room, ids drawn from a wider range than the row count."""
    vec = rng.normal(size=(n, dim)).astype(np.float32)
    if n >= 4:
        vec[n // 2] = vec[n // 4]
        vec[n - 1] = vec[n // 4]
    ids = rng.permutation(3 * n).astype(np.int64)[:n]
    return EmbeddingStore(vectors=vec, object_ids=ids)


def test_rank_matches_brute_force_with_planted_duplicates():
    rng = np.random.default_rng(404)
    for case in range(40):
        n, dim = int(rng.integers(2, 200)), int(rng.integers(2, 16))
        store = _planted_store(rng, n, dim)
        # every other query sits on the planted row, so the tie is at zero
        q = store.vectors[n // 4].astype(np.float64) if case % 2 else rng.normal(size=dim)
        order, dist = rank(store, q)
        qq = np.asarray(q).astype(np.float32).astype(np.float64)
        brute = [
            (math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(row, qq))), int(oid))
            for row, oid in zip(store.vectors, store.object_ids)
        ]
        expect = sorted(brute)
        assert [int(i) for i in store.object_ids[order]] == [oid for _, oid in expect]
        assert np.allclose(dist[order], [d for d, _ in expect], rtol=1e-12, atol=1e-12)
        assert sorted(order.tolist()) == list(range(n))
        if n >= 4:
            dup = [n // 4, n // 2, n - 1]
            assert dist[dup[0]] == dist[dup[1]] == dist[dup[2]]
            pos = [int(np.flatnonzero(order == r)[0]) for r in dup]
            by_id = sorted(dup, key=lambda r: store.object_ids[r])
            assert [r for _, r in sorted(zip(pos, dup))] == by_id


def test_rank_stored_row_comes_back_at_exactly_zero():
    rng = np.random.default_rng(405)
    store = _planted_store(rng, 50, 9)
    for row in (0, 7, 12, 49):
        order, dist = rank(store, store.vectors[row].astype(np.float64))
        assert dist[row] == 0.0
        assert dist[order[0]] == 0.0


def _blocked_store(rng, dim):
    """A store of three whole search blocks plus a partial one of 7 rows,
    with ids that fall as rows rise, and one row repeated on both sides
    of each block boundary."""
    rows = max(1, _BLOCK_ELEMS // dim)
    n = 3 * rows + 7
    vec = rng.normal(size=(n, dim)).astype(np.float32)
    dup = [rows - 1, rows, 2 * rows - 1, 2 * rows, 3 * rows - 1, 3 * rows]
    vec[dup] = vec[dup[0]]
    ids = np.arange(n, 0, -1, dtype=np.int64) * 3
    return EmbeddingStore(vectors=vec, object_ids=ids), rows, dup


def _one_shot(store, q):
    v64 = store.vectors.astype(np.float64)
    qq = np.asarray(q, dtype=np.float64).astype(np.float32).astype(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", v64 - qq, v64 - qq))


@pytest.mark.parametrize("dim", [512, 5])
def test_rank_bits_equal_one_shot_across_blocks(dim):
    rng = np.random.default_rng(407)
    store, rows, _ = _blocked_store(rng, dim)
    for q in (rng.normal(size=dim), store.vectors[rows + 3] + rng.normal(size=dim) * 1e-3):
        order, dist = rank(store, q)
        want = _one_shot(store, q)
        assert np.array_equal(dist.view(np.int64), want.view(np.int64))
        assert np.array_equal(order, np.lexsort((store.object_ids, want)))


@pytest.mark.parametrize("dim", [512, 5])
def test_rank_row_in_last_partial_block_at_exactly_zero(dim):
    rng = np.random.default_rng(408)
    store, rows, _ = _blocked_store(rng, dim)
    for row in (3 * rows, 3 * rows + 3, store.count - 1):
        order, dist = rank(store, store.vectors[row].astype(np.float64))
        assert dist[row] == 0.0
        assert dist[order[0]] == 0.0


@pytest.mark.parametrize("dim", [512, 5])
def test_rank_duplicates_across_block_boundaries_order_by_object_id(dim):
    rng = np.random.default_rng(409)
    store, _, dup = _blocked_store(rng, dim)
    for q in (store.vectors[dup[0]], rng.normal(size=dim)):
        order, dist = rank(store, q)
        assert len(set(dist[dup].tolist())) == 1
        pos = np.flatnonzero(np.isin(order, dup))
        assert np.array_equal(pos, pos[0] + np.arange(len(dup)))
        # ids fall as rows rise, so the tie-break reverses the row order
        assert order[pos].tolist() == sorted(dup, reverse=True)


def test_store_holds_one_array_and_rank_reads_it(monkeypatch):
    rng = np.random.default_rng(406)
    rows = rng.normal(size=(20, 4))
    store = EmbeddingStore(rows, np.arange(20))
    # rounded to float32 once, when the store is made, and kept as float64
    assert store.vectors.dtype == np.float64
    assert np.array_equal(store.vectors, rows.astype(np.float32).astype(np.float64))
    assert [name for name in vars(store) if name not in ("object_ids", "manifest_sha256")] == ["vectors"]
    seen = []

    def cross_sqdist(x, c):
        seen.append(x)
        return backends.cross_sqdist(x, c)

    monkeypatch.setattr(retrieval, "cross_sqdist", cross_sqdist)
    table = small_table([(i, 0, (0.0, 0.0, 1.0, 1.0)) for i in range(20)])
    for _ in range(2):
        query(store, rng.normal(size=4), topk=3, table=table)
    assert len(seen) == 2 and all(x is store.vectors for x in seen)


def test_embed_all_routes_rows_through_own_group(corpus):
    table, provider, groups, student = corpus
    store = embed_all(student, table, provider, groups)
    assert store.count == len(table)
    assert store.dim == student.cfg.student_dim
    assert np.array_equal(store.object_ids, table.ids)
    feats = provider.base_features(table.ids)
    for row in (0, 13, 39):
        m = int(groups.assignment[row])
        f_h, _ = student.forward(feats[row : row + 1], m)
        assert np.array_equal(store.vectors[row], f_h[0].astype(np.float32))


def test_embed_all_and_embed_query_compute_only_the_h_head(corpus, monkeypatch):
    table, provider, groups, student = corpus
    heads = []
    affine = encoder._affine

    def recording(params, name, a):
        heads.append(name)
        return affine(params, name, a)

    monkeypatch.setattr(encoder, "_affine", recording)
    embed_all(student, table, provider, groups)
    embed_query(student, groups, provider.base_features(table.ids[:1])[0], 1.0)
    assert {h for h in heads if h.startswith("head")} == {f"head_h{m}" for m in range(groups.k)}


def test_embed_all_is_deterministic_and_file_stable(corpus, tmp_path):
    table, provider, groups, student = corpus
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    embed_all(student, table, provider, groups).save(p1)
    embed_all(student, table, provider, groups).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_embed_query_routes_by_area(corpus):
    table, provider, groups, student = corpus
    feature = provider.base_features(table.ids[:1])[0]
    for m in range(groups.k):
        area = float(np.median(table.areas[groups.group_rows(m)]))
        emb = embed_query(student, groups, feature, area)
        f_h, _ = student.forward(feature[None, :], m)
        assert np.array_equal(emb, f_h[0])


def test_gallery_row_queries_itself_at_distance_zero(corpus, tmp_path):
    table, provider, groups, student = corpus
    path = tmp_path / "store.bin"
    embed_all(student, table, provider, groups).save(path)
    store = EmbeddingStore.load(path)
    row = 21
    res = query(store, store.vectors[row].astype(np.float64), topk=3, table=table)
    assert res.hits[0].object_id == int(table.ids[row])
    assert res.hits[0].distance == 0.0


def test_full_precision_embedding_of_stored_object_hits_zero(corpus):
    # the store keeps float32 rows; querying with the float64 embedding of
    # the same object must still report distance exactly zero
    table, provider, groups, student = corpus
    store = embed_all(student, table, provider, groups)
    row = 13
    oid = int(table.ids[row])
    rec = table.get(oid)
    emb = embed_query(student, groups, provider.base_features(np.array([oid]))[0], rec.area)
    res = query(store, emb, topk=1, table=table)
    assert res.hits[0].object_id == oid
    assert res.hits[0].distance == 0.0
