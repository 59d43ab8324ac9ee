import gc
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnblend.core import DimensionMismatchError, sq_dists
from knnblend.data import SyntheticSpec, generate_synthetic
from knnblend.datastore import (
    GROUP_SIZE,
    MAGIC,
    BadMagicError,
    ChecksumError,
    Datastore,
    DatastoreLoadError,
    NeighborHit,
    RetrievalUnavailableError,
    TruncatedFileError,
    VersionMismatchError,
    chunk_rows,
)
from knnblend.model import Model, ModelConfig
from knnblend.retrieval import build_datastore

from helpers import full_sort_hits, hits_as_pairs


def random_store(rng, count, dim, num_labels=4):
    keys = rng.normal(size=(count, dim)) * rng.uniform(0.5, 10)
    labels = rng.integers(0, num_labels, size=count)
    return Datastore(keys, labels, num_labels)


# ---------------------------------------------------------------------------
# construction


def test_build_empty():
    store = Datastore(np.zeros((0, 2)), [], num_labels=2)
    assert store.count == 0
    assert len(store) == 0


def test_build_two_entries():
    store = Datastore([(1.0, 0.0), (0.0, 1.0)], [0, 1], num_labels=2)
    assert store.count == 2
    assert store.dim == 2
    assert list(store.labels) == [0, 1]


def test_build_retains_duplicate_keys():
    store = Datastore([(1.0, 1.0), (1.0, 1.0)], [0, 1], num_labels=2)
    assert store.count == 2
    np.testing.assert_array_equal(store.keys[0], store.keys[1])


def test_build_rejects_out_of_range_labels():
    with pytest.raises(ValueError):
        Datastore([(1.0,)], [2], num_labels=2)
    with pytest.raises(ValueError):
        Datastore([(1.0,)], [-1], num_labels=2)


@pytest.mark.parametrize("labels", [[0.7, 1.2], [0, 1.5], [True, 1], ["0", "1"], [0, None]],
                         ids=["fractional", "one-fractional", "boolean", "strings", "none"])
def test_constructor_rejects_labels_that_are_not_integers(labels):
    # np.array(labels, dtype=np.int64) would keep [0.7, 1.2] as [0, 1].
    with pytest.raises(ValueError, match="^labels must be integers"):
        Datastore(np.zeros((2, 3)), labels, 2)


def test_constructor_accepts_whole_float_labels():
    store = Datastore(np.zeros((2, 3)), np.array([1.0, 0.0]), 2)
    assert store.labels.dtype == np.int64 and store.labels.tolist() == [1, 0]


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Datastore(np.zeros((2, 2)), np.zeros(3, dtype=np.int64), 2)
    with pytest.raises(ValueError):
        Datastore(np.zeros(4), np.zeros(4, dtype=np.int64), 2)
    with pytest.raises(ValueError):
        Datastore(np.zeros((2, 2)), np.zeros(2, dtype=np.int64), 0)


def test_store_is_immutable():
    store = Datastore([(1.0, 2.0)], [0], num_labels=1)
    with pytest.raises(ValueError):
        store.keys[0, 0] = 9.0
    with pytest.raises(ValueError):
        store.labels[0] = 0


def test_store_arrays_cannot_be_made_writeable():
    # A writeable key would leave the prefilter's norms describing the old key.
    store = Datastore([(0.0, 0.0), (1.0, 1.0)], [0, 1], num_labels=2)
    for arr in (store.keys, store.labels):
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    np.testing.assert_array_equal(store.keys, [(0.0, 0.0), (1.0, 1.0)])
    assert store.search((1.0, 1.0), k=1) == [NeighborHit(index=1, distance=0.0, label=1)]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e39])
def test_constructor_rejects_non_finite_keys(bad):
    # 1e39 is finite in float64 but overflows the float32 the store holds.
    keys = np.ones((3, 2))
    keys[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Datastore(keys, [0, 1, 0], 2)


def test_constructor_accepts_the_largest_float32_keys():
    big = np.finfo(np.float32).max
    store = Datastore(np.full((2, 3), big, dtype=np.float32), [0, 1], 2)
    assert store.search(np.zeros(3), 1)[0].index == 0


def test_constructor_copies_a_writeable_key_array():
    keys = np.arange(6, dtype=np.float32).reshape(3, 2)
    store = Datastore(keys, [0, 1, 0], 2)
    keys[0, 0] = 99.0
    assert store.keys[0, 0] == 0.0
    assert not np.shares_memory(store.keys, keys)


def test_constructor_copies_keys_and_build_datastore_hands_its_matrix_over():
    keys = np.arange(6, dtype=np.float32).reshape(3, 2).copy()
    keys.setflags(write=False)
    store = Datastore(keys, [0, 1, 0], 2)
    # The caller can turn writing back on for its own array, never for the store's.
    keys.setflags(write=True)
    keys[1] = 100.0
    np.testing.assert_array_equal(store.keys, np.arange(6, dtype=np.float32).reshape(3, 2))
    assert store.search((2.0, 3.0), k=1) == [NeighborHit(index=1, distance=0.0, label=1)]
    for other in (keys[1:], keys.astype(np.float64), np.asfortranarray(keys)):
        other.setflags(write=False)
        assert not np.shares_memory(Datastore(other, [0] * len(other), 2).keys, other)
    # build_datastore's store keeps the matrix it filled: its peak is that
    # matrix plus one encode block (about a third of it at 80,000 rows), not two.
    train, _ = generate_synthetic(SyntheticSpec(num_classes=2, dim=4, per_class_count=50_000))
    model = Model.initialize(ModelConfig(input_dim=4, hidden_dim=4, emb_dim=32), 0)
    tracemalloc.start()
    try:
        built = build_datastore(model, train)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * built.keys.nbytes
    assert built.keys.base.flags.owndata and len(gc.get_referrers(built.keys.base)) == 1


def test_load_copies_keys_out_of_the_file_buffer(tmp_path):
    path = tmp_path / "store.bin"
    random_store(np.random.default_rng(3), count=5, dim=3).save(path)
    loaded = Datastore.load(path)
    assert loaded.keys.base.flags.owndata and not loaded.keys.flags.writeable


# ---------------------------------------------------------------------------
# search


def test_search_hand_example():
    store = Datastore([(0.0, 0.0), (10.0, 10.0)], [0, 1], num_labels=2)
    hits = store.search((1.0, 1.0), k=1)
    assert hits == [NeighborHit(index=0, distance=2.0, label=0)]


def test_search_exact_match_comes_first_with_zero_distance():
    store = Datastore([(5.0, -3.0), (0.0, 0.0), (2.0, 2.0)], [1, 0, 1], num_labels=2)
    hits = store.search((2.0, 2.0), k=3)
    assert hits[0].index == 2
    assert hits[0].distance == 0.0


def test_search_k_larger_than_count_returns_all_sorted():
    rng = np.random.default_rng(8)
    store = random_store(rng, count=7, dim=3)
    hits = store.search(rng.normal(size=3), k=50)
    assert len(hits) == 7
    dists = [h.distance for h in hits]
    assert dists == sorted(dists)


def test_search_ties_break_by_ascending_index():
    store = Datastore(
        [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)], [0, 1, 0, 1], num_labels=2
    )
    hits = store.search((0.0, 0.0), k=4)
    assert [h.index for h in hits] == [0, 1, 2, 3]
    assert all(h.distance == 1.0 for h in hits)


def test_search_empty_store_raises():
    store = Datastore(np.zeros((0, 3)), [], num_labels=2)
    with pytest.raises(RetrievalUnavailableError):
        store.search((0.0, 0.0, 0.0), k=1)


def test_search_rejects_bad_arguments():
    store = Datastore([(1.0, 2.0)], [0], num_labels=1)
    with pytest.raises(ValueError):
        store.search((1.0, 2.0), k=0)
    with pytest.raises(DimensionMismatchError):
        store.search((1.0, 2.0, 3.0), k=1)


def test_search_matches_full_sort_oracle():
    rng = np.random.default_rng(555)
    for _ in range(50):
        count = int(rng.integers(1, 300))
        dim = int(rng.integers(1, 17))
        keys = rng.normal(size=(count, dim))
        if count > 3 and rng.random() < 0.5:
            # plant duplicate keys so distance ties actually occur
            dup = rng.integers(0, count, size=count // 3)
            keys[dup] = keys[int(dup[0])]
        store = Datastore(keys, rng.integers(0, 4, size=count), 4)
        query = rng.normal(size=dim)
        k = int(rng.integers(1, count + 4))
        got = hits_as_pairs(store.search(query, k))
        assert got == full_sort_hits(store, query, k)


def full_sort_batch(store, queries, k):
    """(indices, distances) of a full stable sort of `sq_dists` over every
    key, one query at a time."""
    kk = min(k, store.count)
    indices = np.empty((len(queries), kk), dtype=np.int64)
    distances = np.empty((len(queries), kk))
    for b, q in enumerate(queries):
        d = sq_dists(store.keys, q)
        order = np.argsort(d, kind="stable")[:kk]
        indices[b], distances[b] = order, d[order]
    return indices, distances


@st.composite
def search_cases(draw):
    """(store, queries, k, cuts). The count lies below k, between k and the
    grouped threshold (count // GROUP_SIZE >= 4 k), or just above it, with
    or without tail keys. Keys may repeat or come from a small grid, so
    distances tie. The batch runs from 0 rows to more than three chunks, and
    some of its rows are scaled past the prefilter's overflow limit among
    ordinary rows of the same chunk. `cuts` split the batch anywhere."""
    seed = draw(st.integers(0, 2**32 - 1))
    dim = draw(st.integers(1, 6))
    k = draw(st.integers(1, 16))
    regime = draw(st.sampled_from(["below-k", "plain", "grouped"]))
    if regime == "below-k":
        count = draw(st.integers(1, k))
    elif regime == "plain":
        count = draw(st.integers(k, 4 * GROUP_SIZE * k - 1))
    else:
        count = 4 * GROUP_SIZE * k + draw(st.integers(0, 2 * GROUP_SIZE))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        keys = rng.integers(-1, 2, size=(count, dim)).astype(np.float64)
    else:
        keys = rng.normal(size=(count, dim)) * 3.0
        copies = rng.integers(0, count, size=count // 4)
        keys[copies] = keys[copies[:1]]
    size = draw(st.integers(0, min(3 * chunk_rows(count) + 2, 600)))
    queries = rng.normal(size=(size, dim)) * 3.0
    if size:
        queries[:2] = keys[rng.integers(0, count, size=2)][: min(size, 2)]
        # Past (M + n)^2 >= 2^126, and at 1e39 past float32's range as well.
        huge = rng.random(size) < 0.1
        queries[huge] *= rng.choice([1e20, 1e39], size=(int(huge.sum()), 1))
    cuts = sorted(draw(st.lists(st.integers(0, size), max_size=4)))
    store = Datastore(keys, rng.integers(0, 3, size=count), 3)
    return store, queries, k, cuts


@settings(max_examples=60, deadline=None)
@given(case=search_cases())
def test_search_batch_equals_its_splits_and_a_full_sort(case):
    store, queries, k, cuts = case
    indices, distances = store.search_batch(queries, k)
    assert indices.shape == distances.shape == (len(queries), min(k, store.count))
    parts = [store.search_batch(queries[lo:hi], k)
             for lo, hi in zip([0, *cuts], [*cuts, len(queries)])]
    np.testing.assert_array_equal(np.concatenate([p[0] for p in parts]), indices)
    np.testing.assert_array_equal(np.concatenate([p[1] for p in parts]), distances)
    want_indices, want_distances = full_sort_batch(store, queries, k)
    np.testing.assert_array_equal(indices, want_indices)
    np.testing.assert_array_equal(distances, want_distances)


@pytest.mark.parametrize("k", [17, 40, 64])
def test_search_batch_orders_ties_by_index_in_wide_rows(k):
    # A multi-query chunk takes numpy's default sort, which keeps rows of at
    # most 16 in insertion-sort (stable) order but may order a tie either way
    # in a wider row; every row here has at least k > 16 candidates. Keys come
    # from a 3-point grid, so each is repeated many times. The finite queries
    # are picked, on keys and off them, so that the k-th distance ties the one
    # before and the one after it; queries at 1e160 make every key a candidate
    # at distance inf. Only the stable re-sort of the tied rows gives the
    # (distance, index) order.
    rng = np.random.default_rng(k)
    keys = rng.integers(-1, 2, size=(300, 3)).astype(np.float64)
    store = Datastore(keys, rng.integers(0, 3, size=300), 3)
    pool = np.concatenate([keys[rng.integers(0, 300, size=100)], rng.normal(size=(100, 3))])
    _, wider = full_sort_batch(store, pool, k + 1)
    tied = (wider[:, k - 2] == wider[:, k - 1]) & (wider[:, k - 1] == wider[:, k])
    queries = np.concatenate([pool[tied][:8], pool[100:][tied[100:]][:8],
                              rng.normal(size=(4, 3)) * 1e160])
    assert len(queries) == 20
    queries = queries[rng.permutation(len(queries))]
    assert chunk_rows(store.count) >= len(queries)  # one chunk
    indices, distances = store.search_batch(queries, k)
    want_indices, want_distances = full_sort_batch(store, queries, k)
    np.testing.assert_array_equal(indices, want_indices)
    np.testing.assert_array_equal(distances, want_distances)
    assert np.isinf(distances).all(axis=1).sum() == 4


def test_search_hit_labels_match_store():
    rng = np.random.default_rng(42)
    store = random_store(rng, count=40, dim=5)
    for hit in store.search(rng.normal(size=5), k=10):
        assert hit.label == int(store.labels[hit.index])


def test_search_is_deterministic():
    rng = np.random.default_rng(4)
    store = random_store(rng, count=100, dim=8)
    query = rng.normal(size=8)
    assert store.search(query, 12) == store.search(query, 12)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    store = random_store(rng, count=100, dim=6, num_labels=5)
    path = tmp_path / "store.bin"
    store.save(path)
    loaded = Datastore.load(path)
    assert loaded == store
    assert loaded.dim == store.dim
    assert loaded.count == store.count
    assert loaded.num_labels == store.num_labels
    np.testing.assert_array_equal(loaded.keys, store.keys)
    np.testing.assert_array_equal(loaded.labels, store.labels)


def test_save_load_empty_store(tmp_path):
    store = Datastore(np.zeros((0, 2)), [], num_labels=3)
    path = tmp_path / "empty.bin"
    store.save(path)
    loaded = Datastore.load(path)
    assert loaded.count == 0
    assert loaded.num_labels == 3


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(9)
    store = random_store(rng, count=30, dim=4)
    store.save(tmp_path / "a.bin")
    store.save(tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_load_rejects_corrupted_magic(tmp_path):
    rng = np.random.default_rng(2)
    store = random_store(rng, count=10, dim=3)
    path = tmp_path / "store.bin"
    store.save(path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        Datastore.load(path)


def test_load_rejects_future_version(tmp_path):
    store = Datastore([(1.0,)], [0], num_labels=1)
    path = tmp_path / "store.bin"
    store.save(path)
    blob = bytearray(path.read_bytes())
    blob[len(MAGIC) : len(MAGIC) + 2] = struct.pack("<H", 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        Datastore.load(path)


def test_load_rejects_truncation(tmp_path):
    rng = np.random.default_rng(6)
    store = random_store(rng, count=12, dim=4)
    path = tmp_path / "store.bin"
    store.save(path)
    blob = path.read_bytes()
    for cut in (0, 3, len(MAGIC) + 2, 30, len(blob) - 4, len(blob) - 1):
        short = tmp_path / "short.bin"
        short.write_bytes(blob[:cut])
        with pytest.raises(TruncatedFileError):
            Datastore.load(short)


def test_load_rejects_flipped_payload_byte(tmp_path):
    rng = np.random.default_rng(7)
    store = random_store(rng, count=12, dim=4)
    path = tmp_path / "store.bin"
    store.save(path)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        Datastore.load(path)


def test_load_rejects_trailing_bytes(tmp_path):
    store = Datastore([(1.0, 2.0)], [0], num_labels=1)
    path = tmp_path / "store.bin"
    store.save(path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(DatastoreLoadError):
        Datastore.load(path)
