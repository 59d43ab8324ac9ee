import gc
import struct
import tracemalloc

import numpy as np
import pytest

from knnblend.core import DimensionMismatchError
from knnblend.data import SyntheticSpec, generate_synthetic
from knnblend.datastore import (
    MAGIC,
    BadMagicError,
    ChecksumError,
    Datastore,
    DatastoreLoadError,
    NeighborHit,
    RetrievalUnavailableError,
    TruncatedFileError,
    VersionMismatchError,
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
