"""Exactness of the batched scoring path against independent oracles.

The search tests use stores of more than two `KEY_BLOCK`s and query batches
of more than one chunk (`CHUNK` queries on such a store), so every case
crosses the query chunking of `Datastore.search_batch`. A recheck of every
key (large k, or when the float32 prefilter cannot narrow them) runs in
blocks of `RECHECK_BYTES // (8 dim)` candidates; at dim 4 and 8 their
boundaries, for a chunk's first query, include `KEY_BLOCK` multiples where
ties are planted.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnblend import NonFiniteDistanceError, datastore
from knnblend.cli import main
from knnblend.core import softmax, sq_dists
from knnblend.data import Dataset, SyntheticSpec, generate_synthetic
from knnblend.datastore import GROUP_SIZE, KEY_BLOCK, Datastore, NeighborHit, chunk_rows
from knnblend.evaluate import SweepSpec, evaluate_config, run_sweep
from knnblend.model import POOLING_MODES, Model, ModelConfig, pool
from knnblend.retrieval import (
    RetrievalParams,
    build_datastore,
    knn_distribution,
    knn_distribution_batch,
    predict,
    predict_batch,
)
from knnblend.training import Hyperparams, train

from helpers import dataset_of, full_sort_hits, hits_as_pairs, oracle_cell_labels

COUNT = 2 * KEY_BLOCK + 17
CHUNK = chunk_rows(COUNT)  # queries per chunk on a COUNT-key store
# Keys that receive copies of one key: both sides of both block boundaries.
PLANTED = np.array([KEY_BLOCK - 2, KEY_BLOCK - 1, KEY_BLOCK, 2 * KEY_BLOCK - 1, 2 * KEY_BLOCK])


def planted_store(seed, dim, grid, k):
    """A COUNT-key store whose k-th nearest key to queries[0] is copied onto
    PLANTED, so a tie group straddles block boundaries and the k-th place.

    `grid` draws keys from a few integer values, so distances tie massively.
    Returns (store, queries): more than two query chunks, one query sitting
    exactly on a planted key.
    """
    rng = np.random.default_rng(seed)
    if grid:
        keys = rng.integers(-2, 3, size=(COUNT, dim)).astype(np.float32)
    else:
        keys = (rng.normal(size=(COUNT, dim)) * 3.0).astype(np.float32)
    queries = rng.normal(size=(2 * CHUNK + 3, dim))
    d = ((keys.astype(np.float64) - queries[0]) ** 2).sum(axis=1)
    kth = np.argsort(d, kind="stable")[min(k, COUNT) - 1]
    keys[PLANTED] = keys[kth]
    queries[1] = keys[kth]
    store = Datastore(keys, rng.integers(5, size=COUNT), num_labels=5)
    return store, queries


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 8),
    grid=st.booleans(),
    k=st.one_of(st.sampled_from([1, 3, 64, COUNT, COUNT + 5]), st.integers(1, COUNT)),
)
def test_search_batch_equals_search_and_full_sort_across_blocks(seed, dim, grid, k):
    store, queries = planted_store(seed, dim, grid, k)
    indices, distances = store.search_batch(queries, k)
    assert indices.shape == distances.shape == (len(queries), min(k, COUNT))
    for b, query in enumerate(queries):
        batch_pairs = list(zip(distances[b].tolist(), indices[b].tolist()))
        assert hits_as_pairs(store.search(query, k)) == batch_pairs
        if b < 2:
            assert batch_pairs == full_sort_hits(store, query, k)


def prefilter_case(name):
    """(store, queries, k) where the float32 prefilter is at its limits.

    Every store has COUNT keys and every batch more than one CHUNK, so
    a recheck of all keys crosses KEY_BLOCK boundaries. The cases that set
    queries set rows 0, 1 and -1, the rows the test checks.
    """
    if name == "planted-grid":
        store, queries = planted_store(5, 6, grid=True, k=64)
        return store, queries, 64
    rng = np.random.default_rng(11)
    keys = rng.normal(size=(COUNT, 6))
    queries = rng.normal(size=(CHUNK + 2, 6))
    k = COUNT if name == "k-equals-count" else 10
    if name.startswith("offset-"):
        # |k|^2 - 2 k.q cancels: at 1e4 the product's rounding error swamps
        # the gaps between neighbors, and only the margin keeps them.
        offset = float(name.removeprefix("offset-"))
        keys += offset
        queries += offset
    elif name == "near-float32-max":
        # Squared norms and products overflow float32. Half the keys stay
        # ordinary, and query 0 sits among the huge ones.
        huge = keys[::2]
        keys[::2] = np.sign(huge) * rng.uniform(2.7e38, 3e38, size=huge.shape)
        queries[0] = keys[0] * 0.99
    elif name == "product-overflow":
        # |v|^2 is 0.9 of float32's largest value: every key norm fits
        # float32, but -2 k.q overflows for query 0 = key 0 = v. Keys at
        # 0.6 v plus an orthogonal part overflow the product and lie far from
        # v; keys at 0.5 v do not overflow and lie near it. A limit taken
        # from the overflowed entries would keep only the far keys.
        v = np.zeros(6)
        v[0] = np.sqrt(0.9 * float(np.finfo(np.float32).max))
        w = np.zeros(6)
        w[1] = np.sqrt(0.5) * v[0]
        keys[0] = v
        keys[1::3] = 0.5 * v + rng.normal(size=(len(keys[1::3]), 6))
        keys[2::3] = 0.6 * v + w + rng.normal(size=(len(keys[2::3]), 6))
        queries[0] = keys[0].astype(np.float32)
    elif name == "query-beyond-float32":
        queries[0] = 1e39
        queries[1] = [5e-324, -1e-310, 1e-40, 1e-45, 0.0, 2e-308]  # subnormal or zero
        queries[-1, 0] = -1e39
    store = Datastore(keys.astype(np.float32), rng.integers(5, size=COUNT), num_labels=5)
    return store, queries, k


@pytest.mark.parametrize("name", [
    "offset-30", "offset-1e4", "near-float32-max", "product-overflow",
    "query-beyond-float32", "k-equals-count", "planted-grid",
])
def test_prefiltered_search_equals_a_full_sort(name):
    store, queries, k = prefilter_case(name)
    indices, distances = store.search_batch(queries, k)
    for b in (0, 1, len(queries) - 1):
        pairs = list(zip(distances[b].tolist(), indices[b].tolist()))
        assert pairs == full_sort_hits(store, queries[b], k), (name, b)


def grouped_store(layout, k, extra, seed, dim):
    """A store of 64 k + extra keys, around the size where the prefilter
    starts to take its threshold from the minima of GROUP_SIZE-key strided
    groups (count // GROUP_SIZE >= 4 k), and queries whose row 0 is `center`.

    "grid" draws keys from a few integer values, so distances tie massively,
    and centers on the last key, which is in the tail when there is one. The
    other layouts move the center's nearest keys to within 0.03 of a center
    far from all other keys: "one-group" moves min(k, GROUP_SIZE) keys, all
    in one strided group; "tail" moves k keys, first the tail keys beyond
    the groups, then keys 0, 1, ..., one per group.
    """
    count = 64 * k + extra
    groups = count // GROUP_SIZE
    rng = np.random.default_rng(seed)
    if layout == "grid":
        keys = rng.integers(-2, 3, size=(count, dim)).astype(np.float32)
        center = keys[-1].astype(np.float64)
    else:
        keys = (rng.normal(size=(count, dim)) * 3.0).astype(np.float32)
        center = np.full(dim, 30.0)
        if layout == "one-group":
            near = groups // 2 + groups * np.arange(min(k, GROUP_SIZE))
        else:
            tail = np.arange(GROUP_SIZE * groups, count)[:k]
            near = np.concatenate([tail, np.arange(k - len(tail))])
        keys[near] = center + rng.uniform(-0.01, 0.01, size=(len(near), dim))
    queries = np.vstack([center, rng.normal(size=(CHUNK, dim)) * 3.0])
    return Datastore(keys, rng.integers(5, size=count), num_labels=5), queries


@pytest.mark.parametrize("layout", ["grid", "one-group", "tail"])
@pytest.mark.parametrize("extra", [-1, 0, 1, GROUP_SIZE - 1])
@pytest.mark.parametrize("k", [1, 8, 64])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6))
def test_group_threshold_search_equals_a_full_sort(layout, extra, k, seed, dim):
    store, queries = grouped_store(layout, k, extra, seed, dim)
    indices, distances = store.search_batch(queries, k)
    for b in (0, len(queries) - 1):
        pairs = list(zip(distances[b].tolist(), indices[b].tolist()))
        assert pairs == full_sort_hits(store, queries[b], k), b
    if layout == "tail":
        # The k nearest keys lie in the tail or in distinct groups and far
        # from the rest, so the threshold is their k-th: the recheck sees
        # exactly k keys.
        rechecked = []

        def counting_sq_dists(keys, q):
            rechecked.append(len(keys))
            return sq_dists(keys, q)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datastore, "sq_dists", counting_sq_dists)
            store.search_batch(queries[:1], k)
        assert sum(rechecked) == k


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 8), grid=st.booleans())
def test_batched_vote_is_bitwise_the_per_row_vote(seed, dim, grid):
    store, queries = planted_store(seed, dim, grid, 64)
    indices, distances = store.search_batch(queries, 64)
    labels = store.labels[indices]
    hit_lists = [store.search(query, 64) for query in queries]
    for k in (1, 2, 7, 64):
        for temperature in (0.01, 1.0, 10.0, 1e3):
            batch = knn_distribution_batch(
                labels[:, :k], distances[:, :k], temperature, store.num_labels
            )
            for b, hits in enumerate(hit_lists):
                single = knn_distribution(hits[:k], temperature, store.num_labels)
                np.testing.assert_array_equal(batch[b], single)


def test_softmax_batch_rows_equal_single_rows():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(9, 6)) * 40.0
    rows = softmax(logits)
    for b in range(len(logits)):
        np.testing.assert_array_equal(rows[b], softmax(logits[b]))
    logits[4, 2] = np.inf
    with pytest.raises(ValueError):
        softmax(logits)


@pytest.mark.parametrize("mode", POOLING_MODES)
def test_pool_encode_and_predict_do_not_depend_on_memory_layout(mode):
    """One sequence given C-ordered, Fortran-ordered, as a strided view and
    as a list gives the same bytes from `pool`, `Model.encode` and `predict`.
    A Fortran-ordered copy would be pooled down its contiguous axis, whose
    pairwise sum rounds differently."""
    rng = np.random.default_rng(12)
    seq = rng.normal(size=(40, 16)) * 3.0
    wide = np.zeros((80, 48))
    wide[::2, ::3] = seq
    layouts = {"fortran": np.asfortranarray(seq), "strided": wide[::2, ::3], "list": seq.tolist()}
    train_ds, _ = generate_synthetic(SyntheticSpec(num_classes=4, dim=16, per_class_count=20))
    model = Model.initialize(ModelConfig(input_dim=16, num_labels=4, pooling=mode), 12)
    store = build_datastore(model, train_ds)
    params = RetrievalParams(k=8, temperature=10.0, knn_weight=0.5)

    def outputs(tokens):
        h0, r = model.encode(tokens)
        probs = predict(model, store, tokens, params).probs
        return [arr.tobytes() for arr in (pool(tokens, mode), h0, r, probs)]

    want = outputs(seq)
    for name, tokens in layouts.items():
        assert outputs(tokens) == want, name


# ---------------------------------------------------------------------------
# non-finite distances


def test_overflowing_query_distances_raise_a_typed_error():
    store = Datastore(np.eye(4), [0, 1, 0, 1], num_labels=2)
    hits = store.search(np.full(4, 1e200), 2)
    assert [h.distance for h in hits] == [np.inf, np.inf]
    with pytest.raises(NonFiniteDistanceError):
        knn_distribution(hits, 10.0, 2)


def test_tiny_temperature_needs_one_finite_scaled_distance():
    exact = [NeighborHit(0, 0.0, 0), NeighborHit(1, 1.0, 1)]
    np.testing.assert_array_equal(knn_distribution(exact, 1e-320, 2), [1.0, 0.0])
    with pytest.raises(NonFiniteDistanceError):
        knn_distribution([NeighborHit(0, 1.0, 0), NeighborHit(1, 2.0, 1)], 1e-320, 2)


@pytest.fixture
def overflow_setup():
    """An identity-activation model whose retrieval vector for a finite
    1e200 input is finite but whose squared distances overflow."""
    rng = np.random.default_rng(60)
    cfg = ModelConfig(input_dim=4, hidden_dim=6, emb_dim=5, num_labels=3,
                      activation="identity")
    model = Model.initialize(cfg, 60)
    dataset = Dataset(rng.normal(size=(12, 4)), np.ones(12), np.arange(12) % 3, 3, 4)
    store = build_datastore(model, dataset)
    huge_ds = dataset_of([np.full(4, 1e200)], [0], num_labels=3, input_dim=4)
    _, r = model.encode(huge_ds.examples[0].tokens)
    assert np.all(np.isfinite(r)) and np.max(np.abs(r)) > 1e160
    return model, store, huge_ds


def test_scoring_entry_points_raise_on_overflowing_distances(overflow_setup):
    model, store, huge_ds = overflow_setup
    huge = huge_ds.examples
    params = RetrievalParams(k=4, temperature=10.0, knn_weight=0.5)
    with pytest.raises(NonFiniteDistanceError):
        predict(model, store, huge[0].tokens, params)
    with pytest.raises(NonFiniteDistanceError):
        predict_batch(model, store, huge_ds, params)
    with pytest.raises(NonFiniteDistanceError):
        evaluate_config(model, store, huge_ds, params)
    sweep = SweepSpec(k_values=(1, 4), temperature_values=(1.0,), knn_weight_values=(0.0, 0.5))
    with pytest.raises(NonFiniteDistanceError):
        run_sweep(model, store, huge_ds, sweep)
    # The classifier alone never consults the distances.
    assert predict(model, store, huge[0].tokens, RetrievalParams(knn_weight=0.0)).label >= 0


def test_cli_predict_exits_2_on_overflowing_distances(overflow_setup, tmp_path, capsys):
    model, store, _ = overflow_setup
    model.save(tmp_path / "model.json")
    store.save(tmp_path / "store.bin")
    (tmp_path / "huge.jsonl").write_text(json.dumps({"features": [1e200] * 4, "label": 0}) + "\n")
    code = main(["predict", "--model", str(tmp_path / "model.json"),
                 "--datastore", str(tmp_path / "store.bin"),
                 "--data", str(tmp_path / "huge.jsonl"), "--knn-weight", "0.5"])
    assert code == 2
    assert "not finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep cells against a per-example oracle


def test_every_sweep_cell_matches_a_per_example_oracle():
    """Each cell's per-example labels (through `predict_batch`) and its
    n_correct (through `run_sweep`) against `oracle_cell_labels`, which
    recomputes search, vote, blend and argmax independently over the same
    encoded r. An example whose oracle top-two blended probabilities lie
    within 1e-12 is exempt: the oracle's `math.exp` and Python sums may
    round that near-tie either way. Nothing else is tolerated.
    """
    train_ds, test_ds = generate_synthetic(SyntheticSpec(
        num_classes=8, dim=16, per_class_count=50, class_separation=2.5,
        noise_sigma=1.5, seed=17,
    ))
    config = ModelConfig(input_dim=16, hidden_dim=32, emb_dim=32, num_labels=8)
    model, _ = train(train_ds.examples, Hyperparams(epochs=10, seed=17), config)
    store = build_datastore(model, train_ds)
    gold = test_ds.labels().tolist()
    sweep = SweepSpec(k_values=(1, 8, 64), temperature_values=(0.3, 10.0, 100.0),
                      knn_weight_values=(0.0, 0.3, 1.0))

    h0, r = model.encode_batch(test_ds)
    classifier_probs = model.classify(h0)
    ranked = [full_sort_hits(store, row, max(sweep.k_values)) for row in r]
    report = run_sweep(model, store, test_ds, sweep)
    assert len({row.n_correct for row in report.rows}) > 1  # the grid is informative
    for row in report.rows:
        oracle = oracle_cell_labels(ranked, store.labels, classifier_probs, row.k,
                                    row.temperature, row.knn_weight, store.num_labels)
        exempt = [gap <= 1e-12 for _, gap in oracle]
        labels = predict_batch(model, store, test_ds, RetrievalParams(
            k=row.k, temperature=row.temperature, knn_weight=row.knn_weight)).labels
        for got, (want, _), skip in zip(labels, oracle, exempt):
            assert skip or got == want, row
        oracle_correct = sum(want == g for (want, _), g in zip(oracle, gold))
        assert abs(row.n_correct - oracle_correct) <= sum(exempt), row
