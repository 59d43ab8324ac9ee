"""Exactness of the batched scoring path against independent oracles.

The search tests use stores of more than two `KEY_BLOCK`s and query batches
of more than one `QUERY_CHUNK`, so every case crosses the blocking that
`Datastore.search_batch` uses; no other test reaches a second key block.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnblend import NonFiniteDistanceError
from knnblend.cli import main
from knnblend.core import softmax
from knnblend.data import Dataset, SyntheticSpec, generate_synthetic
from knnblend.datastore import KEY_BLOCK, QUERY_CHUNK, Datastore, NeighborHit
from knnblend.evaluate import SweepSpec, evaluate_config, run_sweep
from knnblend.model import Model, ModelConfig
from knnblend.retrieval import (
    RetrievalParams,
    build_datastore,
    knn_distribution,
    knn_distribution_batch,
    predict,
    predict_batch,
)
from knnblend.training import Hyperparams, TrainExample, train

from helpers import full_sort_hits, hits_as_pairs, oracle_cell_labels

COUNT = 2 * KEY_BLOCK + 17
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
    queries = rng.normal(size=(2 * QUERY_CHUNK + 3, dim))
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
    examples = [TrainExample(tokens=rng.normal(size=4), label=i % 3, id=i) for i in range(12)]
    store = build_datastore(model, Dataset(examples=examples, num_labels=3, input_dim=4))
    huge = [TrainExample(tokens=np.full(4, 1e200), label=0, id=0)]
    _, r = model.encode(huge[0].tokens)
    assert np.all(np.isfinite(r)) and np.max(np.abs(r)) > 1e160
    return model, store, huge


def test_scoring_entry_points_raise_on_overflowing_distances(overflow_setup):
    model, store, huge = overflow_setup
    params = RetrievalParams(k=4, temperature=10.0, knn_weight=0.5)
    with pytest.raises(NonFiniteDistanceError):
        predict(model, store, huge[0].tokens, params)
    with pytest.raises(NonFiniteDistanceError):
        predict_batch(model, store, [ex.tokens for ex in huge], params)
    with pytest.raises(NonFiniteDistanceError):
        evaluate_config(model, store, huge, params)
    sweep = SweepSpec(k_values=(1, 4), temperature_values=(1.0,), knn_weight_values=(0.0, 0.5))
    with pytest.raises(NonFiniteDistanceError):
        run_sweep(model, store, huge, sweep)
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
    examples = test_ds.examples
    tokens = [ex.tokens for ex in examples]
    gold = [ex.label for ex in examples]
    sweep = SweepSpec(k_values=(1, 8, 64), temperature_values=(0.3, 10.0, 100.0),
                      knn_weight_values=(0.0, 0.3, 1.0))

    h0, r = model.encode_batch(tokens)
    classifier_probs = model.classify(h0)
    ranked = [full_sort_hits(store, row, max(sweep.k_values)) for row in r]
    report = run_sweep(model, store, examples, sweep)
    assert len({row.n_correct for row in report.rows}) > 1  # the grid is informative
    for row in report.rows:
        oracle = oracle_cell_labels(ranked, store.labels, classifier_probs, row.k,
                                    row.temperature, row.knn_weight, store.num_labels)
        exempt = [gap <= 1e-12 for _, gap in oracle]
        labels = predict_batch(model, store, tokens, RetrievalParams(
            k=row.k, temperature=row.temperature, knn_weight=row.knn_weight)).labels
        for got, (want, _), skip in zip(labels, oracle, exempt):
            assert skip or got == want, row
        oracle_correct = sum(want == g for (want, _), g in zip(oracle, gold))
        assert abs(row.n_correct - oracle_correct) <= sum(exempt), row
