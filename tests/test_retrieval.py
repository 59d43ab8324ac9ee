import functools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from knnblend import NonFiniteDistanceError
from knnblend.core import (DimensionMismatchError, as_number, softmax, squared_l2,
                           validate_distribution)
from knnblend.data import Dataset
from knnblend.datastore import WORK_BYTES, Datastore, NeighborHit, RetrievalUnavailableError
from knnblend.model import Model, ModelConfig
from knnblend.retrieval import (
    RetrievalParams,
    build_datastore,
    interpolate,
    interpolate_batch,
    key_blocks,
    knn_distribution,
    knn_distribution_batch,
    predict,
    predict_batch,
)

from helpers import (
    add_at_vote,
    dataset_of,
    full_sort_hits,
    mp_neighbor_distribution,
    random_distribution,
    scalar_forward,
)


def hit(index, distance, label):
    return NeighborHit(index=index, distance=distance, label=label)


# ---------------------------------------------------------------------------
# the neighbor label distribution


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_vote_and_blend_give_a_distribution_or_a_typed_error(data):
    rows = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 6))
    num_labels = data.draw(st.integers(1, 5))
    labels = data.draw(hnp.arrays(np.int64, (rows, k), elements=st.integers(0, num_labels - 1)))
    distances = data.draw(hnp.arrays(
        np.float64, (rows, k), elements=st.floats(0.0, 1.7e308),
    ))
    temperature = data.draw(st.sampled_from([5e-324, np.inf])
                            | st.floats(min_value=5e-324, allow_subnormal=True))
    knn_weight = data.draw(st.floats(0.0, 1.0))
    logits = data.draw(hnp.arrays(np.float64, (rows, num_labels),
                                  elements=st.floats(-50.0, 50.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow or NaN warning fails the case
        try:
            neighbor = knn_distribution_batch(labels, distances, temperature, num_labels)
        except NonFiniteDistanceError:
            return
        blended = interpolate_batch(neighbor, softmax(logits), knn_weight)
    for probs in (neighbor, blended):
        assert probs.shape == (rows, num_labels)
        for row in probs:
            validate_distribution(row)  # in [0, 1], sums to 1 within DISTRIBUTION_ATOL


@st.composite
def vote_cases(draw):
    """(labels, distances, temperature, num_labels); labels at or above
    `used` get no hit, and a distance of 1e6 underflows its weight to 0."""
    rows = draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    num_labels = draw(st.integers(1, 6))
    used = draw(st.integers(1, num_labels))
    labels = draw(hnp.arrays(np.int64, (rows, k), elements=st.integers(0, used - 1)))
    distances = draw(hnp.arrays(np.float64, (rows, k),
                                elements=st.floats(0.0, 20.0) | st.just(1e6)))
    temperature = draw(st.floats(0.5, 50.0))
    return labels, distances, temperature, num_labels


@settings(max_examples=300, deadline=None)
@given(case=vote_cases())
@example(case=(np.array([[0]]), np.array([[3.0]]), 1.0, 1))  # B = 1, k = 1
# Repeated labels, a weight that underflows to 0, and labels no hit uses.
@example(case=(np.array([[1, 1, 1]]), np.array([[0.0, 2000.0, 5.0]]), 1.0, 4))
@example(case=(np.array([[2, 0, 2], [0, 0, 0]]), np.array([[1.0, 1e5, 1.5], [9.0, 3.0, 9.0]]),
               0.5, 5))
def test_vote_sums_each_cell_in_hit_order(case):
    labels, distances, temperature, num_labels = case
    got = knn_distribution_batch(labels, distances, temperature, num_labels)
    assert got.tobytes() == add_at_vote(labels, distances, temperature, num_labels).tobytes()


def test_knn_distribution_single_hit_is_exact_one_hot():
    probs = knn_distribution([hit(0, 3.7, 2)], temperature=10.0, num_labels=4)
    np.testing.assert_array_equal(probs, [0.0, 0.0, 1.0, 0.0])


def test_knn_distribution_equal_distances_split_exactly():
    hits = [hit(0, 5.0, 0), hit(1, 5.0, 1)]
    np.testing.assert_array_equal(
        knn_distribution(hits, temperature=2.0, num_labels=2), [0.5, 0.5]
    )


def test_knn_distribution_worked_example():
    # distances 1 and 2 at temperature 10: weights 1 and e^(-0.1) after the
    # max shift, so the near hit gets 1/(1+e^-0.1) of the mass.
    hits = [hit(0, 1.0, 0), hit(1, 2.0, 1)]
    probs = knn_distribution(hits, temperature=10.0, num_labels=2)
    np.testing.assert_allclose(probs, [0.52498, 0.47502], atol=1e-5)
    oracle = mp_neighbor_distribution([1.0, 2.0], [0, 1], 10.0, 2)
    np.testing.assert_allclose(probs, oracle, rtol=1e-12)


def test_knn_distribution_matches_extended_precision_oracle():
    rng = np.random.default_rng(62)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        num_labels = int(rng.integers(2, 6))
        distances = rng.uniform(0.0, 50.0, size=n)
        labels = rng.integers(num_labels, size=n)
        temperature = float(10.0 ** rng.uniform(-2, 3))
        hits = [hit(i, float(d), int(lab)) for i, (d, lab) in enumerate(zip(distances, labels))]
        probs = knn_distribution(hits, temperature, num_labels)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert probs.min() >= 0.0
        oracle = mp_neighbor_distribution(distances, labels, temperature, num_labels)
        np.testing.assert_allclose(probs, oracle, rtol=1e-10, atol=1e-15)


def test_knn_distribution_is_shift_invariant():
    rng = np.random.default_rng(63)
    for _ in range(30):
        distances = rng.uniform(0.0, 5.0, size=6)
        labels = rng.integers(3, size=6)
        base = knn_distribution(
            [hit(i, float(d), int(lab)) for i, (d, lab) in enumerate(zip(distances, labels))],
            temperature=1.5,
            num_labels=3,
        )
        shifted = knn_distribution(
            [hit(i, float(d) + 100.0, int(lab))
             for i, (d, lab) in enumerate(zip(distances, labels))],
            temperature=1.5,
            num_labels=3,
        )
        np.testing.assert_allclose(shifted, base, atol=1e-9)


def test_knn_distribution_survives_huge_distances():
    hits = [hit(0, 1e6, 0), hit(1, 1e6 + 1.0, 1)]
    probs = knn_distribution(hits, temperature=1.0, num_labels=2)
    assert np.all(np.isfinite(probs))
    assert probs[0] > probs[1] > 0.0


def test_knn_distribution_high_temperature_approaches_label_frequency():
    hits = [hit(0, 0.5, 0), hit(1, 7.0, 0), hit(2, 3.0, 1), hit(3, 9.0, 0)]
    probs = knn_distribution(hits, temperature=1e9, num_labels=2)
    np.testing.assert_allclose(probs, [0.75, 0.25], atol=1e-6)


def test_knn_distribution_low_temperature_sharpens_to_nearest():
    hits = [hit(0, 1.0, 2), hit(1, 1.4, 0), hit(2, 2.0, 1)]
    probs = knn_distribution(hits, temperature=1e-3, num_labels=3)
    assert probs[2] == pytest.approx(1.0, abs=1e-6)


def test_knn_distribution_rejects_bad_input():
    with pytest.raises(RetrievalUnavailableError):
        knn_distribution([], temperature=1.0, num_labels=2)
    with pytest.raises(ValueError):
        knn_distribution([hit(0, 1.0, 5)], temperature=1.0, num_labels=2)
    with pytest.raises(ValueError):
        knn_distribution([hit(0, 1.0, -1)], temperature=1.0, num_labels=2)
    with pytest.raises(ValueError):
        knn_distribution([hit(0, 1.0, 0)], temperature=0.0, num_labels=2)
    with pytest.raises(ValueError):
        knn_distribution([hit(0, 1.0, 0)], temperature=1.0, num_labels=0)


def test_knn_distribution_batch_needs_one_b_by_k_shape():
    labels = np.array([[0, 1, 0, 2], [2, 2, 1, 0]])
    distances = np.array([[1.0, 3.0, 2.0, 9.0], [0.5, 4.0, 4.0, 8.0]])
    rows = [knn_distribution([hit(i, d, lab) for i, (d, lab) in enumerate(zip(ds, ls))],
                             temperature=2.0, num_labels=3)
            for ls, ds in zip(labels, distances)]
    got = knn_distribution_batch(labels, distances, 2.0, 3)
    assert got.tobytes() == np.array(rows).tobytes()
    # Equal sizes are not enough: a transposed or flattened partner would
    # pair labels with other rows' distances.
    for bad_labels, bad_distances in ((labels, distances.reshape(4, 2)),
                                      (labels.reshape(4, 2), distances.reshape(4, 2).T),
                                      (labels.ravel(), distances.ravel()),
                                      (labels, distances[:, :3]),
                                      (labels[None], distances[None])):
        with pytest.raises(DimensionMismatchError):
            knn_distribution_batch(bad_labels, bad_distances, 2.0, 3)
    for empty in ((2, 0), (0, 0)):
        with pytest.raises(RetrievalUnavailableError, match="zero hits"):
            knn_distribution_batch(np.zeros(empty, dtype=np.int64), np.zeros(empty), 2.0, 3)
    assert knn_distribution_batch(np.zeros((0, 4), dtype=np.int64), np.zeros((0, 4)),
                                  2.0, 3).shape == (0, 3)


# ---------------------------------------------------------------------------
# one number rule and one label rule at every entry point


def verdict(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


LABELED = {  # each entry point that takes labels, given one label and the label count
    "Dataset": lambda label, n: Dataset(np.zeros((2, 3)), [1, 1], [label, 0], n, 3),
    "Datastore": lambda label, n: Datastore(np.zeros((2, 3)), [label, 0], n),
    "vote": lambda label, n: knn_distribution_batch([[label, 0]], [[0.5, 0.25]], 1.0, n),
}
COUNTED = {  # each that takes a label count or k, given that number
    **{entry: functools.partial(make, 0) for entry, make in LABELED.items()},
    "validate_distribution": lambda n: validate_distribution([0.5, 0.5], n),
    "search_batch": lambda k: Datastore(np.zeros((2, 3)), [0, 1], 2).search_batch(
        np.zeros((1, 3)), k),
}


@pytest.mark.parametrize("entry", sorted(LABELED))
@pytest.mark.parametrize("label, message", [
    pytest.param(1.9, "labels must be integers, got 1.9", id="fractional"),
    pytest.param(True, "labels must be integers, got True", id="bool"),
    pytest.param("3", "labels must be integers, got '3'", id="string"),
    pytest.param(-1, "example 0 label -1 out of range for 2 labels", id="negative"),
    pytest.param(2, "example 0 label 2 out of range for 2 labels", id="the-count"),
])
def test_every_entry_point_takes_the_one_label_rule(entry, label, message):
    assert verdict(lambda: LABELED[entry](label, 2)) == message


@pytest.mark.parametrize("entry", sorted(COUNTED))
@pytest.mark.parametrize("value", [True, "3"], ids=["bool", "string"])
def test_every_count_and_k_takes_the_config_number_rule(entry, value):
    config = (lambda: RetrievalParams(k=value)) if entry == "search_batch" else (
        lambda: ModelConfig(num_labels=value))
    assert verdict(lambda: COUNTED[entry](value)) == verdict(config)


def test_a_fractional_count_truncates_before_the_vote_checks_its_labels():
    # 2.7 labels are 2, as in a config, so a hit label 2 is out of range: the
    # label rule says so, not numpy's reshape of a third label column.
    assert Datastore(np.zeros((2, 3)), [0, 1], 2.7).num_labels == ModelConfig(
        num_labels=2.7).num_labels == 2
    assert (verdict(lambda: knn_distribution_batch([[1, 2]], [[0.5, 0.25]], 1.0, 2.7))
            == "example 0 label 2 out of range for 2 labels")


# ---------------------------------------------------------------------------
# blending


def test_interpolate_weight_zero_copies_classifier_exactly():
    rng = np.random.default_rng(70)
    for _ in range(50):
        p_knn = random_distribution(rng, 4)
        p_cls = random_distribution(rng, 4)
        blended = interpolate(p_knn, p_cls, 0.0)
        np.testing.assert_array_equal(blended, p_cls)
        assert blended is not p_cls


def test_interpolate_weight_one_copies_neighbors_exactly():
    rng = np.random.default_rng(71)
    for _ in range(50):
        p_knn = random_distribution(rng, 3)
        p_cls = random_distribution(rng, 3)
        blended = interpolate(p_knn, p_cls, 1.0)
        np.testing.assert_array_equal(blended, p_knn)
        assert blended is not p_knn


def test_interpolate_hand_example():
    blended = interpolate([1.0, 0.0], [0.6, 0.4], 0.2)
    np.testing.assert_allclose(blended, [0.68, 0.32], atol=1e-12)


def test_interpolate_stays_a_distribution_between_the_inputs():
    rng = np.random.default_rng(72)
    for _ in range(100):
        p_knn = random_distribution(rng, 5)
        p_cls = random_distribution(rng, 5)
        w = float(rng.random())
        blended = interpolate(p_knn, p_cls, w)
        assert abs(blended.sum() - 1.0) <= 1e-12
        lo = np.minimum(p_knn, p_cls) - 1e-15
        hi = np.maximum(p_knn, p_cls) + 1e-15
        assert np.all(blended >= lo) and np.all(blended <= hi)


@pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])
def test_interpolate_batch_needs_equal_shapes(weight):
    rng = np.random.default_rng(12)
    rows = np.array([random_distribution(rng, 4) for _ in range(3)])
    other = np.array([random_distribution(rng, 4) for _ in range(3)])
    assert interpolate_batch(other, rows, weight).shape == (3, 4)
    # Broadcasting would give rows that do not sum to 1, or a result whose
    # shape depends on the weight.
    for neighbor, classifier in ((np.full((3, 1), 1.0), rows), (rows, rows[0]),
                                 (rows[0], rows), (rows, rows.T), (rows[:2], rows)):
        with pytest.raises(DimensionMismatchError):
            interpolate_batch(neighbor, classifier, weight)


def test_interpolate_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        interpolate([1.0, 0.0], [0.5, 0.25, 0.25], 0.5)
    with pytest.raises(ValueError):
        interpolate([1.0, 0.0], [0.5, 0.5], 1.5)
    with pytest.raises(ValueError):
        interpolate([1.0, 0.0], [0.5, 0.5], -0.1)
    with pytest.raises(ValueError):
        interpolate([0.9, 0.0], [0.5, 0.5], 0.5)


def number_rule(value, name):
    """`as_number`'s ValueError message for `value` as `name`."""
    with pytest.raises(ValueError) as refused:
        as_number(value, name, float)
    return str(refused.value)


@pytest.mark.parametrize("value", ["1.0", "0.5", True, False, None, [0.5]])
def test_vote_and_blend_refuse_a_string_or_bool_as_the_number_rule_does(value):
    # float() would read "0.5" and True, and raise a bare TypeError on None or a
    # list; RetrievalParams refuses each with the number rule's ValueError.
    temperature, weight = number_rule(value, "temperature"), number_rule(value, "knn_weight")
    if isinstance(value, (str, bool)):
        assert temperature == f"temperature must be a number, got {value!r}"
    temperature, weight = f"^{re.escape(temperature)}$", f"^{re.escape(weight)}$"
    with pytest.raises(ValueError, match=temperature):
        knn_distribution_batch([[0]], [[1.0]], value, 2)
    with pytest.raises(ValueError, match=weight):
        interpolate_batch(np.array([1.0, 0.0]), np.array([0.5, 0.5]), value)
    with pytest.raises(ValueError, match=weight):
        interpolate([1.0, 0.0], [0.5, 0.5], value)
    with pytest.raises(ValueError, match=temperature):
        RetrievalParams(temperature=value)


# ---------------------------------------------------------------------------
# end-to-end prediction


def toy_setup(decouple=True, num_labels=3, n=12, seed=50):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(
        input_dim=4, hidden_dim=6, emb_dim=5, num_labels=num_labels,
        decouple_enabled=decouple,
    )
    model = Model.initialize(cfg, int(rng.integers(1 << 30)))
    dataset = Dataset(rng.normal(size=(n, 4)) * 2, np.ones(n), np.arange(n) % num_labels,
                      num_labels, 4)
    return model, dataset


def test_predict_without_retrieval_needs_no_datastore():
    model, dataset = toy_setup()
    params = RetrievalParams(k=4, temperature=1.0, knn_weight=0.0)
    tokens = dataset.examples[0].tokens
    for store in (None, build_datastore(model, dataset)):
        pred = predict(model, store, tokens, params)
        np.testing.assert_array_equal(pred.probs, pred.classifier_probs)
        assert pred.probs is not pred.classifier_probs
        assert pred.neighbor_probs is None
        assert pred.label == int(np.argmax(pred.classifier_probs))


def test_predict_weight_zero_ignores_even_an_empty_store():
    model, dataset = toy_setup()
    empty = dataset_of([], [], num_labels=3, input_dim=4)
    store = build_datastore(model, empty)
    pred = predict(model, store, dataset.examples[0].tokens,
                   RetrievalParams(knn_weight=0.0))
    assert pred.neighbor_probs is None


def test_predict_requires_a_store_when_blending():
    model, dataset = toy_setup()
    with pytest.raises(RetrievalUnavailableError):
        predict(model, None, dataset.examples[0].tokens,
                RetrievalParams(knn_weight=0.5))
    empty_store = build_datastore(model, dataset_of([], [], num_labels=3, input_dim=4))
    with pytest.raises(RetrievalUnavailableError):
        predict(model, empty_store, dataset.examples[0].tokens,
                RetrievalParams(knn_weight=0.5))


def test_predict_rejects_label_count_mismatch():
    model, dataset = toy_setup()
    other_model, other_dataset = toy_setup(num_labels=2, seed=51)
    store = build_datastore(other_model, other_dataset)
    with pytest.raises(ValueError):
        predict(model, store, dataset.examples[0].tokens,
                RetrievalParams(knn_weight=0.5))


@pytest.mark.parametrize("entry", ["predict", "predict_batch"])
def test_a_store_of_another_dimension_is_refused_before_encoding(entry, monkeypatch):
    model, dataset = toy_setup()  # key_dim 5
    store = build_datastore(model, dataset)
    narrow = Model.initialize(ModelConfig(input_dim=4, hidden_dim=6, emb_dim=4, num_labels=3), 0)
    encoded = []
    forward = Model._forward  # the encoder kernel that both paths call
    monkeypatch.setattr(Model, "_forward",
                        lambda self, *args: encoded.append(args) or forward(self, *args))
    params = RetrievalParams(knn_weight=0.5)
    with pytest.raises(DimensionMismatchError,
                       match="^datastore dimension 5 does not match the model's key_dim 4$"):
        if entry == "predict":
            predict(narrow, store, dataset.examples[0].tokens, params)
        else:
            predict_batch(narrow, store, dataset, params)
    assert encoded == []


def test_predict_pure_neighbor_vote_recovers_a_stored_example():
    model, dataset = toy_setup()
    store = build_datastore(model, dataset)
    example = dataset.examples[3]
    pred = predict(model, store, example.tokens,
                   RetrievalParams(k=1, temperature=1.0, knn_weight=1.0))
    assert pred.label == example.label
    np.testing.assert_array_equal(pred.probs, pred.neighbor_probs)
    assert pred.neighbor_probs[example.label] == 1.0


@pytest.mark.parametrize("decouple", [True, False])
def test_predict_blend_matches_straight_line_recomputation(decouple):
    model, dataset = toy_setup(decouple=decouple)
    store = build_datastore(model, dataset)
    params = RetrievalParams(k=5, temperature=2.0, knn_weight=0.5)
    for example in dataset.examples[:6]:
        pred = predict(model, store, example.tokens, params)

        scalar = scalar_forward(model, example.tokens[0])
        scored = full_sort_hits(store, np.array(scalar["r"]), params.k)
        p_knn = np.asarray(mp_neighbor_distribution(
            [d for d, _ in scored],
            [int(store.labels[i]) for _, i in scored],
            params.temperature, 3,
        ))
        expected = 0.5 * p_knn + 0.5 * np.asarray(scalar["probs"])
        np.testing.assert_allclose(pred.probs, expected, atol=1e-9)
        assert pred.label == int(np.argmax(expected))


def test_predict_distributions_are_valid():
    model, dataset = toy_setup()
    store = build_datastore(model, dataset)
    pred = predict(model, store, dataset.examples[1].tokens,
                   RetrievalParams(k=6, temperature=5.0, knn_weight=0.3))
    for probs in (pred.probs, pred.classifier_probs, pred.neighbor_probs):
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert probs.min() >= 0.0


# ---------------------------------------------------------------------------
# building the datastore


def test_build_datastore_keys_are_retrieval_representations():
    model, dataset = toy_setup()
    store = build_datastore(model, dataset)
    assert store.count == len(dataset)
    assert store.dim == model.config.key_dim
    np.testing.assert_array_equal(store.labels, dataset.labels())
    for i, example in enumerate(dataset.examples):
        _, r = model.encode(example.tokens)
        np.testing.assert_array_equal(store.keys[i], r.astype(np.float32))


def test_build_datastore_respects_a_narrow_retrieval_dim():
    rng = np.random.default_rng(55)
    cfg = ModelConfig(input_dim=4, hidden_dim=6, emb_dim=5, num_labels=2,
                      retrieval_dim=2)
    model = Model.initialize(cfg, 1)
    dataset = Dataset(rng.normal(size=(6, 4)), np.ones(6), np.arange(6) % 2, 2, 4)
    store = build_datastore(model, dataset)
    assert store.dim == 2


def test_build_datastore_without_decoupling_keys_on_h0():
    model, dataset = toy_setup(decouple=False)
    store = build_datastore(model, dataset)
    assert store.dim == model.config.emb_dim
    h0, r = model.encode(dataset.examples[0].tokens)
    np.testing.assert_array_equal(r, h0)
    np.testing.assert_array_equal(store.keys[0], h0.astype(np.float32))


def test_build_datastore_empty_dataset_gives_searchless_store():
    model, _ = toy_setup()
    store = build_datastore(model, dataset_of([], [], num_labels=3, input_dim=4))
    assert store.count == 0
    assert store.dim == model.config.key_dim
    with pytest.raises(RetrievalUnavailableError):
        store.search(np.zeros(store.dim), 1)


def test_build_datastore_validates_compatibility():
    model, dataset = toy_setup()
    narrow = dataset_of([np.zeros(3)], [0], num_labels=3, input_dim=3)
    with pytest.raises(DimensionMismatchError):
        build_datastore(model, narrow)
    # Labels that are a subset of the model's key a store over all of them.
    fewer_labels = dataset_of([np.zeros(4), np.ones(4)], [0, 1], num_labels=2, input_dim=4)
    store = build_datastore(model, fewer_labels)
    assert store.num_labels == model.config.num_labels == 3
    batch = predict_batch(model, store, dataset, RetrievalParams(k=2, knn_weight=0.5))
    assert batch.neighbor_probs.shape == (len(dataset), 3)
    past_model = dataset_of([np.zeros(4)], [3], num_labels=4, input_dim=4)
    with pytest.raises(ValueError, match="^example 0 label 3 out of range for 3 labels$"):
        build_datastore(model, past_model)


def test_build_datastore_pools_multi_token_examples():
    cfg = ModelConfig(input_dim=3, hidden_dim=4, emb_dim=3, num_labels=2,
                      pooling="mean")
    model = Model.initialize(cfg, 9)
    rng = np.random.default_rng(9)
    dataset = Dataset(rng.normal(size=(20, 3)), np.full(5, 4), np.arange(5) % 2, 2, 3)
    store = build_datastore(model, dataset)
    _, r = model.encode(dataset.examples[2].tokens)
    np.testing.assert_array_equal(store.keys[2], r.astype(np.float32))


def _single_token_dataset(count, dim=4, num_labels=3):
    rng = np.random.default_rng(count)
    return Dataset(rng.normal(size=(count, dim)), np.ones(count), np.arange(count) % num_labels,
                   num_labels, dim)


# Model sizes by their widest layer. A build block holds at most 5,461 rows at
# width 6 and 1,024 at width 32.
SIZES = {6: dict(input_dim=4, hidden_dim=6, emb_dim=5, retrieval_dim=3),
         32: dict(input_dim=16, hidden_dim=32, emb_dim=32)}


@pytest.mark.parametrize("count", [0, 1, 127, 128, 129, 1024, 1025, 3200, 100_000])
@pytest.mark.parametrize("width", [1, 6, 32, 256, 2**16])
def test_key_blocks_are_the_fewest_equal_blocks_within_the_work_budget(width, count):
    bounds = key_blocks(count, width)
    sizes = np.diff(bounds)
    most = max(1, WORK_BYTES // (8 * width))
    assert bounds[0] == 0 and bounds[-1] == count
    assert len(sizes) == max(1, -(-count // most))
    assert sizes.max() <= most and sizes.max() - sizes.min() <= 1


def test_key_blocks_split_the_benchmark_and_ci_builds_evenly():
    assert key_blocks(0, 32) == [0, 0]
    assert key_blocks(1025, 32) == [0, 512, 1025]
    assert key_blocks(3200, 32) == [0, 800, 1600, 2400, 3200]
    assert key_blocks(384, 256) == [0, 128, 256, 384]
    assert len(key_blocks(100_000, 32)) == 99


@pytest.mark.parametrize("decouple", [True, False], ids=["decoupled", "shared"])
@pytest.mark.parametrize("width, count", [(6, n) for n in (1, 4095, 4096, 4097, 8193)]
                         + [(32, n) for n in (1024, 1025, 2049, 3200, 8193)])
def test_blocked_build_keys_equal_one_unblocked_encode(width, count, decouple):
    # Counts on each side of the split points: one block up to the most rows,
    # then two, three, four and nine equal blocks at width 32.
    cfg = ModelConfig(**SIZES[width], num_labels=3, decouple_enabled=decouple)
    model = Model.initialize(cfg, count)
    dataset = _single_token_dataset(count, dim=cfg.input_dim)
    store = build_datastore(model, dataset)
    _, r = model.encode_batch(dataset)
    assert store.keys.dtype == np.float32
    assert store.keys.tobytes() == r.astype(np.float32).tobytes()
    np.testing.assert_array_equal(store.labels, dataset.labels())


# A block's float64 activations (a1, h0, d1 and r; the pooled input is a view
# of the tokens) each stay within WORK_BYTES: 1 MiB together at these widths.
# Beside them the build and the store hold int64 and float64 arrays of a row
# per example (token bounds, labels and their checked copy, key norms).
# 4,096-row blocks peaked 2.2 to 3.5 MiB above these, and encoding the whole
# store in one pass 23 MB (20k rows) and 70 MB (60k) above the key matrix.
BUILD_BLOCK_ALLOWANCE = 5 * WORK_BYTES
BUILD_ROW_BYTES = 40


def _build_peak(count):
    """A width-32 store of `count` examples and the traced peak of its build."""
    cfg = ModelConfig(input_dim=16, hidden_dim=32, emb_dim=32, num_labels=4)
    model = Model.initialize(cfg, 0)
    dataset = _single_token_dataset(count, dim=16, num_labels=4)
    tracemalloc.start()
    try:
        store = build_datastore(model, dataset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return store, peak


@pytest.mark.parametrize("count", [20_000, 60_000])
def test_build_datastore_memory_is_the_keys_plus_one_block(count):
    store, peak = _build_peak(count)
    assert peak - store.keys.nbytes - BUILD_ROW_BYTES * count < BUILD_BLOCK_ALLOWANCE


@pytest.mark.parametrize("count", [20_000, 60_000])
def test_build_datastore_holds_one_key_matrix(count):
    store, peak = _build_peak(count)
    # The store keeps the matrix build_datastore filled, without a copy.
    assert peak < 2 * store.keys.nbytes


def test_retrieval_params_validation():
    with pytest.raises(ValueError):
        RetrievalParams(k=0)
    with pytest.raises(ValueError):
        RetrievalParams(temperature=0.0)
    with pytest.raises(ValueError):
        RetrievalParams(knn_weight=1.2)
    with pytest.raises(ValueError):
        RetrievalParams(knn_weight=-0.2)


def test_retrieval_params_store_float_fields_as_floats():
    params = RetrievalParams(k=8.7, temperature=10, knn_weight=1)
    assert (params.k, params.temperature, params.knn_weight) == (8, 10.0, 1.0)
    assert type(params.temperature) is float and type(params.knn_weight) is float


def test_search_distance_matches_library_metric():
    # The distances predict() consumes are plain squared-L2 against the
    # widened float32 keys; verify on one concrete case.
    model, dataset = toy_setup()
    store = build_datastore(model, dataset)
    _, r = model.encode(dataset.examples[0].tokens)
    top = store.search(r, 1)[0]
    assert top.distance == squared_l2(r, store.keys[top.index].astype(np.float64))
