import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnblend.data import SyntheticSpec, generate_synthetic
from knnblend.model import ACTIVATIONS, Model, ModelConfig
from knnblend.training import (
    CE_PROB_FLOOR,
    GradCheckReport,
    Hyperparams,
    TrainingDivergedError,
    combined_loss,
    grad_check,
    loss_and_gradients,
    select_pairs,
    train,
)
from knnblend.training import _hinge, _pair_indices, _times_act_grad

from helpers import (
    batch_loss_and_gradients,
    batch_pair_indices,
    batch_train,
    dataset_of,
    make_batch,
    pool_examples,
    scalar_batch_loss,
    scalar_grad_check,
)


def tiny_config(**overrides):
    base = dict(input_dim=5, hidden_dim=4, emb_dim=3, num_labels=3)
    base.update(overrides)
    return ModelConfig(**base)


def pass_through_model(dim=2, num_labels=2, **overrides):
    """A shared identity-activation model whose encoder copies its input, so
    h0 and r are each example's own token vector."""
    cfg = ModelConfig(input_dim=dim, hidden_dim=dim, emb_dim=dim, num_labels=num_labels,
                      activation="identity", decouple_enabled=False, **overrides)
    model = Model.initialize(cfg, 0)
    for w, b in ((model.enc_w1, model.enc_b1), (model.enc_w2, model.enc_b2)):
        w[...] = np.eye(dim)
        b[...] = 0.0
    return model


def ce_of(head_w, label):
    """Cross-entropy of one example with tokens [1, 0] and `label`; the
    pass-through classifier's scores are the first column of head_w."""
    model = pass_through_model(triplet_enabled=False)
    model.head_w[...] = head_w
    batch = dataset_of([[1.0, 0.0]], [label], num_labels=2, input_dim=2).examples
    return combined_loss(model, batch, [(0, None)], Hyperparams())[1].ce


def triplet_of(tokens, pairs, margin):
    """Mean hinge term of a batch whose retrieval vectors are `tokens`."""
    batch = dataset_of(tokens, [0] * len(tokens), num_labels=1, input_dim=len(tokens[0])).examples
    hyper = Hyperparams(triplet_weight=1.0, margin=margin)
    return combined_loss(pass_through_model(len(tokens[0])), batch, pairs, hyper)[1].triplet


# ---------------------------------------------------------------------------
# examples


def test_train_example_normalizes_tokens():
    [ex] = dataset_of([[1, 2]], np.array([1], dtype=np.int32), num_labels=2,
                      input_dim=2).examples
    assert ex.tokens.shape == (1, 2) and ex.tokens.dtype == np.float64
    assert not ex.tokens.flags.writeable
    assert type(ex.label) is int and type(ex.id) is int


def test_train_example_equality_is_by_value():
    a, b = (dataset_of([[1.0, 2.0]], [0], num_labels=1, input_dim=2).examples[0]
            for _ in range(2))
    c, d = dataset_of([[1.0, 2.5], [1.0, 2.0]], [0, 0], num_labels=1, input_dim=2).examples
    assert a is not b and a == b
    assert a != c
    assert a != d  # the same tokens and label under another id


# ---------------------------------------------------------------------------
# loss terms


def test_cross_entropy_certain_prediction_is_zero():
    # exp(-1000) underflows to 0, so the classifier puts all its mass on label 0.
    assert ce_of([[1000.0, 0.0], [0.0, 0.0]], 0) == 0.0


def test_cross_entropy_hand_values():
    assert ce_of(np.zeros((2, 2)), 0) == pytest.approx(math.log(2.0), rel=1e-15)
    head = [[math.log(9.0), 0.0], [0.0, 0.0]]  # probabilities (0.9, 0.1)
    assert ce_of(head, 1) == pytest.approx(-math.log(0.1), rel=1e-12)


def test_cross_entropy_clamps_zero_probability():
    assert ce_of([[1000.0, 0.0], [0.0, 0.0]], 1) == -math.log(CE_PROB_FLOOR)


def test_triplet_loss_inactive_hinge_is_zero():
    tokens = [[0.0, 0.0], [0.0, 1.0], [3.0, 0.0]]
    assert triplet_of(tokens, [(1, 2), (1, None), (2, None)], 1.0) == 0.0


def test_triplet_loss_active_hinge_hand_value():
    tokens = [[0.0, 0.0], [0.0, 2.0], [1.0, 0.0]]
    assert triplet_of(tokens, [(1, 2), (1, None), (2, None)], 0.5) == 3.5 / 3


def test_triplet_loss_equal_pair_distances_give_margin():
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = rng.normal(size=(2, 4))
        m = float(rng.uniform(0.1, 3.0))
        _, _, raw = _hinge(r, np.array([1, 0]), np.array([1, -1]), m)
        assert raw.tolist() == [m]


def test_triplet_loss_is_non_negative():
    rng = np.random.default_rng(6)
    for _ in range(100):
        tokens = rng.normal(size=(4, 3)) * 5
        pairs = [(int(p), int(n)) for p, n in rng.integers(0, 4, size=(4, 2))]
        assert triplet_of(tokens, pairs, 1.0) >= 0.0


# ---------------------------------------------------------------------------
# pair selection


def labelled(*labels):
    """Rows of a dataset of zero tokens with the given labels, ids 0..n-1."""
    return dataset_of(np.zeros((len(labels), 3)), labels, num_labels=max(labels) + 1,
                      input_dim=3).examples


def test_select_pairs_two_same_label():
    rng = np.random.default_rng(0)
    assert select_pairs(labelled(0, 0), rng) == [(1, 1), (0, 0)]


def test_select_pairs_two_different_labels():
    rng = np.random.default_rng(0)
    assert select_pairs(labelled(0, 1), rng) == [(0, 1), (1, 0)]


def test_select_pairs_mixed_batch():
    rng = np.random.default_rng(0)
    pairs = select_pairs(labelled(0, 0, 1), rng)
    assert pairs[0] == (1, 2)
    assert pairs[1] == (0, 2)
    pos2, neg2 = pairs[2]
    assert pos2 == 2  # no same-label mate: falls back to itself
    assert neg2 in (0, 1)


def test_select_pairs_singleton_batch_has_no_negative():
    rng = np.random.default_rng(0)
    assert select_pairs(labelled(0), rng) == [(0, None)]


def test_select_pairs_respects_label_constraints():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        batch = labelled(*[int(rng.integers(3)) for _ in range(n)])
        labels = [e.label for e in batch]
        for i, (pos, neg) in enumerate(select_pairs(batch, rng)):
            assert labels[pos] == labels[i]
            if any(lab != labels[i] for lab in labels):
                assert neg is not None and labels[neg] != labels[i]


def test_select_pairs_is_seeded():
    batch = make_batch(np.random.default_rng(3), 10, 4, 3)
    a = select_pairs(batch, np.random.default_rng(42))
    b = select_pairs(batch, np.random.default_rng(42))
    assert a == b


@pytest.mark.parametrize("labels", [[0, 0, 0, 0, 1, 1, 1, 2], [5, 5, 5, 5]])
def test_select_pairs_draws_uniformly_among_candidates(labels):
    # Each candidate's count is Binomial(draws, 1/m) for m candidates; it
    # must lie within 5 standard deviations of draws/m. A selection that
    # favours any position among the candidates (e.g. always the first) fails.
    batch = labelled(*labels)
    n, draws = len(labels), 3000
    pos_counts = np.zeros((n, n), dtype=np.int64)
    neg_counts = np.zeros((n, n), dtype=np.int64)
    rng = np.random.default_rng(2024)
    for _ in range(draws):
        for i, (pos, neg) in enumerate(select_pairs(batch, rng)):
            pos_counts[i, pos] += 1
            neg_counts[i, neg] += 1
    for i in range(n):
        mates = [j for j in range(n) if j != i and labels[j] == labels[i]] or [i]
        others = [j for j in range(n) if labels[j] != labels[i]] or [
            j for j in range(n) if j != i
        ]
        for candidates, counts in ((mates, pos_counts[i]), (others, neg_counts[i])):
            assert counts.sum() == counts[candidates].sum() == draws
            p = 1.0 / len(candidates)
            bound = 5.0 * math.sqrt(draws * p * (1.0 - p))
            for j in candidates:
                assert abs(counts[j] - draws * p) <= bound, (i, j, counts[j])


@settings(max_examples=300, deadline=None)
@given(
    labels=st.lists(st.integers(0, 3), min_size=1, max_size=40),
    batch_size=st.integers(1, 42),
    seed=st.integers(0, 2**32 - 1),
)
@example(labels=[0] * 6 + [1] * 4, batch_size=3, seed=0)  # a remainder batch of one
@example(labels=[2] * 9, batch_size=4, seed=1)  # every batch has a single label
@example(labels=[1], batch_size=1, seed=2)
def test_epoch_pair_draw_matches_batch_by_batch_draws(labels, batch_size, seed):
    labels = np.array(labels, dtype=np.int64)
    epoch_rng, batch_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    pos, neg = _pair_indices(labels, batch_size, epoch_rng)
    for start in range(0, labels.shape[0], batch_size):
        want_pos, want_neg = batch_pair_indices(labels[start : start + batch_size], batch_rng)
        np.testing.assert_array_equal(pos[start : start + batch_size], want_pos)
        np.testing.assert_array_equal(neg[start : start + batch_size], want_neg)
    assert pos.dtype == neg.dtype == np.int64
    assert epoch_rng.bit_generator.state == batch_rng.bit_generator.state


@pytest.mark.parametrize("n, batch_size, num_labels", [
    (127, 128, 2), (128, 128, 2), (128, 64, 2), (129, 128, 3), (128, 1, 2),
    (64, 32, 64), (32767, 32768, 2), (32768, 32768, 2), (32768, 16384, 5),
])
def test_epoch_pair_draw_at_the_edges_of_its_integer_types(n, batch_size, num_labels):
    # The draw keeps keys and positions in the least signed type that holds
    # them; each case puts a row count or a key span at such a type's edge.
    labels = np.random.default_rng(n).integers(0, num_labels, n)
    labels[0] = num_labels - 1
    epoch_rng, batch_rng = np.random.default_rng(n), np.random.default_rng(n)
    pos, neg = _pair_indices(labels, batch_size, epoch_rng)
    for start in range(0, n, batch_size):
        want_pos, want_neg = batch_pair_indices(labels[start : start + batch_size], batch_rng)
        np.testing.assert_array_equal(pos[start : start + batch_size], want_pos)
        np.testing.assert_array_equal(neg[start : start + batch_size], want_neg)
    assert epoch_rng.bit_generator.state == batch_rng.bit_generator.state


def test_select_pairs_rejects_empty_batch():
    with pytest.raises(ValueError):
        select_pairs([], np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the combined objective


def test_combined_loss_weight_zero_is_pure_cross_entropy():
    rng = np.random.default_rng(7)
    batch = make_batch(rng, 6, 5, 3)
    model = Model.initialize(tiny_config(), 1)
    pairs = select_pairs(batch, rng)
    hyper = Hyperparams(triplet_weight=0.0)
    total, terms = combined_loss(model, batch, pairs, hyper)
    assert total == terms.ce
    assert total == terms.total


def test_combined_loss_weight_one_is_pure_triplet():
    rng = np.random.default_rng(8)
    batch = make_batch(rng, 6, 5, 3)
    model = Model.initialize(tiny_config(), 1)
    pairs = select_pairs(batch, rng)
    total, terms = combined_loss(model, batch, pairs, Hyperparams(triplet_weight=1.0))
    assert total == terms.triplet


def test_combined_loss_matches_scalar_recomputation():
    rng = np.random.default_rng(9)
    for decouple in (True, False):
        for tw in (0.0, 0.25, 0.5, 1.0):
            cfg = tiny_config(decouple_enabled=decouple)
            model = Model.initialize(cfg, int(rng.integers(1 << 30)))
            batch = make_batch(rng, 5, 5, 3)
            pairs = select_pairs(batch, rng)
            hyper = Hyperparams(triplet_weight=tw, margin=0.7)
            total, terms = combined_loss(model, batch, pairs, hyper)
            ce, trip, expected_total = scalar_batch_loss(model, batch, pairs, tw, 0.7)
            assert terms.ce == pytest.approx(ce, rel=1e-9, abs=1e-12)
            assert terms.triplet == pytest.approx(trip, rel=1e-9, abs=1e-12)
            assert total == pytest.approx(expected_total, rel=1e-9, abs=1e-12)


def test_combined_loss_disabled_hinge_is_unscaled_cross_entropy():
    rng = np.random.default_rng(10)
    cfg = tiny_config(triplet_enabled=False, decouple_enabled=False)
    model = Model.initialize(cfg, 2)
    batch = make_batch(rng, 4, 5, 3)
    pairs = select_pairs(batch, rng)
    total, terms = combined_loss(model, batch, pairs, Hyperparams(triplet_weight=0.7))
    assert total == terms.ce
    assert terms.triplet == 0.0


def test_combined_loss_validates_arguments():
    model = Model.initialize(tiny_config(), 0)
    batch = make_batch(np.random.default_rng(0), 3, 5, 3)
    with pytest.raises(ValueError):
        combined_loss(model, [], [], Hyperparams())
    with pytest.raises(ValueError):
        combined_loss(model, batch, [(0, 1)], Hyperparams())


def test_loss_and_gradients_covers_every_parameter():
    rng = np.random.default_rng(12)
    model = Model.initialize(tiny_config(), 4)
    batch = make_batch(rng, 6, 5, 3)
    pairs = select_pairs(batch, rng)
    terms, grads = loss_and_gradients(model, batch, pairs, Hyperparams())
    params = model.parameters()
    assert set(grads) == set(params)
    for name, g in grads.items():
        assert g.shape == params[name].shape
        assert np.all(np.isfinite(g))
    total, expected = combined_loss(model, batch, pairs, Hyperparams())
    assert terms == expected
    assert terms.total == total


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
def test_in_place_activation_derivative_equals_grad_from_output(activation):
    # Every activation the config accepts, at the bits of its public rule;
    # the derivative's output is scratch, and the public rule stays pure.
    rng = np.random.default_rng(13)
    y = ACTIVATIONS[activation].fn(rng.normal(size=(7, 5)) * 3)
    y[0, :3] = [0.0, -0.0, 1.0]
    d = rng.normal(size=y.shape)
    before = y.copy()
    expected = d * ACTIVATIONS[activation].grad_from_output(y)
    assert y.tobytes() == before.tobytes()
    _times_act_grad(d, y, activation)
    assert d.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# gradient checking


@pytest.mark.parametrize("triplet", [True, False], ids=["triplet", "no-triplet"])
@pytest.mark.parametrize("decouple", [True, False], ids=["decoupled", "shared"])
@pytest.mark.parametrize("tw", [0.0, 0.5, 1.0])
def test_loss_and_gradients_equal_zero_started_accumulation(decouple, triplet, tw):
    # The second input reaches the cross-entropy floor: under tanh no
    # probability falls near it, but an identity head scaled by 200 puts gold
    # probabilities near 1e-70, and those rows get zero gradient.
    for activation, rows, head_scale in (("tanh", 9, 1.0), ("identity", 6, 200.0)):
        config = tiny_config(decouple_enabled=decouple, triplet_enabled=triplet,
                             activation=activation)
        model = Model.initialize(config, 41)
        model.head_w *= head_scale
        batch = make_batch(np.random.default_rng(41), rows, 5, 3)
        hyper = Hyperparams(triplet_weight=tw)
        pairs = select_pairs(batch, np.random.default_rng(41))
        terms, grads = loss_and_gradients(model, batch, pairs, hyper)
        x = pool_examples(batch, model.config.pooling)
        labels = np.array([ex.label for ex in batch])
        pos = np.array([p for p, _ in pairs])
        neg = np.array([-1 if q is None else q for _, q in pairs])
        want_terms, want = batch_loss_and_gradients(model, x, labels, pos, neg, hyper)
        assert (terms.total, terms.ce, terms.triplet) == want_terms
        assert list(grads) == list(want)
        for name, grad in grads.items():
            np.testing.assert_array_equal(grad, want[name], err_msg=name)
        if head_scale != 1.0:
            gold = model.classify(model.features(x).h0)[np.arange(rows), labels]
            assert gold.min() <= CE_PROB_FLOOR
            assert grad_check(model, batch, hyper).passed


# Rows 0, 2 and 5 have no negative. With each row its own positive, every
# distance to a positive is zero, so a tiny margin leaves no hinge active.
HAND_PAIRS = {
    "mixed": [(1, None), (0, 2), (3, None), (2, 5), (6, 1), (5, None), (4, 0)],
    "self": [(0, None), (1, 2), (2, None), (3, 5), (4, 1), (5, None), (6, 0)],
}


@pytest.mark.parametrize("pairs", list(HAND_PAIRS))
@pytest.mark.parametrize("margin", [1.0, 1e-9])
@pytest.mark.parametrize("triplet", [True, False], ids=["triplet", "no-triplet"])
@pytest.mark.parametrize("decouple", [True, False], ids=["decoupled", "shared"])
@pytest.mark.parametrize("tw", [0.0, 0.5, 1.0])
def test_loss_and_gradients_with_rows_lacking_negatives(decouple, triplet, tw, margin, pairs):
    model = Model.initialize(tiny_config(decouple_enabled=decouple, triplet_enabled=triplet), 43)
    batch = make_batch(np.random.default_rng(43), 7, 5, 3)
    hyper = Hyperparams(triplet_weight=tw, margin=margin)
    terms, grads = loss_and_gradients(model, batch, HAND_PAIRS[pairs], hyper)
    x = pool_examples(batch, model.config.pooling)
    labels = np.array([ex.label for ex in batch])
    pos = np.array([p for p, _ in HAND_PAIRS[pairs]])
    neg = np.array([-1 if q is None else q for _, q in HAND_PAIRS[pairs]])
    _, _, raw = _hinge(model.features(x).r, pos, neg, margin)
    assert raw.shape == (4,)  # the hinge skips the rows without a negative
    if pairs == "self" and margin == 1e-9:
        assert not (raw > 0.0).any()
    if pairs == "mixed" and margin == 1.0:
        assert (raw > 0.0).any()
    want_terms, want = batch_loss_and_gradients(model, x, labels, pos, neg, hyper)
    assert (terms.total, terms.ce, terms.triplet) == want_terms
    assert list(grads) == list(want)
    for name, grad in grads.items():
        assert grad.tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("decouple", [True, False])
@pytest.mark.parametrize("tw", [0.0, 0.5, 1.0])
def test_grad_check_passes_small_configs(decouple, tw):
    cfg = tiny_config(decouple_enabled=decouple)
    model = Model.initialize(cfg, 17)
    batch = make_batch(np.random.default_rng(17), 6, 5, 3)
    report = grad_check(model, batch, Hyperparams(triplet_weight=tw, seed=17))
    assert report.finite
    assert report.passed, report
    assert report.num_checked == sum(a.size for a in model.parameters().values())


def test_grad_check_passes_with_hinge_disabled():
    cfg = tiny_config(triplet_enabled=False)
    model = Model.initialize(cfg, 3)
    batch = make_batch(np.random.default_rng(3), 5, 5, 3)
    report = grad_check(model, batch, Hyperparams(triplet_weight=0.9, seed=3))
    assert report.passed, report


def test_grad_check_leaves_the_model_untouched():
    model = Model.initialize(tiny_config(), 23)
    before = {name: arr.copy() for name, arr in model.parameters().items()}
    batch = make_batch(np.random.default_rng(23), 6, 5, 3)
    grad_check(model, batch, Hyperparams(triplet_weight=0.5, seed=23))
    for name, arr in model.parameters().items():
        np.testing.assert_array_equal(arr, before[name])


def test_grad_check_dead_input_column_has_exactly_zero_gradient():
    # A feature that is zero across the batch cannot influence the loss, so
    # both the analytic and numeric gradients of its weights vanish and the
    # comparison must go through the absolute (not relative) criterion.
    rng = np.random.default_rng(29)
    tokens = rng.normal(size=(6, 1, 5))
    tokens[:, :, 2] = 0.0
    batch = dataset_of(tokens, [i % 3 for i in range(6)], num_labels=3, input_dim=5).examples
    model = Model.initialize(tiny_config(), 29)
    hyper = Hyperparams(triplet_weight=0.5, seed=29)
    pairs = select_pairs(batch, np.random.default_rng(29))
    _, grads = loss_and_gradients(model, batch, pairs, hyper)
    np.testing.assert_array_equal(grads["enc_w1"][:, 2], np.zeros(4))
    report = grad_check(model, batch, hyper)
    assert report.passed, report


def test_grad_check_reports_non_finite_loss_instead_of_raising():
    model = Model.initialize(tiny_config(), 31)
    model.dec_w2.fill(1e200)
    batch = make_batch(np.random.default_rng(31), 4, 5, 3)
    report = grad_check(model, batch, Hyperparams(triplet_weight=0.5, seed=31))
    assert not report.finite
    assert not report.passed
    assert "non-finite" in report.note


def test_grad_check_is_deterministic_for_a_seed():
    model = Model.initialize(tiny_config(), 37)
    batch = make_batch(np.random.default_rng(37), 5, 5, 3)
    a = grad_check(model, batch, Hyperparams(triplet_weight=0.5, seed=5))
    b = grad_check(model, batch, Hyperparams(triplet_weight=0.5, seed=5))
    assert a == b


def test_grad_check_matches_the_scalar_oracle():
    # Every field but worst_param equals the array-by-array oracle's over a
    # grid that resamples and fails in places. worst_param is checked against
    # its own rule: the largest error over tolerance, the first of equals.
    resampled = failed = 0
    for decouple, hinge, tw, step, seed in itertools.product(
            (True, False), (True, False), (0.0, 0.5, 1.0), (1e-5, 3e-3), range(12)):
        model = Model.initialize(
            tiny_config(decouple_enabled=decouple, triplet_enabled=hinge), seed)
        batch = make_batch(np.random.default_rng(seed), 6, 5, 3)
        hyper = Hyperparams(triplet_weight=tw, seed=seed)
        got = grad_check(model, batch, hyper, step=step)
        want, entries = scalar_grad_check(model, batch, hyper, step=step)
        case = (decouple, hinge, tw, step, seed)
        assert (dataclasses.replace(got, worst_param=None)
                == dataclasses.replace(want, worst_param=None)), case
        largest, worst = 0.0, None
        for name, error, tolerance in entries:
            if error / tolerance > largest:
                largest, worst = error / tolerance, name
        assert got.worst_param == worst, case
        resampled += got.resample_attempts > 0
        failed += not got.passed
    assert resampled and failed


def test_grad_check_jitters_off_a_hinge_kink_and_then_passes():
    model = Model.initialize(tiny_config(emb_dim=4, decouple_enabled=False), 3)
    before = {name: arr.copy() for name, arr in model.parameters().items()}
    batch = make_batch(np.random.default_rng(3), 6, 5, 3)
    report = grad_check(model, batch, Hyperparams(triplet_weight=0.5, seed=3), step=1e-3)
    assert report.resample_attempts == 1 and report.passed, report
    assert report.num_checked == 56
    for name, arr in model.parameters().items():
        np.testing.assert_array_equal(arr, before[name])


def test_grad_check_gives_up_when_jitter_cannot_clear_the_kink():
    model = Model.initialize(tiny_config(emb_dim=4, decouple_enabled=False), 0)
    batch = make_batch(np.random.default_rng(0), 6, 5, 3)
    report = grad_check(model, batch, Hyperparams(triplet_weight=0.5, seed=0), step=1.0)
    assert report == GradCheckReport(
        passed=False, finite=True, max_rel_error=math.inf, max_abs_error=math.inf,
        num_checked=0, resample_attempts=25, worst_param=None,
        note="could not move all hinge margins away from the kink",
    )


def test_grad_check_fails_a_non_finite_difference_as_an_infinite_relative_error():
    # A finite loss whose (w + step) side overflows: two same-label points
    # whose squared distance sits just under the float64 maximum, on a
    # shared identity model with a zero head.
    cfg = ModelConfig(input_dim=1, hidden_dim=1, emb_dim=1, num_labels=2,
                      activation="identity", decouple_enabled=False)
    model = Model(config=cfg, enc_w1=[[1.0]], enc_b1=[0.0], enc_w2=[[1.0]], enc_b2=[0.0],
                  head_w=[[0.0], [0.0]])
    far = math.sqrt(np.finfo(np.float64).max * (1.0 - 1e-5))
    batch = dataset_of([[0.0], [far], [0.0]], [0, 0, 1], num_labels=2, input_dim=1).examples
    hyper = Hyperparams(triplet_weight=1.0, seed=0)
    report = grad_check(model, batch, hyper)
    # The oracle calls `_loss` directly, so it enters the scope that every
    # training entry runs under.
    with np.errstate(over="ignore", invalid="ignore"):
        want, _ = scalar_grad_check(model, batch, hyper)
    assert dataclasses.replace(report, worst_param=None) == dataclasses.replace(
        want, worst_param=None)
    assert report.finite and not report.passed and report.max_rel_error == math.inf
    assert report.worst_param == "enc_w1[0]"  # the first of two infinite errors


def test_grad_check_rejects_empty_batch():
    model = Model.initialize(tiny_config(), 0)
    with pytest.raises(ValueError):
        grad_check(model, [], Hyperparams())


@pytest.mark.parametrize("step", [0.0, -1e-5, math.nan, math.inf])
def test_grad_check_rejects_a_step_that_is_not_positive_and_finite(step):
    model = Model.initialize(tiny_config(), 0)
    batch = make_batch(np.random.default_rng(0), 4, 5, 3)
    with pytest.raises(ValueError, match="step must be positive and finite"):
        grad_check(model, batch, Hyperparams(), step=step)


# ---------------------------------------------------------------------------
# the training loop


def two_blob_data(n_per_class=100, dim=4, offset=3.0, seed=19):
    rng = np.random.default_rng(seed)
    vecs = []
    for label in (0, 1):
        sign = 1.0 if label == 0 else -1.0
        for _ in range(n_per_class):
            vec = rng.normal(size=dim)
            vec[0] += sign * offset
            vecs.append(vec)
    labels = [0] * n_per_class + [1] * n_per_class
    return dataset_of(vecs, labels, num_labels=2, input_dim=dim).examples


def model_accuracy(model, data):
    correct = 0
    for example in data:
        h0, _ = model.encode(example.tokens)
        if int(np.argmax(model.classify(h0))) == example.label:
            correct += 1
    return correct / len(data)


def test_train_fits_separable_blobs():
    data = two_blob_data()
    config = ModelConfig(input_dim=4, hidden_dim=8, emb_dim=8, num_labels=2)
    hyper = Hyperparams(epochs=10, batch_size=16, seed=3)
    model, log = train(data, hyper, config)
    assert len(log) == 10
    assert model_accuracy(model, data) >= 0.99
    assert log[-1].mean_ce < log[0].mean_ce


def test_train_groups_retrieval_representations_by_label():
    data = two_blob_data()
    config = ModelConfig(input_dim=4, hidden_dim=8, emb_dim=8, num_labels=2)
    model, _ = train(data, Hyperparams(epochs=10, batch_size=16, seed=3), config)
    reps = np.stack([model.encode(examp.tokens)[1] for examp in data])
    labels = np.array([examp.label for examp in data])
    intra, inter = [], []
    rng = np.random.default_rng(0)
    for _ in range(400):
        i, j = rng.integers(len(data), size=2)
        if i == j:
            continue
        d = float(np.sum((reps[i] - reps[j]) ** 2))
        (intra if labels[i] == labels[j] else inter).append(d)
    assert np.mean(intra) < np.mean(inter)


def test_train_zero_epochs_returns_initial_model():
    data = two_blob_data(n_per_class=10)
    config = ModelConfig(input_dim=4, hidden_dim=6, emb_dim=5, num_labels=2)
    hyper = Hyperparams(epochs=0, seed=13)
    model, log = train(data, hyper, config)
    assert log == []
    reference = Model.initialize(config, np.random.default_rng(13))
    for name, arr in model.parameters().items():
        np.testing.assert_array_equal(arr, reference.parameters()[name])


def test_train_is_deterministic_for_a_seed():
    data = two_blob_data(n_per_class=20)
    config = ModelConfig(input_dim=4, hidden_dim=6, emb_dim=5, num_labels=2)
    hyper = Hyperparams(epochs=3, batch_size=8, seed=11)
    model_a, log_a = train(data, hyper, config)
    model_b, log_b = train(data, hyper, config)
    for name, arr in model_a.parameters().items():
        np.testing.assert_array_equal(arr, model_b.parameters()[name])
    for stats_a, stats_b in zip(log_a, log_b):
        assert stats_a.epoch == stats_b.epoch
        assert stats_a.mean_ce == stats_b.mean_ce
        assert stats_a.mean_triplet == stats_b.mean_triplet
        assert stats_a.mean_total == stats_b.mean_total


def _mixed_length_data(n, seed=43):
    """n examples over three labels, with one to three tokens each."""
    rng = np.random.default_rng(seed)
    seqs, labels = [], []
    for i in range(n):
        seqs.append(rng.normal(size=(1 + i % 3, 5)))
        labels.append(int(rng.integers(3)))
    return dataset_of(seqs, labels, num_labels=3, input_dim=5).examples


@pytest.mark.parametrize("batch_size", [1, 7, 32, 33, 34], ids=lambda b: f"batch{b}")
@pytest.mark.parametrize("pooling", ["cls", "mean", "max"])
@pytest.mark.parametrize("tw", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("triplet", [True, False], ids=["triplet", "no-triplet"])
@pytest.mark.parametrize("decouple", [True, False], ids=["decoupled", "shared"])
def test_train_matches_the_batch_by_batch_loop(decouple, triplet, tw, pooling, batch_size):
    # 34 rows: batch sizes n - 1 (a remainder batch of one) and n, and 1, 7, 32.
    data = _mixed_length_data(34)
    config = tiny_config(decouple_enabled=decouple, triplet_enabled=triplet, pooling=pooling)
    hyper = Hyperparams(triplet_weight=tw, batch_size=batch_size, epochs=2, seed=batch_size)
    model, log = train(data, hyper, config)
    want_model, want_means = batch_train(data, hyper, config)
    for name, arr in model.parameters().items():
        assert arr.tobytes() == want_model.parameters()[name].tobytes(), name
    assert [(s.mean_ce, s.mean_triplet, s.mean_total) for s in log] == want_means


def test_train_raises_on_divergence():
    # Identical token vectors carrying both labels make the hinge objective
    # unsatisfiable (every anchor has a negative at distance zero), so at an
    # absurd learning rate the weights grow until the loss leaves the floats.
    rng = np.random.default_rng(19)
    tokens = rng.normal(size=(12, 4))
    data = dataset_of([*tokens, *tokens], [0] * 12 + [1] * 12, num_labels=2,
                      input_dim=4).examples
    config = ModelConfig(input_dim=4, hidden_dim=6, emb_dim=5, num_labels=2)
    hyper = Hyperparams(epochs=10, batch_size=8, learning_rate=1e25, seed=0)
    with pytest.raises(TrainingDivergedError):
        train(data, hyper, config)


@pytest.mark.parametrize("decouple", [True, False], ids=["decoupled", "shared"])
@pytest.mark.parametrize("entry", ["train", "grad_check", "combined_loss",
                                   "loss_and_gradients"])
def test_every_training_entry_reports_divergence_without_a_warning(entry, decouple):
    # Weights scaled by 1e160 overflow the forward pass itself, before any
    # loss is formed; `train` gets there from an absurd learning rate. Each
    # entry must report the non-finite loss, and the repository's
    # error::RuntimeWarning filter turns any warning into a failure here.
    rng = np.random.default_rng(23)
    tokens = rng.normal(size=(12, 4))
    rows = dataset_of([*tokens, *tokens], [0] * 12 + [1] * 12, num_labels=2,
                      input_dim=4).examples
    config = ModelConfig(input_dim=4, hidden_dim=4, emb_dim=4, num_labels=2,
                         decouple_enabled=decouple)
    model = Model.initialize(config, 23)
    for arr in model.parameters().values():
        arr *= 1e160
    hyper = Hyperparams(epochs=10, batch_size=8, learning_rate=1e25, seed=23)
    pairs = select_pairs(rows, np.random.default_rng(23))
    if entry == "train":
        with pytest.raises(TrainingDivergedError):
            train(rows, hyper, config)
    elif entry == "grad_check":
        report = grad_check(model, rows, hyper)
        assert not report.finite and not report.passed
    elif entry == "combined_loss":
        assert not math.isfinite(combined_loss(model, rows, pairs, hyper)[0])
    else:
        assert not math.isfinite(loss_and_gradients(model, rows, pairs, hyper)[0].total)


def test_divergence_is_a_typed_error_when_warnings_are_errors():
    # On the hard spec at lr 1 the shared model's hinge margins sum past
    # float64 in epoch 4; that must surface as TrainingDivergedError, not as
    # an overflow RuntimeWarning raised in its place.
    spec = SyntheticSpec(num_classes=8, dim=16, class_separation=2.5, noise_sigma=1.5,
                         per_class_count=500, seed=7)
    train_ds, _ = generate_synthetic(spec)
    config = ModelConfig(input_dim=16, num_labels=8, decouple_enabled=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(TrainingDivergedError, match="epoch 4"):
            train(train_ds.examples, Hyperparams(learning_rate=1.0, seed=7), config)


def test_train_single_label_is_fine_without_the_hinge():
    data = dataset_of([np.random.default_rng(i).normal(size=4) for i in range(8)], [0] * 8,
                      num_labels=2, input_dim=4).examples
    config = ModelConfig(input_dim=4, hidden_dim=4, emb_dim=4, num_labels=2)
    model, log = train(data, Hyperparams(epochs=2, triplet_weight=0.0, seed=0), config)
    assert len(log) == 2
    assert all(math.isfinite(stats.mean_total) for stats in log)
    assert model.config == config


def test_train_validates_inputs():
    config = ModelConfig(input_dim=4, hidden_dim=4, emb_dim=4, num_labels=2)
    with pytest.raises(ValueError):
        train([], Hyperparams(), config)
    bad = dataset_of([np.zeros(4)], [5], num_labels=6, input_dim=4).examples
    with pytest.raises(ValueError):
        train(bad, Hyperparams(), config)
    single = dataset_of(np.zeros((4, 4)), [0] * 4, num_labels=1, input_dim=4).examples
    with pytest.raises(ValueError):
        train(single, Hyperparams(triplet_weight=0.5), config)


@pytest.mark.parametrize("entry", ["train", "grad_check", "combined_loss",
                                   "loss_and_gradients"])
def test_every_training_entry_refuses_labels_past_the_model(entry):
    # Rows of a 4-label dataset that use label 3, for a 2-label model: the
    # one batch adapter refuses them before any loss is formed.
    rows = dataset_of(np.random.default_rng(8).normal(size=(6, 4)), [0, 1, 2, 3, 0, 1],
                      num_labels=4, input_dim=4).examples
    config = ModelConfig(input_dim=4, hidden_dim=4, emb_dim=4, num_labels=2)
    model = Model.initialize(config, 8)
    hyper = Hyperparams(epochs=1, seed=8)
    pairs = select_pairs(rows, np.random.default_rng(8))
    calls = {
        "train": lambda: train(rows, hyper, config),
        "grad_check": lambda: grad_check(model, rows, hyper),
        "combined_loss": lambda: combined_loss(model, rows, pairs, hyper),
        "loss_and_gradients": lambda: loss_and_gradients(model, rows, pairs, hyper),
    }
    with pytest.raises(ValueError, match="^example 2 label 2 out of range for 2 labels$"):
        calls[entry]()


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        Hyperparams(triplet_weight=-0.1)
    with pytest.raises(ValueError):
        Hyperparams(triplet_weight=1.5)
    with pytest.raises(ValueError):
        Hyperparams(margin=0.0)
    with pytest.raises(ValueError):
        Hyperparams(learning_rate=0.0)
    with pytest.raises(ValueError):
        Hyperparams(batch_size=0)
    with pytest.raises(ValueError):
        Hyperparams(epochs=-1)


def test_epoch_stats_line_has_every_field():
    data = two_blob_data(n_per_class=8)
    config = ModelConfig(input_dim=4, hidden_dim=4, emb_dim=4, num_labels=2)
    _, log = train(data, Hyperparams(epochs=1, seed=0), config)
    line = log[0].format_line()
    for key in ("epoch=1", "mean_ce=", "mean_triplet=", "mean_total=", "wall_ms="):
        assert key in line
    # the loss fields round-trip through repr
    fields = dict(part.split("=", 1) for part in line.split())
    assert float(fields["mean_ce"]) == log[0].mean_ce
    assert float(fields["mean_total"]) == log[0].mean_total
