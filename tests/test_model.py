import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnblend.core import DimensionMismatchError, as_tokens
from knnblend.model import (
    ACTIVATIONS,
    Model,
    ModelConfig,
    ModelFormatError,
    ModelLoadError,
    ModelShapeError,
    ModelVersionError,
    POOLING_MODES,
    _pool_rows,
    pool,
)

from helpers import affine_forward, copy_model, scalar_forward


def small_config(**overrides):
    base = dict(input_dim=5, hidden_dim=4, emb_dim=3, num_labels=3)
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# pooling


def test_pool_mean_max_cls():
    seq = [(1.0, 3.0), (3.0, 1.0)]
    np.testing.assert_array_equal(pool(seq, "mean"), [2.0, 2.0])
    np.testing.assert_array_equal(pool(seq, "max"), [3.0, 3.0])
    np.testing.assert_array_equal(pool(seq, "cls"), [1.0, 3.0])


def test_pool_singleton_is_identity_for_every_mode():
    rng = np.random.default_rng(1)
    vec = rng.normal(size=6)
    for mode in POOLING_MODES:
        np.testing.assert_array_equal(pool([vec], mode), vec)


def test_pool_accepts_flat_vector_as_single_token():
    np.testing.assert_array_equal(pool((4.0, 5.0), "mean"), [4.0, 5.0])


def test_pool_rejects_bad_input():
    with pytest.raises(ValueError):
        pool([(1.0, 2.0)], "median")
    with pytest.raises(ValueError):
        pool(np.zeros((0, 3)), "mean")
    with pytest.raises(ValueError):
        pool([(np.nan, 1.0)], "cls")


def _pool_one(tokens, mode):
    """Per-row reference: the token rule, then the mode's numpy reduction."""
    seq = as_tokens(tokens)
    return {"cls": seq[0], "mean": seq.mean(axis=0), "max": seq.max(axis=0)}[mode]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pool_rows_matches_the_per_row_rule_bit_for_bit(data):
    mode = data.draw(st.sampled_from(POOLING_MODES))
    dim = data.draw(st.integers(1, 5))
    lengths = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=10))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # Entries spread over magnitudes, so a different summation order rounds differently.
    seqs = [rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-3, 4, size=(n, dim))
            for n in lengths]
    seqs = [seq[0] if len(seq) == 1 and rng.random() < 0.5 else seq for seq in seqs]
    want = np.array([_pool_one(seq, mode) for seq in seqs])
    tokens = np.concatenate([np.atleast_2d(seq) for seq in seqs])
    got = _pool_rows(tokens, np.array(lengths), mode)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", POOLING_MODES)
def test_pool_never_returns_a_view_of_its_tokens(mode):
    seq = np.arange(12.0).reshape(4, 3)
    for tokens in (seq, seq[:1], seq[0]):
        vec = pool(tokens, mode)
        assert vec.flags.writeable and not np.shares_memory(vec, seq)


# ---------------------------------------------------------------------------
# configuration


def test_config_defaults_and_key_dim():
    cfg = ModelConfig()
    assert cfg.key_dim == cfg.emb_dim
    narrow = small_config(retrieval_dim=2)
    assert narrow.key_dim == 2
    shared = small_config(decouple_enabled=False)
    assert shared.key_dim == shared.emb_dim


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(input_dim=0)
    with pytest.raises(ValueError):
        small_config(num_labels=0)
    with pytest.raises(ValueError):
        small_config(retrieval_dim=0)
    with pytest.raises(ValueError):
        small_config(pooling="first")
    with pytest.raises(ValueError):
        small_config(activation="relu")


@pytest.mark.parametrize("flag", ["decouple_enabled", "triplet_enabled"])
@pytest.mark.parametrize("value", ["false", 1, 0, None])
def test_config_flags_must_be_booleans(flag, value):
    with pytest.raises(ValueError, match=flag):
        small_config(**{flag: value})


# ---------------------------------------------------------------------------
# initialization


def test_initialize_is_seeded_and_deterministic():
    cfg = small_config()
    a = Model.initialize(cfg, 33)
    b = Model.initialize(cfg, 33)
    c = Model.initialize(cfg, 34)
    for name, arr in a.parameters().items():
        np.testing.assert_array_equal(arr, b.parameters()[name])
    assert any(
        not np.array_equal(arr, c.parameters()[name])
        for name, arr in a.parameters().items()
    )


def test_initialize_respects_fan_in_bounds():
    cfg = ModelConfig(input_dim=16, hidden_dim=9, emb_dim=4, num_labels=3)
    model = Model.initialize(cfg, 0)
    assert np.abs(model.enc_w1).max() <= 1.0 / math.sqrt(16)
    assert np.abs(model.enc_w2).max() <= 1.0 / math.sqrt(9)
    assert np.abs(model.head_w).max() <= 1.0 / math.sqrt(4)
    assert np.abs(model.dec_w1).max() <= 1.0 / math.sqrt(4)
    assert np.abs(model.dec_w2).max() <= 1.0 / math.sqrt(9)


def test_initialize_without_decoupling_has_no_extra_weights():
    model = Model.initialize(small_config(decouple_enabled=False), 5)
    assert model.dec_w1 is None and model.dec_w2 is None
    assert set(model.parameters()) == {"enc_w1", "enc_b1", "enc_w2", "enc_b2", "head_w"}


# ---------------------------------------------------------------------------
# forward passes


def zero_model(cfg):
    shapes = {
        "enc_w1": (cfg.hidden_dim, cfg.input_dim),
        "enc_b1": (cfg.hidden_dim,),
        "enc_w2": (cfg.emb_dim, cfg.hidden_dim),
        "enc_b2": (cfg.emb_dim,),
        "head_w": (cfg.num_labels, cfg.emb_dim),
    }
    if cfg.decouple_enabled:
        shapes.update(
            dec_w1=(cfg.hidden_dim, cfg.emb_dim),
            dec_b1=(cfg.hidden_dim,),
            dec_w2=(cfg.key_dim, cfg.hidden_dim),
            dec_b2=(cfg.key_dim,),
        )
    return Model(config=cfg, **{k: np.zeros(s) for k, s in shapes.items()})


def test_encode_zero_weights_gives_zero_h0():
    model = zero_model(small_config())
    h0, r = model.encode(np.ones(5))
    np.testing.assert_array_equal(h0, np.zeros(3))
    np.testing.assert_array_equal(r, np.zeros(3))


def test_encode_without_decoupling_returns_h0_as_r():
    model = Model.initialize(small_config(decouple_enabled=False), 2)
    h0, r = model.encode(np.arange(5.0))
    np.testing.assert_array_equal(h0, r)
    cache = model.features(np.arange(5.0)[None, :])
    assert cache.r is cache.h0


def test_encode_with_decoupling_gives_distinct_r():
    model = Model.initialize(small_config(retrieval_dim=2), 2)
    h0, r = model.encode(np.arange(5.0))
    assert h0.shape == (3,)
    assert r.shape == (2,)


def test_forward_matches_scalar_oracle():
    rng = np.random.default_rng(88)
    for decouple in (True, False):
        for _ in range(10):
            cfg = small_config(decouple_enabled=decouple)
            model = Model.initialize(cfg, int(rng.integers(1 << 30)))
            x = rng.normal(size=5) * 3
            h0, r = model.encode(x)
            expected = scalar_forward(model, x)
            np.testing.assert_allclose(h0, expected["h0"], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(r, expected["r"], rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(
                model.classify(h0), expected["probs"], rtol=1e-12, atol=1e-15
            )


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_activations_leave_their_argument_unchanged(name):
    y = np.random.default_rng(3).normal(size=(4, 3))
    before = y.tobytes()
    for fn in ACTIVATIONS[name]:
        fn(y)
        assert y.tobytes() == before


@pytest.mark.parametrize("decouple", [True, False], ids=["decoupled", "shared"])
@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
@pytest.mark.parametrize("shape", [(5,), (2, 5), (32, 5), (33, 5)])
def test_forward_matches_the_one_expression_oracle_and_reads_only(decouple, activation, shape):
    cfg = small_config(retrieval_dim=2, activation=activation, decouple_enabled=decouple)
    model = Model.initialize(cfg, 61)
    x = np.random.default_rng(62).normal(size=shape) * 3
    x.flags.writeable = False
    got = model._forward(x)
    for have, want in zip(got, affine_forward(model, x)):
        assert (have is None) == (want is None)
        if want is not None:
            assert have.shape == want.shape and have.tobytes() == want.tobytes()
    act = ACTIVATIONS[activation].fn
    assert model._logits(got[1]).tobytes() == act(got[1] @ model.head_w.T).tobytes()
    if x.ndim == 2:
        cache = model.features(x)
        assert cache.x is x
        for have, want in zip((cache.a1, cache.h0, cache.d1, cache.r), got):
            assert have is None if want is None else have.tobytes() == want.tobytes()


def test_classify_zero_head_is_uniform():
    model = zero_model(small_config())
    np.testing.assert_array_equal(
        model.classify(np.array([0.3, -0.2, 0.9])), np.full(3, 1.0 / 3.0)
    )


def test_classify_output_is_valid_distribution():
    rng = np.random.default_rng(10)
    model = Model.initialize(small_config(), 4)
    for _ in range(50):
        probs = model.classify(rng.normal(size=3) * 10)
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert probs.min() >= 0.0


@settings(max_examples=100, deadline=None)
@given(
    num_labels=st.integers(2, 12),
    emb_dim=st.integers(1, 6),
    scale=st.sampled_from([1e-3, 1.0, 10.0, 1e3, 1e6]),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_tanh_head_caps_the_classifier_confidence(num_labels, emb_dim, scale, seed):
    # tanh puts every logit in [-1, 1], so softmax gives no label more than
    # e / (e + (L - 1) / e); a head saturated at +1 for one label and -1 for
    # the rest reaches it. The cap's float64 value may differ from the
    # softmax's by rounding, so it is allowed a few units in the last place.
    cap = math.e / (math.e + (num_labels - 1) / math.e)
    rng = np.random.default_rng(seed)
    config = small_config(emb_dim=emb_dim, num_labels=num_labels)
    assert config.activation == "tanh"
    weights = Model.initialize(config, rng).parameters()
    model = Model(config=config, **{**weights, "head_w": rng.normal(size=(num_labels, emb_dim))
                                    * scale})
    h0 = rng.normal(size=(32, emb_dim)) * scale
    assert model.classify(h0).max() <= cap * (1.0 + 4 * np.finfo(float).eps)
    saturated = np.full((num_labels, emb_dim), -1e3)
    saturated[0] = 1e3
    model = Model(config=config, **{**weights, "head_w": saturated})
    assert model.classify(np.ones((1, emb_dim)))[0, 0] == pytest.approx(cap, rel=1e-12)


def test_encode_and_classify_are_deterministic():
    model = Model.initialize(small_config(), 21)
    x = np.linspace(-1, 1, 5)
    h0_a, r_a = model.encode(x)
    h0_b, r_b = model.encode(x)
    np.testing.assert_array_equal(h0_a, h0_b)
    np.testing.assert_array_equal(r_a, r_b)
    np.testing.assert_array_equal(model.classify(h0_a), model.classify(h0_b))


def test_features_batch_shape_checks():
    model = Model.initialize(small_config(), 1)
    with pytest.raises(DimensionMismatchError):
        model.features(np.zeros((2, 4)))
    with pytest.raises(DimensionMismatchError):
        model.encode(np.zeros(4))
    with pytest.raises(DimensionMismatchError):
        model.classify(np.zeros(2))


def test_model_rejects_inconsistent_weights():
    cfg = small_config()
    good = Model.initialize(cfg, 0)
    kwargs = {k: v.copy() for k, v in good.parameters().items()}
    bad = dict(kwargs)
    bad["enc_w1"] = np.zeros((2, 2))
    with pytest.raises(ValueError):
        Model(config=cfg, **bad)
    bad = dict(kwargs)
    bad["head_w"] = np.full((3, 3), np.nan)
    with pytest.raises(ValueError):
        Model(config=cfg, **bad)
    with pytest.raises(ValueError):
        Model(
            config=small_config(decouple_enabled=False),
            enc_w1=kwargs["enc_w1"], enc_b1=kwargs["enc_b1"],
            enc_w2=kwargs["enc_w2"], enc_b2=kwargs["enc_b2"],
            head_w=kwargs["head_w"], dec_w1=kwargs["dec_w1"],
        )


@pytest.mark.parametrize("case", ["missing", "misshapen", "non-numeric", "unexpected"])
def test_constructor_raises_model_shape_error(case):
    cfg = small_config()
    kwargs = {k: v.copy() for k, v in Model.initialize(cfg, 0).parameters().items()}
    if case == "missing":
        del kwargs["dec_w2"]
    elif case == "misshapen":
        kwargs["enc_b1"] = np.zeros(7)
    elif case == "non-numeric":
        kwargs["head_w"] = [["a", "b", "c"]] * 3
    else:
        cfg = small_config(decouple_enabled=False)
    with pytest.raises(ModelShapeError):
        Model(config=cfg, **kwargs)


def test_constructor_keeps_value_error_for_non_finite_weights():
    cfg = small_config()
    kwargs = {k: v.copy() for k, v in Model.initialize(cfg, 0).parameters().items()}
    kwargs["enc_w2"][0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite") as info:
        Model(config=cfg, **kwargs)
    assert not isinstance(info.value, ModelShapeError)


def test_load_wraps_non_finite_weights_as_load_error(tmp_path):
    model = Model.initialize(small_config(), 1)
    path = tmp_path / "model.json"
    model.save(path)
    doc = json.loads(path.read_text())
    doc["weights"]["enc_b2"][0] = math.nan
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelLoadError, match="non-finite") as info:
        Model.load(path)
    assert not isinstance(info.value, ModelShapeError)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_round_trip(tmp_path):
    model = Model.initialize(small_config(retrieval_dim=2), 99)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = Model.load(path)
    assert loaded.config == model.config
    for name, arr in model.parameters().items():
        np.testing.assert_array_equal(loaded.parameters()[name], arr)


def test_predictions_survive_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    model = Model.initialize(small_config(), 7)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = Model.load(path)
    for _ in range(100):
        x = rng.normal(size=5)
        h0_a, r_a = model.encode(x)
        h0_b, r_b = loaded.encode(x)
        np.testing.assert_array_equal(h0_a, h0_b)
        np.testing.assert_array_equal(r_a, r_b)
        np.testing.assert_array_equal(model.classify(h0_a), loaded.classify(h0_b))


def test_load_rejects_wrong_format_marker(tmp_path):
    model = Model.initialize(small_config(), 1)
    path = tmp_path / "model.json"
    model.save(path)
    doc = json.loads(path.read_text())
    doc["format"] = "something-else"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError):
        Model.load(path)


def test_load_rejects_non_object_document(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ModelFormatError):
        Model.load(path)


def test_load_rejects_unsupported_version(tmp_path):
    model = Model.initialize(small_config(), 1)
    path = tmp_path / "model.json"
    model.save(path)
    doc = json.loads(path.read_text())
    doc["version"] = 2
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelVersionError):
        Model.load(path)


def test_load_rejects_missing_or_misshapen_weights(tmp_path):
    model = Model.initialize(small_config(), 1)
    path = tmp_path / "model.json"

    model.save(path)
    doc = json.loads(path.read_text())
    del doc["weights"]["enc_w2"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelShapeError):
        Model.load(path)

    model.save(path)
    doc = json.loads(path.read_text())
    doc["weights"]["head_w"] = [[1.0, 2.0]]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelShapeError):
        Model.load(path)

    model.save(path)
    doc = json.loads(path.read_text())
    doc["weights"]["mystery"] = [1.0]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelShapeError):
        Model.load(path)


def test_load_rejects_truncated_json(tmp_path):
    model = Model.initialize(small_config(), 1)
    path = tmp_path / "model.json"
    model.save(path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ModelLoadError):
        Model.load(path)


def test_load_rejects_bad_metadata(tmp_path):
    model = Model.initialize(small_config(), 1)
    path = tmp_path / "model.json"
    model.save(path)
    doc = json.loads(path.read_text())
    del doc["input_dim"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelLoadError):
        Model.load(path)


@pytest.mark.parametrize("flag", ["decouple_enabled", "triplet_enabled"])
@pytest.mark.parametrize("value", ["false", 1])
def test_load_rejects_a_flag_that_is_not_a_boolean(tmp_path, flag, value):
    model = Model.initialize(small_config(), 1)
    path = tmp_path / "model.json"
    model.save(path)
    doc = json.loads(path.read_text())
    doc[flag] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelLoadError):
        Model.load(path)


def test_model_file_key_order(tmp_path):
    # format, version, the ModelConfig fields as declared, then the weights
    # in draw order; written out here so that reordering a field fails.
    path = tmp_path / "model.json"
    Model.initialize(small_config(retrieval_dim=2), 1).save(path)
    doc = json.loads(path.read_text())
    assert list(doc) == [
        "format", "version", "input_dim", "hidden_dim", "emb_dim", "num_labels",
        "retrieval_dim", "pooling", "activation", "decouple_enabled", "triplet_enabled",
        "weights",
    ]
    assert list(doc["weights"]) == [
        "enc_w1", "enc_b1", "enc_w2", "enc_b2", "head_w",
        "dec_w1", "dec_b1", "dec_w2", "dec_b2",
    ]
    Model.initialize(small_config(decouple_enabled=False), 1).save(path)
    assert list(json.loads(path.read_text())["weights"]) == [
        "enc_w1", "enc_b1", "enc_w2", "enc_b2", "head_w",
    ]


def test_copy_is_independent():
    model = Model.initialize(small_config(), 3)
    clone = copy_model(model)
    clone.enc_w1[0, 0] += 1.0
    assert model.enc_w1[0, 0] != clone.enc_w1[0, 0]
