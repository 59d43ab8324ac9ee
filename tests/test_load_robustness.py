"""Every load failure is a typed error.

A saved model, a saved datastore and a JSONL dataset are truncated or have
bytes overwritten, inserted or deleted; loading then either succeeds or
raises `ModelLoadError`, `DatastoreLoadError` or `DatasetFormatError` (or a
subclass), with any lower-level cause chained as ``__cause__``.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knnblend.data import DatasetFormatError, load_jsonl
from knnblend.datastore import Datastore, DatastoreLoadError
from knnblend.model import Model, ModelConfig, ModelLoadError, ModelShapeError


def _model_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    config = ModelConfig(input_dim=3, hidden_dim=2, emb_dim=2, num_labels=2)
    Model.initialize(config, 0).save(path)
    return path.read_bytes()


def _store_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "store.bin"
    rng = np.random.default_rng(0)
    Datastore(rng.normal(size=(5, 3)), rng.integers(3, size=5), num_labels=3).save(path)
    return path.read_bytes()


JSONL_BYTES = (
    '{"label_names": ["ham", "spam"]}\n'
    '{"label": "spam", "features": [0.5, -1.25e3]}\n'
    '{"label": 0, "tokens": [[1, 2], [3.0, 4e-2]]}\n'
).encode("utf-8")


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return {
        "model": (_model_bytes(tmp_path_factory), Model.load, ModelLoadError),
        "datastore": (_store_bytes(tmp_path_factory), Datastore.load, DatastoreLoadError),
        "jsonl": (JSONL_BYTES, load_jsonl, DatasetFormatError),
        "dir": tmp_path_factory.mktemp("mutated"),
    }


# A JSON number token that is not part of a name such as "enc_w1".
NUMBER = re.compile(r"(?<![\w.])-?\d[\d.eE+-]*")


@st.composite
def damaged(draw, original):
    """`original` truncated, or with bytes overwritten, inserted or deleted."""
    kind = draw(st.sampled_from(["truncate", "overwrite", "insert", "delete"]))
    at = draw(st.integers(0, len(original) - 1))
    if kind == "truncate":
        return original[:at]
    if kind == "delete":
        return original[:at] + original[at + draw(st.integers(1, 8)):]
    chunk = draw(st.binary(min_size=1, max_size=4))
    if kind == "insert":
        return original[:at] + chunk + original[at:]
    return original[:at] + chunk + original[at + len(chunk):]


def _check_load(artifacts, name, data):
    _, load, expected = artifacts[name]
    path = artifacts["dir"] / f"damaged-{name}"
    path.write_bytes(data)
    try:
        load(path)
    except expected:
        pass


@pytest.mark.parametrize("name", ["model", "datastore", "jsonl"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_damaged_file_loads_or_raises_its_typed_error(artifacts, name, data):
    _check_load(artifacts, name, data.draw(damaged(artifacts[name][0])))


@pytest.mark.parametrize("name", ["model", "jsonl"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_changed_number_loads_or_raises_its_typed_error(artifacts, name, data):
    # Byte damage rarely leaves JSON parseable; replacing one number token
    # with another literal reaches the value checks behind the parser.
    original = artifacts[name][0].decode("utf-8")
    start, end = data.draw(st.sampled_from([m.span() for m in NUMBER.finditer(original)]))
    literal = data.draw(st.sampled_from([
        "Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400, '"x"', "[1, [2]]",
        "[]", "null", "true", "-1", "0", "1.5", "{}",
    ]))
    _check_load(artifacts, name, (original[:start] + literal + original[end:]).encode("utf-8"))


@pytest.mark.parametrize(
    "name, weight, error",
    [
        ("enc_b1", "x", ModelShapeError),
        ("enc_w1", [[1.0, 2.0, 3.0], [1.0]], ModelShapeError),
        ("enc_b1", [10 ** 400, 0.0], ModelShapeError),
        ("enc_b1", [float("inf"), 0.0], ModelLoadError),
    ],
    ids=["string", "ragged", "huge-int", "infinity"],
)
def test_bad_weight_raises_model_load_error_with_cause(artifacts, tmp_path, name, weight,
                                                       error):
    doc = json.loads(artifacts["model"][0])
    doc["weights"][name] = weight
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(error) as info:
        Model.load(path)
    assert isinstance(info.value.__cause__, (TypeError, ValueError, OverflowError))


@pytest.mark.parametrize("weights", [None, [], "weights"], ids=["missing", "list", "string"])
def test_model_without_a_weights_object_raises_model_shape_error(artifacts, tmp_path, weights):
    doc = json.loads(artifacts["model"][0])
    if weights is None:
        del doc["weights"]
    else:
        doc["weights"] = weights
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ModelShapeError, match="^missing weights section$"):
        Model.load(path)


def test_non_utf8_model_raises_model_load_error(artifacts, tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b"\xff" + artifacts["model"][0])
    with pytest.raises(ModelLoadError) as info:
        Model.load(path)
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


def test_non_utf8_jsonl_raises_dataset_format_error(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b'{"label": 0, "features": [1.0]}\n{"label": 0, "features": [\xff]}\n')
    with pytest.raises(DatasetFormatError) as info:
        load_jsonl(path)
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


def test_non_utf8_jsonl_error_names_its_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b'{"label": 0, "features": [1.0]}\n\n{"label": 0, "features": [\xff]}\n')
    with pytest.raises(DatasetFormatError, match=r"^line 3: not UTF-8 text "
                       r"\(invalid start byte at byte 26 of the line\)$"):
        load_jsonl(path)


def test_unrepresentable_feature_raises_dataset_format_error(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"label": 0, "features": [1%s]}\n' % ("0" * 400), encoding="utf-8")
    with pytest.raises(DatasetFormatError):
        load_jsonl(path)
