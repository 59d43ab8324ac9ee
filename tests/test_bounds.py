"""The number rule's range step: each int and float field of a config
dataclass declares its `Bound` with its default, and `as_number` holds it to
that bound with one message per kind of bound."""

import math
import re
from dataclasses import fields

import numpy as np
import pytest

from knnblend.core import POSITIVE, Bound, as_number
from knnblend.data import Dataset, SyntheticSpec
from knnblend.datastore import K_BOUND
from knnblend.model import ModelConfig
from knnblend.retrieval import RetrievalParams
from knnblend.training import Hyperparams

CLASSES = (Hyperparams, RetrievalParams, SyntheticSpec, ModelConfig, Dataset)
TINY = math.ulp(0.0)  # the least positive float
ABOVE_ONE = math.nextafter(1.0, 2.0)

# (class, field, a value at the bound, one step past it, the message)
RULES = [
    (Hyperparams, "triplet_weight", 0.0, -TINY, "triplet_weight must be in [0, 1], got -5e-324"),
    (Hyperparams, "triplet_weight", 1.0, ABOVE_ONE,
     "triplet_weight must be in [0, 1], got 1.0000000000000002"),
    (Hyperparams, "margin", TINY, 0.0, "margin must be positive, got 0.0"),
    (Hyperparams, "learning_rate", TINY, 0.0, "learning_rate must be positive, got 0.0"),
    (Hyperparams, "batch_size", 1, 0, "batch_size must be >= 1, got 0"),
    (Hyperparams, "epochs", 0, -1, "epochs must be >= 0, got -1"),
    (Hyperparams, "seed", 0, -1, "seed must be >= 0, got -1"),
    (RetrievalParams, "k", 1, 0, "k must be >= 1, got 0"),
    (RetrievalParams, "temperature", TINY, 0.0, "temperature must be positive, got 0.0"),
    (RetrievalParams, "knn_weight", 0.0, -TINY, "knn_weight must be in [0, 1], got -5e-324"),
    (RetrievalParams, "knn_weight", 1.0, ABOVE_ONE,
     "knn_weight must be in [0, 1], got 1.0000000000000002"),
    (SyntheticSpec, "num_classes", 2, 1, "num_classes must be >= 2, got 1"),
    (SyntheticSpec, "dim", 1, 0, "dim must be positive, got 0"),
    (SyntheticSpec, "per_class_count", 1, 0, "per_class_count must be positive, got 0"),
    (SyntheticSpec, "class_separation", TINY, 0.0, "class_separation must be positive, got 0.0"),
    (SyntheticSpec, "noise_sigma", 0.0, -TINY, "noise_sigma must be >= 0, got -5e-324"),
    (SyntheticSpec, "seed", 0, -1, "seed must be >= 0, got -1"),
    (ModelConfig, "input_dim", 1, 0, "input_dim must be positive, got 0"),
    (ModelConfig, "hidden_dim", 1, 0, "hidden_dim must be positive, got 0"),
    (ModelConfig, "emb_dim", 1, 0, "emb_dim must be positive, got 0"),
    (ModelConfig, "num_labels", 1, 0, "num_labels must be positive, got 0"),
    (ModelConfig, "retrieval_dim", 1, 0, "retrieval_dim must be positive, got 0"),
    (Dataset, "num_labels", 1, 0, "num_labels must be positive, got 0"),
    (Dataset, "input_dim", 1, 0, "input_dim must be positive, got 0"),
]


def make(cls, name, value):
    """`cls` with `name` set to `value` and every other field at a valid default."""
    if cls is Dataset:
        sizes = {"num_labels": 1, "input_dim": 1, name: value}
        return Dataset(np.zeros((1, sizes["input_dim"])), [1], [0], **sizes)
    return cls(**{name: value})


@pytest.mark.parametrize("cls, name, at, past, message", [
    pytest.param(*rule, id=f"{rule[0].__name__}.{rule[1]}-{rule[3]!r}") for rule in RULES
])
def test_a_value_at_the_bound_passes_and_one_step_past_it_is_refused(cls, name, at, past,
                                                                      message):
    assert getattr(make(cls, name, at), name) == at
    with pytest.raises(ValueError) as raised:
        make(cls, name, past)
    assert str(raised.value) == message


def _kind(field) -> str:
    return getattr(field.type, "__name__", str(field.type))


def test_every_numeric_config_field_declares_a_bound_and_has_a_rule_case():
    # A new int or float field must state its range in its declaration; one
    # typed in a way `coerce_fields` does not read (`float | None`) fails here.
    numeric = [(cls, field) for cls in CLASSES for field in fields(cls)
               if re.search(r"\b(int|float)\b", _kind(field))]
    for cls, field in numeric:
        where = f"{cls.__name__}.{field.name}"
        assert _kind(field) in ("int", "float", "int | None"), where
        assert isinstance(field.metadata.get("bound"), Bound), where
    assert {(cls, field.name) for cls, field in numeric} == {rule[:2] for rule in RULES}


def test_search_and_retrieval_params_share_the_k_bound():
    [k] = [field for field in fields(RetrievalParams) if field.name == "k"]
    assert k.metadata["bound"] is K_BOUND


@pytest.mark.parametrize("bound, value, rule", [
    (POSITIVE, -2.5, "positive"),
    (Bound(3), 2, ">= 3"),
    (Bound(-1, 4), 5, "in [-1, 4]"),
    (Bound(0.5, 1.5), 0.25, "in [0.5, 1.5]"),
])
def test_as_number_names_the_bound_a_value_misses(bound, value, rule):
    with pytest.raises(ValueError) as raised:
        as_number(value, "x", type(value), bound)
    assert str(raised.value) == f"x must be {rule}, got {value}"
    assert as_number(value, "x", type(value)) == value  # no bound, no range step


def test_the_type_step_comes_before_the_range_step():
    # A string or bool is refused as such, whatever its value.
    for value in ("0", True, False):
        with pytest.raises(ValueError, match=f"^k must be a number, got {value!r}$"):
            RetrievalParams(k=value)
