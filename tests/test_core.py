from dataclasses import dataclass

import numpy as np
import pytest

from knnblend.core import (
    DimensionMismatchError,
    argmax_label,
    as_int64s,
    as_tokens,
    as_vector,
    coerce_fields,
    softmax,
    squared_l2,
    validate_distribution,
)

from helpers import mp_softmax


# ---------------------------------------------------------------------------
# squared_l2


def test_squared_l2_identical_vectors():
    assert squared_l2((1.0, 2.0), (1.0, 2.0)) == 0.0


def test_squared_l2_hand_values():
    assert squared_l2((0.0, 0.0), (3.0, 4.0)) == 25.0
    assert squared_l2((1.0, 0.0, 2.0), (0.0, 1.0, 0.0)) == 6.0


def test_squared_l2_symmetry_and_self_distance():
    rng = np.random.default_rng(101)
    for _ in range(64):
        dim = int(rng.integers(1, 12))
        a = rng.normal(size=dim) * rng.uniform(0.1, 50)
        b = rng.normal(size=dim) * rng.uniform(0.1, 50)
        assert squared_l2(a, b) == squared_l2(b, a)
        assert squared_l2(a, a) == 0.0
        assert squared_l2(a, b) >= 0.0


def test_squared_l2_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        squared_l2((1.0, 2.0), (1.0, 2.0, 3.0))


def test_squared_l2_rejects_bad_vectors():
    with pytest.raises(ValueError):
        squared_l2((), ())
    with pytest.raises(ValueError):
        squared_l2((np.nan, 0.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        squared_l2((np.inf, 0.0), (0.0, 0.0))


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    np.testing.assert_array_equal(softmax((0.0, 0.0)), [0.5, 0.5])


def test_softmax_constant_logits_are_uniform():
    for c in (-1000.0, -3.5, 0.0, 2.0, 1e6):
        np.testing.assert_array_equal(softmax((c, c, c)), np.full(3, 1.0 / 3.0))


def test_softmax_extreme_logits_do_not_overflow():
    with np.errstate(over="raise"):
        probs = softmax((1000.0, 0.0))
    assert np.all(np.isfinite(probs))
    np.testing.assert_allclose(probs, mp_softmax((1000.0, 0.0)), rtol=0, atol=1e-15)


def test_softmax_matches_extended_precision():
    rng = np.random.default_rng(77)
    for _ in range(200):
        length = int(rng.integers(1, 9))
        logits = rng.normal(size=length) * rng.uniform(0.5, 100)
        np.testing.assert_allclose(
            softmax(logits), mp_softmax(logits), rtol=1e-12, atol=5e-14
        )


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(3)
    for _ in range(200):
        logits = rng.normal(size=int(rng.integers(1, 10))) * 10
        p = softmax(logits)
        assert abs(p.sum() - 1.0) <= 1e-9
        shifted = softmax(logits + rng.uniform(-500, 500))
        np.testing.assert_allclose(shifted, p, rtol=0, atol=1e-9)


def test_softmax_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        softmax(())
    with pytest.raises(ValueError):
        softmax((0.0, np.inf))


# ---------------------------------------------------------------------------
# argmax_label / validate_distribution


def test_argmax_label_examples():
    assert argmax_label((0.1, 0.7, 0.2)) == 1
    assert argmax_label((0.0, 0.0, 1.0)) == 2


def test_argmax_label_tie_breaks_to_lowest_index():
    assert argmax_label((0.5, 0.5)) == 0
    assert argmax_label((0.2, 0.4, 0.4)) == 1


def test_argmax_label_agrees_with_logit_argmax():
    rng = np.random.default_rng(19)
    for _ in range(100):
        logits = rng.normal(size=int(rng.integers(1, 8))) * 5
        assert argmax_label(softmax(logits)) == int(np.argmax(logits))


def test_validate_distribution_accepts_valid():
    out = validate_distribution([0.25, 0.75])
    assert out.dtype == np.float64
    np.testing.assert_array_equal(out, [0.25, 0.75])


def test_validate_distribution_checks_length():
    validate_distribution([0.5, 0.5], num_labels=2)
    with pytest.raises(ValueError):
        validate_distribution([0.5, 0.5], num_labels=3)


def test_validate_distribution_rejects_bad_inputs():
    with pytest.raises(ValueError):
        validate_distribution([0.7, 0.7])  # sums to 1.4
    with pytest.raises(ValueError):
        validate_distribution([-0.1, 1.1])
    with pytest.raises(ValueError):
        validate_distribution([1.2, -0.2])
    with pytest.raises(ValueError):
        validate_distribution([np.nan, 1.0])


# ---------------------------------------------------------------------------
# as_vector


def test_as_vector_coerces_to_float64():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])


def test_as_vector_rejects_non_vectors():
    with pytest.raises(ValueError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_vector([])
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])


# ---------------------------------------------------------------------------
# as_tokens


def test_as_tokens_counts_a_flat_input_as_one_token():
    arr = as_tokens([1, 2])
    assert arr.dtype == np.float64
    np.testing.assert_array_equal(arr, [[1.0, 2.0]])
    np.testing.assert_array_equal(as_tokens([[1, 2], [3, 4]]), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize("values", [
    pytest.param(5.0, id="scalar"),
    pytest.param([], id="no-dimensions"),
    pytest.param(np.zeros((0, 3)), id="no-tokens"),
    pytest.param([[[1.0]]], id="3-d"),
    pytest.param([[1.0], [2.0, 3.0]], id="ragged"),
    pytest.param(["x"], id="string"),
    pytest.param([{}], id="object"),
    pytest.param([10**400], id="too-large"),
    pytest.param([[1.0, np.inf]], id="non-finite"),
])
def test_as_tokens_rejects_with_value_error(values):
    with pytest.raises(ValueError):
        as_tokens(values)


# ---------------------------------------------------------------------------
# as_int64s


@pytest.mark.parametrize("values, expected", [
    pytest.param([3, 0, 7], [3, 0, 7], id="ints"),
    pytest.param([2.0, -1.0], [2, -1], id="whole-floats"),
    pytest.param(np.array([4, 5], dtype=np.uint8), [4, 5], id="uint8"),
    pytest.param(np.array([2**63 - 1], dtype=np.uint64), [2**63 - 1], id="uint64-max-int64"),
    pytest.param([], [], id="empty"),
])
def test_as_int64s_copies_integers(values, expected):
    out = as_int64s(values, "x")
    assert out.dtype == np.int64 and out.tolist() == expected
    assert out.flags.owndata and not np.shares_memory(out, np.asarray(values))


@pytest.mark.parametrize("values, message", [
    pytest.param([1.9], "must be integers, got 1.9", id="fractional"),
    pytest.param(np.array([0.5]), "must be integers, got 0.5", id="fractional-array"),
    pytest.param([np.inf], "must be integers, got inf", id="inf"),
    pytest.param([True, 2], "must be integers, got True", id="boolean"),
    pytest.param(np.array([False]), "must be integers, got False", id="boolean-array"),
    pytest.param(["3"], "must be integers, got '3'", id="string"),
    pytest.param([None], "must be integers, got None", id="none"),
    pytest.param([2**63], "must fit in int64", id="beyond-int64"),
    pytest.param(np.array([2**63], dtype=np.uint64), "must fit in int64", id="beyond-int64-uint64"),
])
def test_as_int64s_rejects_what_is_not_an_int64_integer(values, message):
    with pytest.raises(ValueError, match=f"^x {message}"):
        as_int64s(values, "x")


# ---------------------------------------------------------------------------
# coerce_fields


@dataclass(frozen=True)
class _Fields:
    # Annotations evaluated as types here; the package's modules postpone
    # them to strings, and coerce_fields reads either.
    n: int = 1
    x: float = 1.0
    maybe: int | None = None
    flag: bool = True
    name: str = "keep"

    def __post_init__(self):
        coerce_fields(self)


def test_coerce_fields_stores_the_cast_values():
    f = _Fields(n=2.9, x=10, maybe=np.int64(3))
    assert (f.n, f.x, f.maybe) == (2, 10.0, 3)
    assert type(f.n) is int and type(f.x) is float and type(f.maybe) is int
    assert _Fields().maybe is None and _Fields().name == "keep"


@pytest.mark.parametrize("name, value", [
    ("n", "2"), ("x", "0.5"), ("maybe", "3"), ("n", True), ("x", False),
    ("flag", 1), ("flag", "true"), ("n", None), ("n", float("inf")), ("n", float("nan")),
    ("x", [1.0]), ("x", float("inf")), ("x", float("nan")),
])
def test_coerce_fields_names_the_rejected_field(name, value):
    with pytest.raises(ValueError, match=f"^{name}"):
        _Fields(**{name: value})
