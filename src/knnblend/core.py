"""Shared numeric primitives and input rules: vectors, token sequences,
squared-L2 distance, label distributions, numbers and labels.

All math runs in float64. Probability vectors are plain 1-d numpy arrays;
`validate_distribution` is the single gatekeeper for their invariants.
`sq_dists` is the one distance kernel: every distance that search returns
comes from it (the datastore's float32 prefilter only picks the keys to
recheck), and `squared_l2` is its one-row case.

Three input rules are written here once. Tokens: `as_tokens` (its shape, then
`check_finite_tokens`), for every token sequence. Numbers: `as_number`, for
each config dataclass's numeric fields (`coerce_fields`, each within the
`Bound` it declares with its default), `k` and every label count; one out of
bound reads "<name> must be positive", "must be >= <low>" or "must be in
[<low>, <high>]", then ", got <value>". Labels: `as_labels` (`as_int64s`, then
one range check), for the labels of `Dataset`, `Datastore` (`build_datastore`
keys the model's label count) and the vote (`knn_distribution_batch`), and
over the model's label count in `run_sweep` and the training adapter.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import NamedTuple

import numpy as np

__all__ = [
    "DISTRIBUTION_ATOL",
    "DimensionMismatchError",
    "argmax_label",
    "as_int64s",
    "as_labels",
    "as_number",
    "as_tokens",
    "as_vector",
    "coerce_fields",
    "softmax",
    "sq_dists",
    "squared_l2",
    "validate_distribution",
]

# Absolute tolerance on sum(p) == 1 for a valid label distribution.
DISTRIBUTION_ATOL = 1e-9


class DimensionMismatchError(ValueError):
    """Two vectors (or a vector and a declared dimension) disagree in length."""


def as_vector(values, name: str = "vector") -> np.ndarray:
    """Coerce to a finite, non-empty 1-d float64 array.

    Raises ValueError if the input is empty, not 1-d, or contains NaN/Inf.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_tokens(values) -> np.ndarray:
    """Copy a token sequence into a fresh, finite, non-empty (n_tokens, dim)
    float64 array; a 1-d input counts as one token. Raises ValueError otherwise."""
    try:
        arr = np.array(values, dtype=np.float64, order="C")
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"tokens are not numeric: {exc}") from exc
    arr = arr[None, :] if arr.ndim == 1 else arr
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"tokens must be a non-empty 2-d array, got shape {arr.shape}")
    return check_finite_tokens(arr)


def as_int64s(values, name: str) -> np.ndarray:
    """Copy integers into a fresh int64 array of the same shape.

    An integer-typed numpy array converts as a whole; any other input is
    judged entry by entry, where a float counts only if it is whole (2.0 is
    2). A fractional, non-finite, boolean, string or other non-numeric entry
    raises ValueError, and so does an integer beyond int64; `np.array(...,
    dtype=np.int64)` would truncate 1.9 to 1 and read True as 1.
    """
    arr = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if arr.dtype.kind in "iu":
        if arr.dtype.kind == "u" and arr.size and arr.max() > np.iinfo(np.int64).max:
            raise ValueError(f"{name} must fit in int64, got {arr.max()}")
        return arr.astype(np.int64)
    entries = arr.ravel().tolist()
    for value in entries:
        whole = isinstance(value, numbers.Integral) or (
            isinstance(value, numbers.Real) and math.isfinite(value) and float(value).is_integer())
        if isinstance(value, bool) or not whole:
            raise ValueError(f"{name} must be integers, got {value!r}")
    try:
        out = np.array([int(value) for value in entries], dtype=np.int64)
    except OverflowError as exc:
        raise ValueError(f"{name} must fit in int64: {exc}") from exc
    out.shape = arr.shape  # in place, so `out` keeps owning its memory
    return out


def check_finite_tokens(arr: np.ndarray) -> np.ndarray:
    """The finiteness step of `as_tokens`, over an array of any shape; returns it."""
    if not np.isfinite(arr).all():
        raise ValueError("tokens contain non-finite entries")
    return arr


class Bound(NamedTuple):
    """A range, `low` to `high` inclusive, but above `low` if `open` (`POSITIVE` only)."""

    low: float
    high: float = math.inf
    open: bool = False

    def field(self, default=dataclasses.MISSING):
        """A dataclass field with `default`, whose numbers `coerce_fields` holds to the bound."""
        return dataclasses.field(default=default, metadata={"bound": self})


POSITIVE = Bound(0, open=True)


def not_text(value, name: str):
    """`value`, unless it is a string or a bool, which raise `as_number`'s ValueError."""
    if isinstance(value, (str, bool)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def as_number(value, name: str, cast=int, bound: Bound | None = None):
    """`cast(value)`, for `cast` int (2.5 becomes 2) or float, within `bound`
    if one is given; a string, a bool, an unconvertible value, a non-finite
    float or a number outside the bound raises ValueError naming `name`."""
    not_text(value, name)
    try:
        value = cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from exc
    if cast is float and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if bound is not None and not (bound.low < value <= bound.high
                                  or value == bound.low and not bound.open):
        rule = ("positive" if bound.open else f">= {bound.low}" if bound.high == math.inf
                else f"in [{bound.low}, {bound.high}]")
        raise ValueError(f"{name} must be {rule}, got {value}")
    return value


def as_labels(values, num_labels: int) -> np.ndarray:
    """Labels in [0, num_labels), for an int `num_labels` >= 1: an int64 array
    as it is, uncopied, and any other input through `as_int64s`. A ValueError
    names the first label out of range and its example (row)."""
    if num_labels < 1:
        raise ValueError("num_labels must be positive")
    as_is = type(values) is np.ndarray and values.dtype == np.int64
    labels = values if as_is else as_int64s(values, "labels")
    wrapped = labels.view(np.uint64)  # a negative label wraps beyond num_labels
    if labels.size and wrapped.max() >= num_labels:
        at = np.unravel_index(int((wrapped >= num_labels).argmax()), labels.shape)
        raise ValueError(f"example {at[0] if at else 0} label {labels[at]} "
                         f"out of range for {num_labels} labels")
    return labels


def coerce_fields(obj) -> None:
    """Store `as_number` of each `int` and `float` field of a dataclass (`int |
    None` keeps None), within the bound the field declares with `Bound.field`; a
    non-bool in a `bool` field raises ValueError naming the field. Others stay
    as given."""
    for field in dataclasses.fields(obj):
        name, value = field.name, getattr(obj, field.name)
        kind = getattr(field.type, "__name__", str(field.type))  # a type or its string
        if kind == "bool" and not isinstance(value, bool):
            raise ValueError(f"{name} must be true or false, got {value!r}")
        if kind in ("int", "float") or (kind == "int | None" and value is not None):
            object.__setattr__(obj, name, as_number(value, name, float if kind == "float" else int,
                                                    field.metadata.get("bound")))


def sq_dists(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from float64 vector `q` to each row of `keys`.

    A row's result is bit-identical whether it is computed alone or in any
    block of rows, and with the difference taken either way round; a per-row
    `np.dot` is not. Inputs are not validated; overflow gives inf.
    """
    diff = keys.astype(np.float64)  # the cast `keys - q` makes, then q in place
    diff -= q
    return np.einsum("ij,ij->i", diff, diff)


def squared_l2(a, b) -> float:
    """Squared Euclidean distance between two equal-length vectors.

    Symmetric, non-negative, and exactly zero iff a == b elementwise. This is
    the one-row case of `sq_dists`.
    """
    va = as_vector(a, "a")
    vb = as_vector(b, "b")
    if va.shape[0] != vb.shape[0]:
        raise DimensionMismatchError(
            f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}"
        )
    return float(sq_dists(va[None, :], vb)[0])


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax (max-subtraction) over the last axis.

    `logits` is one 1-d vector, or a 2-d batch with one vector per row.
    """
    x = np.asarray(logits, dtype=np.float64)
    return _softmax(as_vector(x, "logits") if x.ndim != 2 else check_logit_rows(x))


def check_logit_rows(x: np.ndarray) -> np.ndarray:
    """`softmax`'s rule for (B, L) logits, or the scoring path's (L,): non-empty, finite."""
    if x.shape[-1] == 0 or not np.isfinite(x).all():
        raise ValueError("logits rows must be non-empty and finite")
    return x


def _softmax(x: np.ndarray) -> np.ndarray:
    """The softmax kernel over the last axis of a float64 array, which it does
    not check: a non-finite entry gives NaN rows, not an error."""
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def validate_distribution(probs, num_labels: int | None = None) -> np.ndarray:
    """Check that `probs` is a valid label distribution and return it as float64.

    Entries must lie in [0, 1] and sum to 1 within DISTRIBUTION_ATOL.
    """
    p = as_vector(probs, "distribution")
    expected = p.shape[0] if num_labels is None else as_number(num_labels, "num_labels")
    if p.shape[0] != expected:
        raise DimensionMismatchError(f"distribution has {p.shape[0]} entries, expected {expected}")
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("distribution entries must lie in [0, 1]")
    if abs(float(p.sum()) - 1.0) > DISTRIBUTION_ATOL:
        raise ValueError(f"distribution sums to {float(p.sum())!r}, not 1")
    return p


def argmax_label(dist) -> int:
    """Index of the largest probability; ties break to the lowest index."""
    p = validate_distribution(dist)
    return int(np.argmax(p))
