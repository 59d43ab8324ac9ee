"""Shared numeric primitives and input rules: vectors, token sequences,
squared-L2 distance, label distributions, and numeric config fields.

All math runs in float64. Probability vectors are plain 1-d numpy arrays;
`validate_distribution` is the single gatekeeper for their invariants.
`sq_dists` is the one distance kernel: every distance that search returns
comes from it (the datastore's float32 prefilter only picks the keys to
recheck), and `squared_l2` is its one-row case.

Three input rules are written here once: `as_tokens` (its shape, then
`check_finite_tokens`), for every token sequence; `as_int64s`, for the label
and count arrays of datasets and stores; and `coerce_fields`, for the numeric
and boolean fields of each config dataclass, whose `__post_init__` calls it
before its range checks.
"""

from __future__ import annotations

import dataclasses
import math
import numbers

import numpy as np

__all__ = [
    "DISTRIBUTION_ATOL",
    "DimensionMismatchError",
    "argmax_label",
    "as_int64s",
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


def coerce_fields(obj) -> None:
    """Store int() of each `int` field of a dataclass (so 2.5 becomes 2, and
    `int | None` keeps None) and float() of each `float` field. A string, a
    bool, an unconvertible value or a non-finite float there, or a non-bool in
    a `bool` field, raises ValueError naming the field; others stay as given."""
    for field in dataclasses.fields(obj):
        name, value = field.name, getattr(obj, field.name)
        kind = getattr(field.type, "__name__", str(field.type))  # a type or its string
        if kind == "bool" and not isinstance(value, bool):
            raise ValueError(f"{name} must be true or false, got {value!r}")
        if kind not in ("int", "int | None", "float") or (value is None and kind == "int | None"):
            continue
        if isinstance(value, (str, bool)):
            raise ValueError(f"{name} must be a number, got {value!r}")
        try:
            value = float(value) if kind == "float" else int(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{name}: {exc}") from exc
        if kind == "float" and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        object.__setattr__(obj, name, value)


def sq_dists(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from float64 vector `q` to each row of `keys`.

    A row's result is bit-identical whether it is computed alone or in any
    block of rows, and with the difference taken either way round; a per-row
    `np.dot` is not. Inputs are not validated; overflow gives inf.
    """
    diff = keys - q
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
    if x.ndim != 2:
        x = as_vector(x, "logits")
    elif x.shape[1] == 0 or not np.all(np.isfinite(x)):
        raise ValueError("logits rows must be non-empty and finite")
    shifted = x - x.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=-1, keepdims=True)


def validate_distribution(probs, num_labels: int | None = None) -> np.ndarray:
    """Check that `probs` is a valid label distribution and return it as float64.

    Entries must lie in [0, 1] and sum to 1 within DISTRIBUTION_ATOL.
    """
    p = as_vector(probs, "distribution")
    if num_labels is not None and p.shape[0] != num_labels:
        raise DimensionMismatchError(
            f"distribution has {p.shape[0]} entries, expected {num_labels}"
        )
    if np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("distribution entries must lie in [0, 1]")
    if abs(float(p.sum()) - 1.0) > DISTRIBUTION_ATOL:
        raise ValueError(f"distribution sums to {float(p.sum())!r}, not 1")
    return p


def argmax_label(dist) -> int:
    """Index of the largest probability; ties break to the lowest index."""
    p = validate_distribution(dist)
    return int(np.argmax(p))
