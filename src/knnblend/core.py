"""Shared numeric primitives: vectors, squared-L2 distance, and label distributions.

All math runs in float64. Probability vectors are plain 1-d numpy arrays;
`validate_distribution` is the single gatekeeper for their invariants.
`sq_dists` is the one distance kernel; search and `squared_l2` both use it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DISTRIBUTION_ATOL",
    "DimensionMismatchError",
    "argmax_label",
    "as_vector",
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
