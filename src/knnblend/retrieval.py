"""Neighbor-vote label distributions and their blend with the classifier.

Retrieved neighbors are turned into a label distribution by a softmax over
temperature-scaled negative distances, aggregated per label. That
distribution is mixed with the classifier's own output by a fixed weight.

Every score takes one neighbor step, `_neighbor_step`, on a token matrix and
its token counts: given k, the store checks (`RetrievalUnavailableError`
without one or for an empty one), one pooling, encode and classify, then,
given k, one `Datastore.search_batch`. `_score` adds one vote and one blend
(`knn_distribution_batch`, `interpolate_batch`) over (B, k) arrays, for
`predict_batch` on a dataset's arrays and `predict` on one `as_tokens`
sequence; `evaluate.run_sweep` takes the step once and votes and blends per
grid cell. `predict`, `knn_distribution` and `interpolate` are one-row forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DimensionMismatchError, as_tokens, coerce_fields, validate_distribution
from .datastore import KEY_BLOCK, Datastore, NeighborHit, RetrievalUnavailableError
from .model import _pool_rows

__all__ = [
    "BatchPrediction",
    "NonFiniteDistanceError",
    "Prediction",
    "RetrievalParams",
    "build_datastore",
    "interpolate",
    "interpolate_batch",
    "knn_distribution",
    "knn_distribution_batch",
    "predict",
    "predict_batch",
]


class NonFiniteDistanceError(ValueError):
    """A distance, or every distance / temperature, overflowed: the vote is NaN."""


@dataclass(frozen=True)
class RetrievalParams:
    """Neighbor count, distance temperature, and blend weight for the kNN side."""

    k: int = 64
    temperature: float = 10.0
    knn_weight: float = 0.2

    def __post_init__(self):
        coerce_fields(self)
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not (self.temperature > 0.0):
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not (0.0 <= self.knn_weight <= 1.0):
            raise ValueError(f"knn_weight must be in [0, 1], got {self.knn_weight}")


def knn_distribution_batch(
    labels, distances, temperature: float, num_labels: int
) -> np.ndarray:
    """Label distribution per row of (B, k) neighbor labels and distances:
    weight exp(-distance/temperature), summed per label and normalized.

    Labels and distances must have one (B, k) shape (`DimensionMismatchError`
    otherwise), with k >= 1 (`RetrievalUnavailableError` for zero hits).
    Each row is max-subtracted before exponentiation so large distances cannot
    underflow everything to zero at once.
    """
    if not (float(temperature) > 0.0):
        raise ValueError(f"temperature must be positive, got {temperature}")
    if int(num_labels) < 1:
        raise ValueError("num_labels must be positive")
    labels = np.asarray(labels, dtype=np.int64)
    distances = np.asarray(distances, dtype=np.float64)
    if labels.ndim != 2 or labels.shape != distances.shape:
        raise DimensionMismatchError(f"labels {labels.shape} and distances {distances.shape} "
                                     f"are not one (B, k) shape")
    if labels.shape[1] == 0:
        raise RetrievalUnavailableError("cannot form a label distribution from zero hits")
    if labels.size and (labels.min() < 0 or labels.max() >= num_labels):
        raise ValueError("hit label outside [0, num_labels)")
    with np.errstate(over="ignore"):
        scaled = -distances / float(temperature)
    peak = scaled.max(axis=1, keepdims=True)
    if not (np.all(np.isfinite(distances)) and np.all(np.isfinite(peak))):
        raise NonFiniteDistanceError(
            f"neighbor distances are not finite at temperature {temperature!r}"
        )
    weights = np.exp(scaled - peak)
    # Each (row, label) cell sums its weights in hit order, starting from 0.0.
    rows, num_labels = labels.shape[0], int(num_labels)
    cells = (np.arange(rows)[:, None] * num_labels + labels).ravel()
    probs = np.bincount(cells, weights.ravel(), minlength=rows * num_labels)
    probs = probs.reshape(rows, num_labels)
    return probs / probs.sum(axis=1, keepdims=True)


def knn_distribution(
    hits: Sequence[NeighborHit], temperature: float, num_labels: int
) -> np.ndarray:
    """Label distribution from neighbor hits; the one-row `knn_distribution_batch`."""
    labels = np.array([[hit.label for hit in hits]], dtype=np.int64)
    distances = np.array([[hit.distance for hit in hits]], dtype=np.float64)
    return knn_distribution_batch(labels, distances, temperature, num_labels)[0]


def interpolate_batch(neighbor_probs, classifier_probs, knn_weight: float) -> np.ndarray:
    """Entry-wise blend of two distributions, or two row-aligned batches of
    them, of one shape (`DimensionMismatchError` otherwise):
    knn_weight * neighbor + (1 - knn_weight) * classifier.

    The endpoints short-circuit to an exact copy of the corresponding input,
    so a weight of 0 or 1 reproduces that distribution bit for bit.
    """
    neighbor_probs = np.asarray(neighbor_probs)
    classifier_probs = np.asarray(classifier_probs)
    if neighbor_probs.shape != classifier_probs.shape:
        raise DimensionMismatchError(f"distribution shapes differ: {neighbor_probs.shape} "
                                     f"vs {classifier_probs.shape}")
    w = float(knn_weight)
    if not (0.0 <= w <= 1.0):
        raise ValueError(f"knn_weight must be in [0, 1], got {knn_weight}")
    if w == 0.0:
        return classifier_probs.copy()
    if w == 1.0:
        return neighbor_probs.copy()
    return w * neighbor_probs + (1.0 - w) * classifier_probs


def interpolate(neighbor_probs, classifier_probs, knn_weight: float) -> np.ndarray:
    """`interpolate_batch` for two validated distributions of equal length."""
    return interpolate_batch(validate_distribution(neighbor_probs),
                             validate_distribution(classifier_probs), knn_weight)


@dataclass(eq=False)
class Prediction:
    """Final label plus the three distributions that produced it.

    neighbor_probs is None when the blend weight was 0 and retrieval was
    skipped entirely.
    """

    label: int
    probs: np.ndarray
    classifier_probs: np.ndarray
    neighbor_probs: np.ndarray | None


@dataclass(eq=False)
class BatchPrediction:
    """`Prediction`s for a batch, one row per instance, plus each row's hits
    in (distance, index) order. Neighbor fields are None when knn_weight is 0."""

    labels: np.ndarray  # (B,)
    probs: np.ndarray  # (B, num_labels)
    classifier_probs: np.ndarray  # (B, num_labels)
    neighbor_probs: np.ndarray | None  # (B, num_labels)
    neighbor_indices: np.ndarray | None  # (B, min(k, count))
    neighbor_distances: np.ndarray | None  # (B, min(k, count))


def _neighbor_step(model, store: Datastore | None, tokens: np.ndarray,
                   token_counts: np.ndarray, k: int | None):
    """Classifier distributions of a batch and, given k, each row's hits.

    The batch is the sequences that split a finite (total_tokens, input_dim)
    token matrix by `token_counts`. Returns (classifier_probs, indices,
    distances); without k the store is never consulted (it may be empty or
    None) and the hit arrays are None. Given k, the store is checked before
    anything is pooled or encoded. The retrieval representations r are the
    queries.
    """
    if k is not None:
        if store is None:
            raise RetrievalUnavailableError("a datastore is required when knn_weight > 0")
        if store.count == 0:
            raise RetrievalUnavailableError("cannot search an empty datastore")
        if store.num_labels != model.config.num_labels:
            raise ValueError(
                f"datastore has {store.num_labels} labels but the model has "
                f"{model.config.num_labels}"
            )
    cache = model.features(_pool_rows(tokens, token_counts, model.config.pooling))
    p_cls = model.classify(cache.h0)
    if k is None:
        return p_cls, None, None
    return (p_cls, *store.search_batch(cache.r, k))


def _score(model, store: Datastore | None, tokens: np.ndarray, token_counts: np.ndarray,
           params: RetrievalParams) -> BatchPrediction:
    """The neighbor step, one vote and one blend over a `_neighbor_step` batch."""
    k = params.k if params.knn_weight > 0.0 else None
    p_cls, indices, distances = _neighbor_step(model, store, tokens, token_counts, k)
    p_knn = None if k is None else knn_distribution_batch(
        store.labels[indices], distances, params.temperature, store.num_labels
    )
    p_final = (p_cls.copy() if p_knn is None
               else interpolate_batch(p_knn, p_cls, params.knn_weight))
    return BatchPrediction(
        labels=np.argmax(p_final, axis=1),
        probs=p_final,
        classifier_probs=p_cls,
        neighbor_probs=p_knn,
        neighbor_indices=indices,
        neighbor_distances=distances,
    )


def predict_batch(model, store: Datastore | None, dataset,
                  params: RetrievalParams) -> BatchPrediction:
    """Classify each example of a dataset, read from its `tokens` and `token_counts`.
    The store is consulted only when knn_weight > 0 (it may be empty or None
    otherwise). Label ties break to the lowest index."""
    return _score(model, store, dataset.tokens, dataset.token_counts, params)


def predict(model, store: Datastore | None, tokens, params: RetrievalParams) -> Prediction:
    """Classify one token sequence; the one-row `predict_batch`."""
    seq = as_tokens(tokens)
    batch = _score(model, store, seq, np.array([len(seq)]), params)
    return Prediction(
        label=int(batch.labels[0]),
        probs=batch.probs[0],
        classifier_probs=batch.classifier_probs[0],
        neighbor_probs=None if batch.neighbor_probs is None else batch.neighbor_probs[0],
    )


def build_datastore(model, dataset) -> Datastore:
    """Key the store by each example's retrieval representation, encoded
    KEY_BLOCK at a time. Each block pools straight from the dataset's token
    matrix, which its construction checked, and never reads `examples`."""
    if dataset.input_dim != model.config.input_dim:
        raise DimensionMismatchError(
            f"dataset input_dim {dataset.input_dim} does not match model "
            f"input_dim {model.config.input_dim}"
        )
    if dataset.num_labels != model.config.num_labels:
        raise ValueError(
            f"dataset has {dataset.num_labels} labels but the model has "
            f"{model.config.num_labels}"
        )
    keys = np.empty((len(dataset), model.config.key_dim), dtype=np.float32)
    counts = dataset.token_counts
    bounds = np.concatenate(([0], np.cumsum(counts)))  # example i's rows: bounds[i]:bounds[i + 1]
    for start in range(0, len(dataset), KEY_BLOCK):
        stop = min(start + KEY_BLOCK, len(dataset))
        block = dataset.tokens[bounds[start] : bounds[stop]]
        pooled = _pool_rows(block, counts[start:stop], model.config.pooling)
        keys[start:stop] = model.features(pooled).r
    return Datastore._adopt(keys, dataset.labels(), dataset.num_labels)
