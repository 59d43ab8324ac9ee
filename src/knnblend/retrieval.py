"""Neighbor-vote label distributions and their blend with the classifier.

Retrieved neighbors are turned into a label distribution by a softmax over
temperature-scaled negative distances, aggregated per label. That
distribution is mixed with the classifier's own output by a fixed weight.

Every prediction takes one scoring path, `predict_batch`: a batched encode,
`Datastore.search_batch`, then `knn_distribution_batch` and `interpolate_batch`
over (B, k) arrays; `predict`, `knn_distribution` and `interpolate` wrap it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DimensionMismatchError, validate_distribution
from .datastore import Datastore, NeighborHit, RetrievalUnavailableError

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
        if int(self.k) < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not (float(self.temperature) > 0.0):
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if not (0.0 <= float(self.knn_weight) <= 1.0):
            raise ValueError(f"knn_weight must be in [0, 1], got {self.knn_weight}")


def knn_distribution_batch(
    labels, distances, temperature: float, num_labels: int
) -> np.ndarray:
    """Label distribution per row of (B, k) neighbor labels and distances:
    weight exp(-distance/temperature), summed per label and normalized.

    Each row is max-subtracted before exponentiation so large distances cannot
    underflow everything to zero at once.
    """
    if not (float(temperature) > 0.0):
        raise ValueError(f"temperature must be positive, got {temperature}")
    if int(num_labels) < 1:
        raise ValueError("num_labels must be positive")
    labels = np.asarray(labels, dtype=np.int64)
    distances = np.asarray(distances, dtype=np.float64)
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
    probs = np.zeros((labels.shape[0], int(num_labels)), dtype=np.float64)
    np.add.at(probs, (np.arange(labels.shape[0])[:, None], labels), weights)
    return probs / probs.sum(axis=1, keepdims=True)


def knn_distribution(
    hits: Sequence[NeighborHit], temperature: float, num_labels: int
) -> np.ndarray:
    """Label distribution from neighbor hits; the one-row `knn_distribution_batch`."""
    if len(hits) == 0:
        raise RetrievalUnavailableError("cannot form a label distribution from zero hits")
    labels = np.array([[hit.label for hit in hits]], dtype=np.int64)
    distances = np.array([[hit.distance for hit in hits]], dtype=np.float64)
    return knn_distribution_batch(labels, distances, temperature, num_labels)[0]


def interpolate_batch(neighbor_probs, classifier_probs, knn_weight: float) -> np.ndarray:
    """Entry-wise blend of distributions or row-aligned batches of them:
    knn_weight * neighbor + (1 - knn_weight) * classifier.

    The endpoints short-circuit to an exact copy of the corresponding input,
    so a weight of 0 or 1 reproduces that distribution bit for bit.
    """
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
    p_knn = validate_distribution(neighbor_probs)
    p_cls = validate_distribution(classifier_probs)
    if p_knn.shape != p_cls.shape:
        raise DimensionMismatchError(
            f"distribution lengths differ: {p_knn.shape[0]} vs {p_cls.shape[0]}"
        )
    return interpolate_batch(p_knn, p_cls, knn_weight)


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


def predict_batch(
    model, store: Datastore | None, token_seqs, params: RetrievalParams
) -> BatchPrediction:
    """Classify a sequence of instances, optionally blending in the neighbor vote.

    The retrieval representations r are the queries; with knn_weight == 0 the
    datastore is never consulted (it may be empty or None). Label ties break
    to the lowest index.
    """
    h0, r = model.encode_batch(token_seqs)
    p_cls = model.classify(h0)
    indices = distances = p_knn = None
    if params.knn_weight > 0.0:
        if store is None:
            raise RetrievalUnavailableError("a datastore is required when knn_weight > 0")
        if store.num_labels != model.config.num_labels:
            raise ValueError(
                f"datastore has {store.num_labels} labels but the model has "
                f"{model.config.num_labels}"
            )
        indices, distances = store.search_batch(r, params.k)
        p_knn = knn_distribution_batch(
            store.labels[indices], distances, params.temperature, store.num_labels
        )
    p_final = interpolate_batch(p_knn, p_cls, params.knn_weight)
    return BatchPrediction(
        labels=np.argmax(p_final, axis=1),
        probs=p_final,
        classifier_probs=p_cls,
        neighbor_probs=p_knn,
        neighbor_indices=indices,
        neighbor_distances=distances,
    )


def predict(model, store: Datastore | None, tokens, params: RetrievalParams) -> Prediction:
    """Classify one instance; the one-row `predict_batch`."""
    batch = predict_batch(model, store, [tokens], params)
    return Prediction(
        label=int(batch.labels[0]),
        probs=batch.probs[0],
        classifier_probs=batch.classifier_probs[0],
        neighbor_probs=None if batch.neighbor_probs is None else batch.neighbor_probs[0],
    )


def build_datastore(model, dataset) -> Datastore:
    """Encode every example and key the store by its retrieval representation."""
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
    _, r = model.encode_batch([ex.tokens for ex in dataset.examples])
    labels = np.array([ex.label for ex in dataset.examples], dtype=np.int64)
    return Datastore(keys=r, labels=labels, num_labels=dataset.num_labels)
