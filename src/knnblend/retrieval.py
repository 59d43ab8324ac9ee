"""Neighbor-vote label distributions and their blend with the classifier.

Retrieved neighbors are turned into a label distribution by a softmax over
temperature-scaled negative distances, aggregated per label. That
distribution is mixed with the classifier's own output by a fixed weight.

Every score takes one neighbor step, `_neighbor_step`, on a token matrix and
its token counts or on one sequence: given k, the store checks
(`RetrievalUnavailableError` without one or for an empty one), the model's
one input step `Model._inputs`, one encode and classify, then, given k, one
search. `_score` adds one vote and one blend, over (B, ·) arrays for
`predict_batch` and over 1-d rows for `predict` on one `as_tokens` sequence;
`evaluate.run_sweep` takes the step once, weighs the hits once per
temperature and tallies and blends per grid cell.
`predict`, `knn_distribution` and `interpolate` are one-row forms.

The path checks its inputs once, at its entry, and then calls kernels that
check nothing. Its checks are `as_tokens` (or the dataset's), the store's
against the model, the width rule of `Model._inputs`, the finiteness of
the logits (as `core.softmax`) and of the retrieval vectors r (as
`datastore.check_queries`; huge identity-activation weights or inputs can
overflow either), and the vote's `NonFiniteDistanceError` for a distance
that overflowed or a row whose every scaled distance overflows at a tiny
temperature. Its kernels are `Model._forward`, `Model._logits`,
`core._softmax`, `Datastore._search` (`_search_one` for one 1-d query) and
`_vote`, which is `_tally` (per-label sums, normalized) of `_weights` (the
exponentials, and the vote's only check); each public stage is its own
checks plus its kernel, whose docstring names what it assumes. The blend
is `interpolate_batch` itself.
`build_datastore` adds no check: `Model._inputs` checks its token width, and
the store's label rule its labels, over the model's label count. It encodes
in `key_blocks`, the fewest equal blocks whose float64 activations each stay
within the search's `WORK_BYTES`; an equal split leaves no short tail block,
whose few rows BLAS can round differently from the unblocked encode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (POSITIVE, Bound, DimensionMismatchError, _softmax, as_labels, as_number,
                   as_tokens, check_logit_rows, coerce_fields, not_text, validate_distribution)
from .datastore import (K_BOUND, WORK_BYTES, Datastore, NeighborHit, RetrievalUnavailableError,
                        check_queries)

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


_MAX64 = float(np.finfo(np.float64).max)


class NonFiniteDistanceError(ValueError):
    """A distance, or every distance / temperature, overflowed: the vote is NaN."""


@dataclass(frozen=True)
class RetrievalParams:
    """Neighbor count, distance temperature and blend weight, each within its declared `Bound`."""

    k: int = K_BOUND.field(64)
    temperature: float = POSITIVE.field(10.0)
    knn_weight: float = Bound(0, 1).field(0.2)

    __post_init__ = coerce_fields


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
    try:
        t = float(not_text(temperature, "temperature"))
    except (TypeError, OverflowError):  # None, a list, an int beyond float
        t = as_number(temperature, "temperature", float)  # raises the number rule's ValueError
    if not (t > 0.0):
        raise ValueError(f"temperature must be positive, got {temperature}")
    num_labels = as_number(num_labels, "num_labels")
    labels = as_labels(labels, num_labels)
    distances = np.asarray(distances, dtype=np.float64)
    if labels.ndim != 2 or labels.shape != distances.shape:
        raise DimensionMismatchError(f"labels {labels.shape} and distances {distances.shape} "
                                     f"are not one (B, k) shape")
    if labels.shape[1] == 0:
        raise RetrievalUnavailableError("cannot form a label distribution from zero hits")
    return _vote(labels, distances, temperature, num_labels,
                 distances.min(axis=1, keepdims=True), np.abs(distances).max(initial=0.0))


def _vote(labels: np.ndarray, distances: np.ndarray, temperature, num_labels: int,
          nearest: np.ndarray, farthest: float) -> np.ndarray:
    """The vote kernel: `knn_distribution_batch` of int64 labels in [0, num_labels)
    and float64 distances of one (B, k >= 1) or (k,) shape, at a positive
    temperature, none of which it checks: `_tally` of `_weights`."""
    return _tally(labels, _weights(distances, temperature, nearest, farthest), num_labels)


def _weights(distances: np.ndarray, temperature, nearest: np.ndarray,
             farthest: float) -> np.ndarray:
    """The vote's weights exp(distance / -t - nearest / -t), elementwise, of
    float64 distances of a (B, k) or (k,) shape. `nearest`, (B, 1) or a scalar,
    is each row's least distance and `farthest` the largest magnitude of any
    (NaN if one is).

    It raises `NonFiniteDistanceError` for a non-finite distance or a row
    whose every scaled distance overflows, and enters `np.errstate` only when
    `farthest / temperature` shows that a scaled distance can overflow. A
    row's peak, its largest scaled distance, is nearest / -t exactly: dividing
    by -t reverses the order of the distances, and rounding keeps that order.
    """
    if not farthest < np.inf:
        raise _non_finite(temperature)
    t = float(temperature)
    if float(farthest) / t < _MAX64:
        scaled, peak = distances / -t, nearest / -t
    else:
        with np.errstate(over="ignore"):
            scaled, peak = distances / -t, nearest / -t
        if not np.isfinite(peak).all():
            raise _non_finite(temperature)
    scaled -= peak
    return np.exp(scaled, out=scaled)


def _tally(labels: np.ndarray, weights: np.ndarray, num_labels: int) -> np.ndarray:
    """Per-label sums of a vote's weights, normalized: each (row, label) cell
    sums its weights in hit order, starting from 0.0, over labels and weights
    of one (B, k) or (k,) shape."""
    if labels.ndim == 1:
        probs = np.bincount(labels, weights, minlength=num_labels)
    else:
        rows = labels.shape[0]
        cells = (np.arange(rows)[:, None] * num_labels + labels).ravel()
        probs = np.bincount(cells, weights.ravel(), minlength=rows * num_labels)
        probs = probs.reshape(rows, num_labels)
    return probs / np.add.reduce(probs, axis=-1, keepdims=True)


def _non_finite(temperature) -> NonFiniteDistanceError:
    return NonFiniteDistanceError(
        f"neighbor distances are not finite at temperature {temperature!r}")


def _hit_bounds(distances: np.ndarray):
    """`_vote`'s (nearest, farthest) of a search's (B, k) or (k,) hit distances,
    whose rows ascend: each row's least distance is its first, and the largest
    of all is in the last column."""
    if distances.ndim == 1:
        return distances[0], distances[-1]
    return distances[:, :1], distances[:, -1].max(initial=0.0)


def knn_distribution(
    hits: Sequence[NeighborHit], temperature: float, num_labels: int
) -> np.ndarray:
    """Label distribution from neighbor hits; the one-row `knn_distribution_batch`."""
    return knn_distribution_batch([[hit.label for hit in hits]],
                                  [[hit.distance for hit in hits]], temperature, num_labels)[0]


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
    try:
        w = float(not_text(knn_weight, "knn_weight"))
    except (TypeError, OverflowError):
        w = as_number(knn_weight, "knn_weight", float)  # raises the number rule's ValueError
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
                   token_counts: np.ndarray | None, k: int | None):
    """Classifier distributions of a batch and, given k, each row's hits.

    The batch is the sequences that split a finite (total_tokens, input_dim)
    token matrix by `token_counts`, or, with `token_counts` None, the one
    sequence `tokens`, whose arrays are 1-d rows. Returns (classifier_probs,
    indices, distances); without k the store is never consulted (it may be
    empty or None) and the hit arrays are None. Given k, the store is checked
    before anything is pooled or encoded. The r vectors are the queries.
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
        if store.dim != model.config.key_dim:
            raise DimensionMismatchError(f"datastore dimension {store.dim} does not match "
                                         f"the model's key_dim {model.config.key_dim}")
    _, h0, _, r = model._forward(model._inputs(tokens, token_counts))
    p_cls = _softmax(check_logit_rows(model._logits(h0)))
    if k is None:
        return p_cls, None, None
    if not np.isfinite(r).all():
        check_queries(r.reshape(-1, r.shape[-1]))  # raises, naming one row as a batch of one
    return (p_cls, *store._search(r, k))


def _score(model, store: Datastore | None, tokens: np.ndarray,
           token_counts: np.ndarray | None, params: RetrievalParams):
    """The neighbor step, one vote and one blend over a `_neighbor_step`
    batch, or its one row: (probs, classifier probs, neighbor probs,
    indices, distances), the neighbor fields None when knn_weight is 0."""
    k = params.k if params.knn_weight > 0.0 else None
    p_cls, indices, distances = _neighbor_step(model, store, tokens, token_counts, k)
    if k is None:
        return p_cls.copy(), p_cls, None, None, None
    p_knn = _vote(store._labels[indices], distances, params.temperature, store.num_labels,
                  *_hit_bounds(distances))
    p_final = interpolate_batch(p_knn, p_cls, params.knn_weight)
    return p_final, p_cls, p_knn, indices, distances


def predict_batch(model, store: Datastore | None, dataset,
                  params: RetrievalParams) -> BatchPrediction:
    """Classify each example of a dataset, read from its `tokens` and `token_counts`.
    The store is consulted only when knn_weight > 0 (it may be empty or None
    otherwise). Label ties break to the lowest index."""
    probs, *rest = _score(model, store, dataset.tokens, dataset.token_counts, params)
    return BatchPrediction(probs.argmax(axis=1), probs, *rest)


def predict(model, store: Datastore | None, tokens, params: RetrievalParams) -> Prediction:
    """Classify one token sequence: `predict_batch`'s path on its 1-d row."""
    probs, p_cls, p_knn, _, _ = _score(model, store, as_tokens(tokens), None, params)
    return Prediction(int(probs.argmax()), probs, p_cls, p_knn)


def key_blocks(count: int, width: int) -> list[int]:
    """Row bounds of `build_datastore`'s blocks over `count` examples whose
    model's widest layer has `width` entries: as few blocks as keep each
    (rows, width) float64 activation within the search's `WORK_BYTES` (1,024
    rows at width 32), their sizes apart by at most one row; one block, [0, 0],
    for no examples. An equal split leaves no short tail block: with numpy
    2.4's OpenBLAS 0.3.31, every float64 row of a product over 32 rows or
    fewer rounded differently from the same row in a larger product, which a
    float32 key can show. Two or more blocks each hold at least half the most."""
    blocks = max(1, -(-count // max(1, WORK_BYTES // (8 * width))))
    return [count * i // blocks for i in range(blocks + 1)]


def build_datastore(model, dataset) -> Datastore:
    """Key a store over the model's labels by each example's retrieval
    representation, encoded one `key_blocks` block at a time, so the build
    holds the float32 keys plus one block's float64 activations (pooled
    input, a1, h0, d1, r), each within `WORK_BYTES`. Each block goes straight
    from the dataset's token matrix, which its construction checked, through
    `Model._inputs` into `Model.features`, and never reads `examples`. The
    loop runs at least once, so the width rule sees an empty dataset too."""
    cfg = model.config
    keys = np.empty((len(dataset), cfg.key_dim), dtype=np.float32)
    counts = dataset.token_counts
    bounds = np.concatenate(([0], np.cumsum(counts)))  # example i's rows: bounds[i]:bounds[i + 1]
    splits = key_blocks(len(dataset), max(cfg.input_dim, cfg.hidden_dim, cfg.emb_dim, cfg.key_dim))
    for start, stop in zip(splits, splits[1:]):
        block = dataset.tokens[bounds[start] : bounds[stop]]
        keys[start:stop] = model.features(model._inputs(block, counts[start:stop])).r
    return Datastore._adopt(keys, dataset.labels(), cfg.num_labels)
