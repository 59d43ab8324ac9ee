"""Joint cross-entropy / triplet training with in-batch pair selection.

The objective mixes the classifier's cross-entropy with a margin hinge over
squared-L2 distances between retrieval representations:

    loss = (1 - triplet_weight) * mean(ce) + triplet_weight * mean(triplet)

Positives are same-label batch mates (falling back to the example itself),
negatives are different-label batch mates (falling back to any other example;
a batch of one skips the hinge term), drawn for a whole epoch at once in
(batch, label)-sorted order, each label block placed by counting, not
searching. The examples are rows of datasets, which checked their tokens;
one adapter turns them into inputs, through the model's one input step
`Model._inputs`, and labels, refusing by `core.as_labels` a label the model
has no output for, and `train` pools the dataset through it once. Each epoch
gathers the pooled rows and labels into shuffled order once; a batch is a
contiguous slice of them.
The weights live in one flat vector, which `train` steps and `grad_check`
perturbs, on a copy, entry by entry. One function, `_loss`, computes a
batch's loss terms and, on request, their gradients into one flat buffer;
`combined_loss`, `loss_and_gradients`, `train` and `grad_check` all go
through it. Its cross-entropy reaches the gold cells through one flat
index; its hinge holds the differences to the positives and to the
negatives as one stacked (2, anchors, width) array, and its backward sums
every anchor, positive and negative contribution with one `np.bincount`, in
that order per cell; both index from `_cell_table`, built once per shape.
The bits match a batch-by-batch loop with `np.add.at`. Each of the four
entries enters one `np.errstate` (`_quiet`), which covers the forward pass
too, so a diverging model's loss turns non-finite without a warning;
`train` raises `TrainingDivergedError`.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import POSITIVE, Bound, _softmax, as_labels, coerce_fields
from .data import TrainExample
from .model import Model, ModelConfig

__all__ = [
    "CE_PROB_FLOOR",
    "EpochStats",
    "GradCheckReport",
    "Hyperparams",
    "LossTerms",
    "TrainingDivergedError",
    "combined_loss",
    "grad_check",
    "loss_and_gradients",
    "select_pairs",
    "train",
]

# Probabilities are clamped here before the log so a collapsed softmax cannot
# produce an infinite cross-entropy.
CE_PROB_FLOOR = 1e-12

# `grad_check`'s pass criteria, and its limit on jitters away from a hinge kink.
GRAD_CHECK_REL_TOL = 1e-4
GRAD_CHECK_ABS_TOL = 1e-8
GRAD_CHECK_MAX_RESAMPLES = 25

# Every entry's one scope: it reports a diverging model's loss, not a warning.
_quiet = np.errstate(over="ignore", invalid="ignore")


class TrainingDivergedError(RuntimeError):
    """The optimizer produced a non-finite loss."""


@dataclass(frozen=True)
class Hyperparams:
    """Optimizer and objective settings, each number within its field's declared `Bound`."""

    triplet_weight: float = Bound(0, 1).field(0.5)
    margin: float = POSITIVE.field(1.0)
    learning_rate: float = POSITIVE.field(0.1)
    batch_size: int = Bound(1).field(32)
    epochs: int = Bound(0).field(20)
    seed: int = Bound(0).field(0)

    __post_init__ = coerce_fields


def _pair_indices(labels: np.ndarray, batch_size: int, rng: np.random.Generator):
    """Batch-local (pos, neg) for every row of an epoch's labels, taken
    `batch_size` rows at a time; neg is -1 where there is none.

    On a (batches, batch_size) grid of rows, the last batch padded with a
    label past the others, (batch index, label) keys sort each candidate set
    into a span of its batch minus one gap (the member itself, or its label's
    block), whose size and start a `bincount` of the keys and its `cumsum`
    give. One `rng.integers` call draws each set's rank (per batch, mates then
    others); a high of 1 draws nothing, as for a batch of one or the padding.
    """
    n = labels.shape[0]
    nb = -(-n // batch_size)
    span = int(labels.max()) + 2  # the labels, then the padding's
    index = np.min_scalar_type(-1 - max(nb * span, nb * batch_size))  # signed, holds both
    key = np.full((nb, batch_size), span - 1, dtype=index)
    key.reshape(-1)[:n] = labels
    key += np.arange(0, nb * span, span, dtype=index)[:, None]
    counts = np.bincount(key.reshape(-1)).astype(index)
    first = np.arange(0, nb * batch_size, batch_size, dtype=index)[:, None]
    width = np.minimum(n - first, batch_size)  # each batch's rows
    size = counts.take(key)
    lonely = size == width  # no different label: every other member is a negative
    high = np.stack([size - 1, np.where(lonely, width - 1, width - size)], axis=1).astype(np.int64)
    high[-1, :, width[-1, 0]:] = 1
    mate, other = rng.integers(np.maximum(high, 1, out=high)).astype(index).transpose(1, 0, 2)
    del high
    order = np.argsort(key, axis=None, kind="stable").astype(index).reshape(nb, batch_size)
    start = (np.cumsum(counts, dtype=index) - counts).take(key)
    place = key  # each row's own position, in the keys' buffer
    place.reshape(-1)[order.reshape(-1)] = np.arange(nb * batch_size, dtype=index)
    order -= first  # rows count from their batch's start
    mate += start
    mate = np.where(size > 1, mate + (mate >= place), place)
    other += first
    other += np.where(lonely, other >= place, size * (other >= start))
    neg = order.take(np.minimum(other, first + width - 1)).astype(np.int64)  # kept in range
    neg[width[:, 0] == 1] = -1  # for a batch of one, which has no negative
    return order.take(mate).astype(np.int64).reshape(-1)[:n], neg.reshape(-1)[:n]


def select_pairs(batch: Sequence[TrainExample], rng: np.random.Generator):
    """Pick (positive_index, negative_index) for every batch member.

    Positive: a uniformly chosen other member with the same label, else the
    member itself. Negative: a uniformly chosen member with a different label,
    else any other member; in a batch of one there is no admissible negative
    and the index is None (that hinge term is skipped).
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    labels = np.array([ex.label for ex in batch], dtype=np.int64)
    pos, neg = _pair_indices(labels, labels.shape[0], rng)
    return [(int(p), int(q) if q >= 0 else None) for p, q in zip(pos, neg)]


@dataclass(frozen=True)
class LossTerms:
    """Batch means: the mixed total plus its two unweighted components."""

    total: float
    ce: float
    triplet: float


def _term_weights(config: ModelConfig, hyper: Hyperparams) -> tuple[float, float]:
    # With the hinge term disabled the objective is plain mean cross-entropy,
    # not cross-entropy scaled by (1 - triplet_weight).
    if not config.triplet_enabled:
        return 1.0, 0.0
    return 1.0 - hyper.triplet_weight, hyper.triplet_weight


@functools.lru_cache(maxsize=8)
def _cell_table(n: int, width: int) -> np.ndarray:
    """The read-only flat index of each cell of an (n, width) array, built once per shape."""
    table = np.arange(n * width).reshape(n, width)
    table.flags.writeable = False
    return table


def _hinge(r: np.ndarray, pos: np.ndarray, neg: np.ndarray, margin: float):
    """The (3, m) rows of the m anchors that have a negative, of their
    positives and of their negatives; the anchors' differences to the
    positive and to the negative, stacked as one (2, m, width) array; and the
    raw margins d(a,p) - d(a,n) + margin.

    All three row sets are gathered in one index and both squared distances
    taken in one `einsum`.
    """
    anchors = (neg >= 0).nonzero()[0]
    trio = np.concatenate([anchors, pos[anchors], neg[anchors]])
    rows = r.take(trio, axis=0).reshape(3, -1, r.shape[1])
    diff = rows[0] - rows[1:]
    sq = np.einsum("kij,kij->ki", diff, diff)
    raw = sq[0] - sq[1]
    raw += margin
    return trio.reshape(3, -1), diff, raw


def _mix_total(ce_weight: float, ce_mean: float, trip_weight: float, trip_mean: float) -> float:
    # Endpoint weights skip the other term entirely so that weight 0 or 1
    # reproduces the surviving mean bit for bit (and 0 * inf never occurs).
    if trip_weight == 0.0:
        return ce_weight * ce_mean
    if ce_weight == 0.0:
        return trip_weight * trip_mean
    return ce_weight * ce_mean + trip_weight * trip_mean


def _loss(model: Model, x: np.ndarray, labels: np.ndarray, pos: np.ndarray,
          neg: np.ndarray, hyper: Hyperparams, grads: dict | None = None) -> LossTerms:
    """Loss terms of a batch of pooled inputs.

    pos and neg index the batch; a negative of -1 skips that hinge term. Given
    `grads` (weight name -> array, zeroed or left by a call with the same
    config and hyper), each gradient that a term reaches is written into it.
    Products call `np.dot` and sums `np.add.reduce`, the BLAS product and the
    reduction that `@` and `ndarray.sum` reach through more dispatch, with
    the same bits. Overflow is the caller's to silence: see `_quiet`.
    """
    cfg = model.config
    ce_weight, trip_weight = _term_weights(cfg, hyper)
    n = x.shape[0]

    a1, h0, d1, r = model._forward(x)
    head_out = model._logits(h0)
    probs = _softmax(head_out)
    gold_at = labels + _cell_table(n, probs.shape[1])[:, 0]  # flat index of each gold cell
    gold = probs.take(gold_at)
    # The negated sum over n is np.mean of the negated logs, bit for bit.
    ce_mean = -float(np.add.reduce(np.log(np.maximum(gold, CE_PROB_FLOOR)))) / n

    if cfg.triplet_enabled:
        trio, diff, raw = _hinge(r, pos, neg, hyper.margin)
        # np.maximum, unlike a comparison, carries a NaN margin into the loss;
        # margins that sum past float64 give an inf loss, reported by the caller.
        trip_mean = float(np.add.reduce(np.maximum(raw, 0.0))) / n
    else:
        trip_mean = 0.0
    terms = LossTerms(_mix_total(ce_weight, ce_mean, trip_weight, trip_mean), ce_mean, trip_mean)
    if grads is None:
        return terms

    d_h0 = 0.0  # an array once a term adds to it; at least one term does

    # Cross-entropy path: softmax+log gradient, then back through the head
    # activation, in place in `probs` (`gold` is a copy, so `gold - 1.0` is
    # each gold cell less one). Rows where the probability floor clipped the
    # log get zero gradient, matching the clamped forward value.
    if ce_weight != 0.0:
        d_head_pre = probs
        d_head_pre.put(gold_at, gold - 1.0)
        if gold.min() <= CE_PROB_FLOOR:
            d_head_pre[gold <= CE_PROB_FLOOR] = 0.0
        d_head_pre *= ce_weight / n
        _times_act_grad(d_head_pre, head_out, cfg.activation)
        np.dot(d_head_pre.T, h0, out=grads["head_w"])
        d_h0 = np.dot(d_head_pre, model.head_w)

    # Hinge path: only strictly positive margins carry gradient (the kink at
    # exactly zero uses the inactive branch). The active columns of the
    # stacked rows and differences give every contribution at once. Each
    # (row, column) cell of d_r sums its contributions from 0.0 in index order
    # (anchors, then positives, then negatives), as np.add.at would, through
    # one bincount. Scaling after the negation is exact: (2 scale) * -dp is
    # -2 scale * dp.
    if trip_weight != 0.0:
        active = raw > 0.0
        width = r.shape[1]
        targets = trio.compress(active, axis=1).ravel()
        cells = _cell_table(n, width).take(targets, axis=0).ravel()
        dp, dn = diff.compress(active, axis=1)
        contributions = np.concatenate([dp - dn, -dp, dn])
        contributions *= (trip_weight / n) * 2.0
        d_r = np.bincount(cells, contributions.ravel(), minlength=n * width)
        d_r = d_r.astype(np.float64, copy=False).reshape(n, width)  # int zeros if none is active
        if cfg.decouple_enabled:
            np.dot(d_r.T, d1, out=grads["dec_w2"])
            np.add.reduce(d_r, axis=0, out=grads["dec_b2"])
            d_g1 = np.dot(d_r, model.dec_w2)
            _times_act_grad(d_g1, d1, cfg.activation)
            np.dot(d_g1.T, h0, out=grads["dec_w1"])
            np.add.reduce(d_g1, axis=0, out=grads["dec_b1"])
            d_r = np.dot(d_g1, model.dec_w1)  # the hinge's gradient, carried back to h0
        d_h0 = d_h0 + d_r

    # Encoder backward, shared by both paths.
    np.dot(d_h0.T, a1, out=grads["enc_w2"])
    np.add.reduce(d_h0, axis=0, out=grads["enc_b2"])
    d_z1 = np.dot(d_h0, model.enc_w2)
    _times_act_grad(d_z1, a1, cfg.activation)
    np.dot(d_z1.T, x, out=grads["enc_w1"])
    np.add.reduce(d_z1, axis=0, out=grads["enc_b1"])
    return terms


def _times_act_grad(d: np.ndarray, y: np.ndarray, activation: str) -> None:
    """d *= `ACTIVATIONS[activation].grad_from_output(y)`, bit for bit, with no
    new array: tanh's 1 - y*y is written into y, which the caller reads no
    more, and the identity's derivative, ones, leaves d as it is."""
    if activation == "tanh":
        np.multiply(y, y, out=y)
        np.subtract(1.0, y, out=y)
        d *= y


def _flat_buffer(model: Model) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """A zeroed buffer the size of all the weights, and a view of it shaped like each."""
    flat = np.zeros(sum(arr.size for arr in model.parameters().values()))
    views, at = {}, 0
    for name, arr in model.parameters().items():
        views[name] = flat[at : at + arr.size].reshape(arr.shape)
        at += arr.size
    return flat, views


def _flat_model(model: Model) -> tuple[Model, np.ndarray]:
    """A copy of `model` whose weights are views of one fresh float64 vector,
    in layout order, and that vector, which a step or perturbation moves."""
    weights, views = _flat_buffer(model)
    for name, view in views.items():
        view[...] = getattr(model, name)
    return Model(config=model.config, **views), weights


def _pooled(model: Model, examples: Sequence[TrainExample]) -> tuple[np.ndarray, np.ndarray]:
    """Pooled inputs and int64 labels of examples, rows of datasets that checked
    their tokens: the inputs by `Model._inputs`, the labels by `core.as_labels`
    over the model's label count."""
    if len(examples) == 0:
        raise ValueError("examples must be non-empty")
    tokens = np.concatenate([ex.tokens for ex in examples])
    counts = np.array([len(ex.tokens) for ex in examples], dtype=np.int64)
    x = model._inputs(tokens, counts)  # first: after the labels it cost query-100k 10 MB peak RSS
    labels = np.array([ex.label for ex in examples], dtype=np.int64)
    return x, as_labels(labels, model.config.num_labels)


def _batch_arrays(model: Model, batch: Sequence[TrainExample], pairs):
    """Pooled inputs, labels, and pos/neg index arrays for a batch and its pairs."""
    if len(pairs) != len(batch):
        raise ValueError("pairs must align one-to-one with the batch")
    x, labels = _pooled(model, batch)
    pos = np.array([p for p, _ in pairs], dtype=np.int64)
    neg = np.array([-1 if q is None else q for _, q in pairs], dtype=np.int64)
    return x, labels, pos, neg


@_quiet
def combined_loss(model: Model, batch: Sequence[TrainExample], pairs,
                  hyper: Hyperparams) -> tuple[float, LossTerms]:
    """Mixed batch loss; returns (scalar total, per-term breakdown)."""
    terms = _loss(model, *_batch_arrays(model, batch, pairs), hyper)
    return terms.total, terms


@_quiet
def loss_and_gradients(model: Model, batch: Sequence[TrainExample], pairs,
                       hyper: Hyperparams):
    """Batch loss terms plus analytic gradients for every weight array."""
    _, grads = _flat_buffer(model)
    return _loss(model, *_batch_arrays(model, batch, pairs), hyper, grads), grads


# ---------------------------------------------------------------------------
# Gradient checking


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing analytic gradients against central differences."""

    passed: bool
    finite: bool
    max_rel_error: float
    max_abs_error: float
    num_checked: int
    resample_attempts: int
    worst_param: str | None
    note: str = ""


def _failed_check(resamples: int, note: str, finite: bool = True) -> GradCheckReport:
    return GradCheckReport(
        passed=False, finite=finite, max_rel_error=math.inf, max_abs_error=math.inf,
        num_checked=0, resample_attempts=resamples, worst_param=None, note=note,
    )


@_quiet
def grad_check(model: Model, batch: Sequence[TrainExample], hyper: Hyperparams,
               step: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients with (f(w+step) - f(w-step)) / (2 step).

    It perturbs a copy of the model whose weights view one flat vector; the
    pairs and any jitter are drawn from hyper.seed. A relative criterion
    applies where either gradient is meaningfully large, an absolute one near
    zero; a non-finite error fails as an infinite relative one. If a hinge
    margin sits within 100*step of its kink, the vector is jittered and
    re-checked so the finite difference never straddles the non-smooth point.
    A non-finite loss is reported (passed=False, finite=False), not raised.
    worst_param names the entry whose error is the largest multiple of its
    tolerance, the first of equals, as "name[i]" (i indexing that weight's
    flattened array); it is None if every error is zero.
    """
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    rng = np.random.default_rng(hyper.seed)
    work, weights = _flat_model(model)
    x, labels = _pooled(work, batch)
    pos, neg = _pair_indices(labels, labels.shape[0], rng)

    _, trip_weight = _term_weights(work.config, hyper)
    resamples = 0
    while trip_weight != 0.0:
        _, _, raw = _hinge(work._forward(x)[3], pos, neg, hyper.margin)
        if not (np.abs(raw[np.isfinite(raw)]) < 100.0 * step).any():
            break
        if resamples >= GRAD_CHECK_MAX_RESAMPLES:
            return _failed_check(resamples, "could not move all hinge margins away from the kink")
        resamples += 1
        weights += rng.normal(0.0, 1e-2, size=weights.size)

    analytic, grads = _flat_buffer(work)
    terms = _loss(work, x, labels, pos, neg, hyper, grads)
    if not math.isfinite(terms.total):
        return _failed_check(resamples, f"non-finite loss {terms.total}", finite=False)

    numeric = np.empty_like(weights)
    for j, original in enumerate(weights.tolist()):
        weights[j] = original + step
        f_plus = _loss(work, x, labels, pos, neg, hyper).total
        weights[j] = original - step
        f_minus = _loss(work, x, labels, pos, neg, hyper).total
        weights[j] = original
        numeric[j] = (f_plus - f_minus) / (2.0 * step)

    # The relative criterion is meaningless when both gradients are tiny; the
    # floor routes those comparisons to the absolute criterion instead.
    denom_floor = 1e-4
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    relative = ~(denom < denom_floor)  # so is a NaN gradient, its error set to inf below
    error = np.abs(analytic - numeric) / np.where(relative, denom, 1.0)
    error[np.isnan(error)] = math.inf
    tolerance = np.where(relative, GRAD_CHECK_REL_TOL, GRAD_CHECK_ABS_TOL)
    worst = int(np.argmax(error / tolerance))
    names = [f"{name}[{i}]" for name, arr in work.parameters().items() for i in range(arr.size)]
    return GradCheckReport(
        passed=bool((error <= tolerance).all()), finite=True,
        max_rel_error=float(error[relative].max(initial=0.0)),
        max_abs_error=float(error[~relative].max(initial=0.0)),
        num_checked=weights.size, resample_attempts=resamples,
        worst_param=names[worst] if error[worst] > 0.0 else None,
    )


# ---------------------------------------------------------------------------
# The training loop


@dataclass(frozen=True)
class EpochStats:
    """Example-weighted loss means for one epoch, plus wall time."""

    epoch: int
    mean_ce: float
    mean_triplet: float
    mean_total: float
    wall_ms: float

    def format_line(self) -> str:
        return (
            f"epoch={self.epoch} mean_ce={self.mean_ce!r} "
            f"mean_triplet={self.mean_triplet!r} mean_total={self.mean_total!r} "
            f"wall_ms={self.wall_ms:.1f}"
        )


@_quiet
def train(data: Sequence[TrainExample], hyper: Hyperparams,
          model_config: ModelConfig) -> tuple[Model, list[EpochStats]]:
    """Mini-batch SGD over the mixed objective; reproducible from the seed.

    One generator (seeded with hyper.seed) drives initialization, the
    per-epoch shuffle, and pair selection, so the whole trajectory is a pure
    function of (data, hyper, model_config). Every example is pooled once,
    up front. Each epoch gathers the pooled rows and labels into its shuffled
    order once, so each batch is a contiguous slice, and draws its pairs in
    one call; the weights and their gradients each live in one flat buffer,
    so a step is one update.
    """
    rng = np.random.default_rng(hyper.seed)
    model, weights = _flat_model(Model.initialize(model_config, rng))
    all_x, all_labels = _pooled(model, data)
    if _term_weights(model_config, hyper)[1] > 0.0 and np.unique(all_labels).size < 2:
        raise ValueError("triplet training needs at least two distinct labels")

    grad_flat, grads = _flat_buffer(model)
    update = np.empty_like(grad_flat)  # learning_rate * grad_flat, each step
    n = len(data)
    # Each epoch's rows, in its order. The order is a permutation, so no index
    # is clipped; with mode="clip", `take` writes into the buffer directly
    # instead of through a second copy.
    epoch_x = np.empty_like(all_x)
    log: list[EpochStats] = []
    for epoch in range(hyper.epochs):
        started = time.perf_counter()
        order = rng.permutation(n)
        np.take(all_x, order, axis=0, out=epoch_x, mode="clip")
        epoch_labels = all_labels[order]
        epoch_pos, epoch_neg = _pair_indices(epoch_labels, hyper.batch_size, rng)
        sum_ce = sum_trip = sum_total = 0.0
        for start in range(0, n, hyper.batch_size):
            end = min(start + hyper.batch_size, n)
            terms = _loss(model, epoch_x[start:end], epoch_labels[start:end],
                          epoch_pos[start:end], epoch_neg[start:end], hyper, grads)
            if not math.isfinite(terms.total):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch + 1}, batch starting at "
                    f"{start}: total={terms.total} ce={terms.ce} triplet={terms.triplet}"
                )
            weights -= np.multiply(grad_flat, hyper.learning_rate, out=update)
            b = end - start
            sum_ce += terms.ce * b
            sum_trip += terms.triplet * b
            sum_total += terms.total * b
        wall_ms = (time.perf_counter() - started) * 1000.0
        log.append(EpochStats(epoch + 1, sum_ce / n, sum_trip / n, sum_total / n, wall_ms))
    return model, log
