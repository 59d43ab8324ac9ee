"""Joint cross-entropy / triplet training with in-batch pair selection.

The objective mixes the classifier's cross-entropy with a margin hinge over
squared-L2 distances between retrieval representations:

    loss = (1 - triplet_weight) * mean(ce) + triplet_weight * mean(triplet)

Positives are same-label batch mates (falling back to the example itself),
negatives are different-label batch mates (falling back to any other example;
a batch of one skips the hinge term). Gradients are fully analytic and can be
validated against central finite differences with ``grad_check``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import squared_l2, validate_distribution
from .model import ACTIVATIONS, Model, ModelConfig, pool
from .retrieval import RetrievalParams

__all__ = [
    "CE_PROB_FLOOR",
    "EpochStats",
    "GradCheckReport",
    "Hyperparams",
    "LossTerms",
    "TrainExample",
    "TrainingDivergedError",
    "combined_loss",
    "cross_entropy",
    "grad_check",
    "loss_and_gradients",
    "select_pairs",
    "train",
    "triplet_loss",
]

# Probabilities are clamped here before the log so a collapsed softmax cannot
# produce an infinite cross-entropy.
CE_PROB_FLOOR = 1e-12


class TrainingDivergedError(RuntimeError):
    """The optimizer produced a non-finite loss."""


@dataclass(frozen=True, eq=False)
class TrainExample:
    """One labeled instance: a token matrix (n_tokens, dim), a label, an id."""

    tokens: np.ndarray
    label: int
    id: int

    def __post_init__(self):
        arr = np.asarray(self.tokens, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise ValueError(f"tokens must be a non-empty 2-d array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("tokens contain non-finite entries")
        arr.setflags(write=False)
        object.__setattr__(self, "tokens", arr)
        object.__setattr__(self, "label", int(self.label))
        object.__setattr__(self, "id", int(self.id))
        if self.label < 0:
            raise ValueError(f"label must be non-negative, got {self.label}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrainExample):
            return NotImplemented
        return (
            self.id == other.id
            and self.label == other.label
            and self.tokens.shape == other.tokens.shape
            and np.array_equal(self.tokens, other.tokens)
        )


@dataclass(frozen=True)
class Hyperparams:
    """Optimizer and objective settings; retrieval settings ride along."""

    triplet_weight: float = 0.5
    margin: float = 1.0
    learning_rate: float = 0.1
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0
    retrieval: RetrievalParams = RetrievalParams()

    def __post_init__(self):
        if not (0.0 <= float(self.triplet_weight) <= 1.0):
            raise ValueError(f"triplet_weight must be in [0, 1], got {self.triplet_weight}")
        if not (float(self.margin) > 0.0):
            raise ValueError(f"margin must be positive, got {self.margin}")
        if not (float(self.learning_rate) > 0.0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if int(self.batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if int(self.epochs) < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def cross_entropy(probs, gold: int) -> float:
    """-log p[gold], with p[gold] clamped below by CE_PROB_FLOOR."""
    p = validate_distribution(probs)
    g = int(gold)
    if not 0 <= g < p.shape[0]:
        raise ValueError(f"gold label {g} out of range for {p.shape[0]} labels")
    return -math.log(max(float(p[g]), CE_PROB_FLOOR))


def triplet_loss(anchor, positive, negative, margin: float) -> float:
    """Hinge over squared-L2: max(d(a,p) - d(a,n) + margin, 0)."""
    if not (float(margin) > 0.0):
        raise ValueError(f"margin must be positive, got {margin}")
    d_ap = squared_l2(anchor, positive)
    d_an = squared_l2(anchor, negative)
    return max(d_ap - d_an + float(margin), 0.0)


def select_pairs(batch: Sequence[TrainExample], rng: np.random.Generator):
    """Pick (positive_index, negative_index) for every batch member.

    Positive: a uniformly chosen other member with the same label, else the
    member itself. Negative: a uniformly chosen member with a different label,
    else any other member; in a batch of one there is no admissible negative
    and the index is None (that hinge term is skipped).
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    labels = [int(ex.label) for ex in batch]
    n = len(labels)
    pairs: list[tuple[int, int | None]] = []
    for i in range(n):
        same = [j for j in range(n) if j != i and labels[j] == labels[i]]
        other_label = [j for j in range(n) if labels[j] != labels[i]]
        if same:
            pos = same[int(rng.integers(len(same)))]
        else:
            pos = i
        if other_label:
            neg: int | None = other_label[int(rng.integers(len(other_label)))]
        else:
            anyone_else = [j for j in range(n) if j != i]
            if anyone_else:
                neg = anyone_else[int(rng.integers(len(anyone_else)))]
            else:
                neg = None
        pairs.append((pos, neg))
    return pairs


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
    w = float(hyper.triplet_weight)
    return 1.0 - w, w


def _pooled_batch(config: ModelConfig, batch: Sequence[TrainExample]) -> np.ndarray:
    return np.stack([pool(ex.tokens, config.pooling) for ex in batch])


def _row_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _forward(model: Model, x: np.ndarray):
    """Shared forward pass: feature cache, head scores, and probabilities."""
    cache = model.features(x)
    act = ACTIVATIONS[model.config.activation].fn
    head_pre = cache.h0 @ model.head_w.T
    head_out = act(head_pre)
    probs = _row_softmax(head_out)
    return cache, head_out, probs


def _triplet_terms(r: np.ndarray, pairs, margin: float):
    """Per-example hinge values and the raw margins they came from.

    A diverged model's distances may overflow here; that is not warned about,
    because callers test the resulting loss with `isfinite` and report it.
    """
    n = r.shape[0]
    values = np.zeros(n, dtype=np.float64)
    margins = np.full(n, np.nan)
    with np.errstate(over="ignore"):
        for i, (pos, neg) in enumerate(pairs):
            if neg is None:
                continue
            diff_p = r[i] - r[pos]
            diff_n = r[i] - r[neg]
            m = float(np.dot(diff_p, diff_p)) - float(np.dot(diff_n, diff_n)) + margin
            margins[i] = m
            values[i] = max(m, 0.0)
    return values, margins


def _mix_total(ce_weight: float, ce_mean: float, trip_weight: float, trip_mean: float) -> float:
    # Endpoint weights skip the other term entirely so that weight 0 or 1
    # reproduces the surviving mean bit for bit (and 0 * inf never occurs).
    if trip_weight == 0.0:
        return ce_weight * ce_mean
    if ce_weight == 0.0:
        return trip_weight * trip_mean
    return ce_weight * ce_mean + trip_weight * trip_mean


def _batch_loss(model: Model, x: np.ndarray, labels: np.ndarray, pairs,
                hyper: Hyperparams) -> LossTerms:
    ce_weight, trip_weight = _term_weights(model.config, hyper)
    cache, _, probs = _forward(model, x)
    n = x.shape[0]
    gold = probs[np.arange(n), labels]
    ce_mean = float(np.mean(-np.log(np.maximum(gold, CE_PROB_FLOOR))))
    if model.config.triplet_enabled:
        trip_values, _ = _triplet_terms(cache.r, pairs, float(hyper.margin))
        trip_mean = float(trip_values.mean())
    else:
        trip_mean = 0.0
    return LossTerms(
        total=_mix_total(ce_weight, ce_mean, trip_weight, trip_mean),
        ce=ce_mean,
        triplet=trip_mean,
    )


def combined_loss(model: Model, batch: Sequence[TrainExample], pairs,
                  hyper: Hyperparams) -> tuple[float, LossTerms]:
    """Mixed batch loss; returns (scalar total, per-term breakdown)."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    if len(pairs) != len(batch):
        raise ValueError("pairs must align one-to-one with the batch")
    x = _pooled_batch(model.config, batch)
    labels = np.array([ex.label for ex in batch], dtype=np.int64)
    terms = _batch_loss(model, x, labels, pairs, hyper)
    return terms.total, terms


def _batch_loss_and_grads(model: Model, x: np.ndarray, labels: np.ndarray, pairs,
                          hyper: Hyperparams):
    """Forward plus analytic backward; returns (LossTerms, grads dict)."""
    cfg = model.config
    ce_weight, trip_weight = _term_weights(cfg, hyper)
    act_grad = ACTIVATIONS[cfg.activation].grad_from_output
    n = x.shape[0]

    cache, head_out, probs = _forward(model, x)
    gold = probs[np.arange(n), labels]
    ce_mean = float(np.mean(-np.log(np.maximum(gold, CE_PROB_FLOOR))))

    if cfg.triplet_enabled:
        trip_values, margins = _triplet_terms(cache.r, pairs, float(hyper.margin))
        trip_mean = float(trip_values.mean())
    else:
        trip_values = margins = None
        trip_mean = 0.0
    terms = LossTerms(
        total=_mix_total(ce_weight, ce_mean, trip_weight, trip_mean),
        ce=ce_mean,
        triplet=trip_mean,
    )

    grads = {name: np.zeros_like(arr) for name, arr in model.parameters().items()}
    d_h0 = np.zeros_like(cache.h0)

    # Cross-entropy path: softmax+log gradient, then back through the head
    # activation. Rows where the probability floor clipped the log get zero
    # gradient, matching the clamped forward value.
    if ce_weight != 0.0:
        d_scores = probs.copy()
        d_scores[np.arange(n), labels] -= 1.0
        d_scores[gold <= CE_PROB_FLOOR] = 0.0
        d_scores *= ce_weight / n
        d_head_pre = d_scores * act_grad(head_out)
        grads["head_w"] += d_head_pre.T @ cache.h0
        d_h0 += d_head_pre @ model.head_w

    # Hinge path: only strictly positive margins carry gradient (the kink at
    # exactly zero uses the inactive branch).
    if trip_weight != 0.0 and cfg.triplet_enabled:
        d_r = np.zeros_like(cache.r)
        scale = trip_weight / n
        for i, (pos, neg) in enumerate(pairs):
            if neg is None or not margins[i] > 0.0:
                continue
            diff_p = cache.r[i] - cache.r[pos]
            diff_n = cache.r[i] - cache.r[neg]
            d_r[i] += scale * 2.0 * (diff_p - diff_n)
            d_r[pos] += scale * (-2.0) * diff_p
            d_r[neg] += scale * 2.0 * diff_n
        if cfg.decouple_enabled:
            grads["dec_w2"] += d_r.T @ cache.d1
            grads["dec_b2"] += d_r.sum(axis=0)
            d_d1 = d_r @ model.dec_w2
            d_g1 = d_d1 * act_grad(cache.d1)
            grads["dec_w1"] += d_g1.T @ cache.h0
            grads["dec_b1"] += d_g1.sum(axis=0)
            d_h0 += d_g1 @ model.dec_w1
        else:
            d_h0 += d_r

    # Encoder backward, shared by both paths.
    grads["enc_w2"] += d_h0.T @ cache.a1
    grads["enc_b2"] += d_h0.sum(axis=0)
    d_a1 = d_h0 @ model.enc_w2
    d_z1 = d_a1 * act_grad(cache.a1)
    grads["enc_w1"] += d_z1.T @ cache.x
    grads["enc_b1"] += d_z1.sum(axis=0)
    return terms, grads


def loss_and_gradients(model: Model, batch: Sequence[TrainExample], pairs,
                       hyper: Hyperparams):
    """Batch loss terms plus analytic gradients for every weight array."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    if len(pairs) != len(batch):
        raise ValueError("pairs must align one-to-one with the batch")
    x = _pooled_batch(model.config, batch)
    labels = np.array([ex.label for ex in batch], dtype=np.int64)
    return _batch_loss_and_grads(model, x, labels, pairs, hyper)


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


def grad_check(
    model: Model,
    batch: Sequence[TrainExample],
    hyper: Hyperparams,
    step: float = 1e-5,
    rel_tol: float = 1e-4,
    abs_tol: float = 1e-8,
    seed: int | None = None,
    max_resamples: int = 25,
) -> GradCheckReport:
    """Compare analytic gradients with (f(w+step) - f(w-step)) / (2 step).

    A relative criterion applies where either gradient is meaningfully large;
    near zero an absolute criterion applies instead. If any hinge margin sits
    within 100*step of its kink, the weights are jittered and re-checked so
    the finite difference never straddles the non-smooth point. A non-finite
    loss is reported (passed=False, finite=False) rather than raised.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    rng = np.random.default_rng(hyper.seed if seed is None else seed)
    work = model.copy()
    pairs = select_pairs(batch, rng)
    x = _pooled_batch(work.config, batch)
    labels = np.array([ex.label for ex in batch], dtype=np.int64)

    ce_weight, trip_weight = _term_weights(work.config, hyper)
    boundary_window = 100.0 * step
    resamples = 0
    if trip_weight != 0.0:
        while True:
            cache = work.features(x)
            _, margins = _triplet_terms(cache.r, pairs, float(hyper.margin))
            near = np.abs(margins[np.isfinite(margins)]) < boundary_window
            if not near.any():
                break
            if resamples >= max_resamples:
                return GradCheckReport(
                    passed=False, finite=True, max_rel_error=math.inf,
                    max_abs_error=math.inf, num_checked=0,
                    resample_attempts=resamples, worst_param=None,
                    note="could not move all hinge margins away from the kink",
                )
            resamples += 1
            for arr in work.parameters().values():
                arr += rng.normal(0.0, 1e-2, size=arr.shape)

    terms, grads = _batch_loss_and_grads(work, x, labels, pairs, hyper)
    if not math.isfinite(terms.total):
        return GradCheckReport(
            passed=False, finite=False, max_rel_error=math.inf,
            max_abs_error=math.inf, num_checked=0, resample_attempts=resamples,
            worst_param=None, note=f"non-finite loss {terms.total}",
        )

    # The relative criterion is meaningless when both gradients are tiny; the
    # floor routes those comparisons to the absolute criterion instead.
    denom_floor = 1e-4
    max_rel = 0.0
    max_abs = 0.0
    worst: str | None = None
    checked = 0
    passed = True
    for name, arr in work.parameters().items():
        flat = arr.reshape(-1)
        grad_flat = grads[name].reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + step
            f_plus = _batch_loss(work, x, labels, pairs, hyper).total
            flat[j] = original - step
            f_minus = _batch_loss(work, x, labels, pairs, hyper).total
            flat[j] = original
            checked += 1
            numeric = (f_plus - f_minus) / (2.0 * step)
            analytic = float(grad_flat[j])
            if not math.isfinite(numeric):
                passed = False
                worst = f"{name}[{j}]"
                max_rel = math.inf
                continue
            diff = abs(analytic - numeric)
            denom = max(abs(analytic), abs(numeric))
            if denom >= denom_floor:
                rel = diff / denom
                if rel > max_rel:
                    max_rel = rel
                    worst = f"{name}[{j}]"
                if rel > rel_tol:
                    passed = False
            else:
                if diff > max_abs:
                    max_abs = diff
                    worst = f"{name}[{j}]"
                if diff > abs_tol:
                    passed = False
    return GradCheckReport(
        passed=passed, finite=True, max_rel_error=max_rel, max_abs_error=max_abs,
        num_checked=checked, resample_attempts=resamples, worst_param=worst,
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


def train(
    data: Sequence[TrainExample],
    hyper: Hyperparams,
    model_config: ModelConfig,
) -> tuple[Model, list[EpochStats]]:
    """Mini-batch SGD over the mixed objective; reproducible from the seed.

    One generator (seeded with hyper.seed) drives initialization, the
    per-epoch shuffle, and pair selection, so the whole trajectory is a pure
    function of (data, hyper, model_config).
    """
    if len(data) == 0:
        raise ValueError("training data must be non-empty")
    distinct = {int(ex.label) for ex in data}
    if max(distinct) >= model_config.num_labels:
        raise ValueError(
            f"data contains label {max(distinct)} but the model has "
            f"{model_config.num_labels} labels"
        )
    if model_config.triplet_enabled and hyper.triplet_weight > 0.0 and len(distinct) < 2:
        raise ValueError("triplet training needs at least two distinct labels")

    rng = np.random.default_rng(hyper.seed)
    model = Model.initialize(model_config, rng)
    params = model.parameters()
    n = len(data)
    batch_size = int(hyper.batch_size)
    lr = float(hyper.learning_rate)
    log: list[EpochStats] = []
    for epoch in range(int(hyper.epochs)):
        started = time.perf_counter()
        order = rng.permutation(n)
        sum_ce = sum_trip = sum_total = 0.0
        for start in range(0, n, batch_size):
            batch = [data[int(i)] for i in order[start : start + batch_size]]
            pairs = select_pairs(batch, rng)
            x = _pooled_batch(model_config, batch)
            labels = np.array([ex.label for ex in batch], dtype=np.int64)
            terms, grads = _batch_loss_and_grads(model, x, labels, pairs, hyper)
            if not math.isfinite(terms.total):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch + 1}, batch starting at "
                    f"{start}: total={terms.total} ce={terms.ce} triplet={terms.triplet}"
                )
            for name, grad in grads.items():
                params[name] -= lr * grad
            b = len(batch)
            sum_ce += terms.ce * b
            sum_trip += terms.triplet * b
            sum_total += terms.total * b
        log.append(
            EpochStats(
                epoch=epoch + 1,
                mean_ce=sum_ce / n,
                mean_triplet=sum_trip / n,
                mean_total=sum_total / n,
                wall_ms=(time.perf_counter() - started) * 1000.0,
            )
        )
    return model, log
