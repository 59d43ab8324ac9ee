"""Accuracy evaluation over (k, temperature, knn_weight) grids, reported as CSV.

`run_sweep` takes the scoring path's one neighbor step once, on a `Dataset`'s
token matrix and token counts, searching at the largest k, and reuses prefixes
of the sorted hits for smaller k values; because hits are totally ordered by
(distance, index) this is exactly equivalent to searching per k. It gathers
the hits' labels once and, per temperature, computes the vote's `_weights`
once over the largest k's hits; each k `_tally`s its prefix of them, the same
weights summed in the same order as a vote on that k's hits. Each
(k, temperature) blends once per knn_weight, over the whole batch, against
`Dataset.labels()`. Only one temperature's weights are held at a time, and
the finished rows are placed in k-major order. `evaluate_config` is a
one-cell sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import as_labels
from .data import Dataset
from .datastore import Datastore
from .retrieval import (RetrievalParams, _hit_bounds, _neighbor_step, _tally, _weights,
                        interpolate_batch)

__all__ = [
    "CSV_HEADER",
    "EvalReport",
    "EvalRow",
    "SweepSpec",
    "evaluate_config",
    "run_sweep",
    "write_report_csv",
]

CSV_HEADER = "k,T,lambda,accuracy,n_correct,n_total"


@dataclass(frozen=True)
class SweepSpec:
    """Grid of retrieval settings to evaluate, one row per combination."""

    k_values: tuple[int, ...] = (1, 8, 64)
    temperature_values: tuple[float, ...] = (1.0, 10.0, 100.0)
    knn_weight_values: tuple[float, ...] = (0.0, 0.5, 1.0)

    def __post_init__(self):
        # Each value must pass, and is kept as, a single RetrievalParams field.
        for name in (field.name for field in fields(RetrievalParams)):
            raw = getattr(self, f"{name}_values")
            if isinstance(raw, str) or not hasattr(raw, "__iter__"):
                raise ValueError(f"sweep {name} must be a list, got {raw!r}")
            values = tuple(getattr(RetrievalParams(**{name: v}), name) for v in raw)
            if not values:
                raise ValueError("sweep lists must be non-empty")
            object.__setattr__(self, f"{name}_values", values)

    def __len__(self) -> int:
        return (
            len(self.k_values) * len(self.temperature_values) * len(self.knn_weight_values)
        )


@dataclass(frozen=True)
class EvalRow:
    """Accuracy of one (k, temperature, knn_weight) configuration."""

    k: int
    temperature: float
    knn_weight: float
    accuracy: float
    n_correct: int
    n_total: int

    def csv_line(self) -> str:
        return (
            f"{self.k},{self.temperature!r},{self.knn_weight!r},"
            f"{self.accuracy!r},{self.n_correct},{self.n_total}"
        )


@dataclass(frozen=True)
class EvalReport:
    """All grid rows in evaluation order plus total wall time."""

    rows: tuple[EvalRow, ...]
    wall_ms: float

    @property
    def best(self) -> EvalRow:
        """Highest-accuracy row; ties keep the earliest grid position."""
        return max(self.rows, key=lambda row: row.accuracy)

    @property
    def accuracy(self) -> float:
        return self.best.accuracy


def evaluate_config(
    model,
    store: Datastore | None,
    dataset: Dataset,
    params: RetrievalParams,
) -> EvalRow:
    """Accuracy of one configuration: the one row of a one-cell `run_sweep`."""
    cell = SweepSpec((params.k,), (params.temperature,), (params.knn_weight,))
    return run_sweep(model, store, dataset, cell).rows[0]


def run_sweep(
    model,
    store: Datastore | None,
    dataset: Dataset,
    sweep: SweepSpec,
) -> EvalReport:
    """Evaluate the full grid on a dataset; searches once per query at max(k).

    Rows appear in k-major, then temperature, then knn_weight order. A store
    is only required when some knn_weight in the grid is positive. The gold
    labels follow `core.as_labels` over the model's label count.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on zero examples")
    gold = as_labels(dataset.labels(), model.config.num_labels)
    started = time.perf_counter()
    need_search = any(w > 0.0 for w in sweep.knn_weight_values)
    p_cls, indices, distances = _neighbor_step(
        model, store, dataset.tokens, dataset.token_counts,
        max(sweep.k_values) if need_search else None,
    )
    if need_search:
        labels, bounds = store._labels[indices], _hit_bounds(distances)
    # A weight-0 cell is the classifier's own prediction, the same in every (k, T).
    classifier_predicted = np.argmax(p_cls, axis=1)
    n_temperatures, n_weights = len(sweep.temperature_values), len(sweep.knn_weight_values)
    rows = [None] * len(sweep)
    for t_at, temperature in enumerate(sweep.temperature_values):
        weights = _weights(distances, temperature, *bounds) if need_search else None
        for k_at, k in enumerate(sweep.k_values):
            neighbor_probs = (None if weights is None
                              else _tally(labels[:, :k], weights[:, :k], store.num_labels))
            at = (k_at * n_temperatures + t_at) * n_weights  # the cell's k-major row
            for w_at, weight in enumerate(sweep.knn_weight_values):
                predicted = (classifier_predicted if weight == 0.0 else np.argmax(
                    interpolate_batch(neighbor_probs, p_cls, weight), axis=1))
                rows[at + w_at] = _row(k, temperature, weight, predicted, gold)
    wall_ms = (time.perf_counter() - started) * 1000.0
    return EvalReport(rows=tuple(rows), wall_ms=wall_ms)


def _row(k, temperature, knn_weight, predicted: np.ndarray, gold: np.ndarray) -> EvalRow:
    n_correct = int(np.count_nonzero(predicted == gold))
    return EvalRow(
        k=k,
        temperature=temperature,
        knn_weight=knn_weight,
        accuracy=n_correct / gold.shape[0],
        n_correct=n_correct,
        n_total=gold.shape[0],
    )


def write_report_csv(rows: Sequence[EvalRow], path) -> None:
    """Fixed-header CSV, one line per row, reproducible byte for byte."""
    lines = [CSV_HEADER]
    lines.extend(row.csv_line() for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
