"""Accuracy evaluation over (k, temperature, knn_weight) grids, reported as CSV.

Both entry points score all examples through one `retrieval.predict_batch`.
The sweep searches once at the largest k and reuses prefixes of the sorted
hits for smaller k values; because hits are totally ordered by (distance,
index) this is exactly equivalent to searching per k. It then votes once per
(k, temperature) and blends once per knn_weight, each over the whole batch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .datastore import Datastore
from .retrieval import (
    RetrievalParams,
    interpolate_batch,
    knn_distribution_batch,
    predict_batch,
)
from .training import TrainExample

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
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        object.__setattr__(
            self, "temperature_values", tuple(float(t) for t in self.temperature_values)
        )
        object.__setattr__(
            self, "knn_weight_values", tuple(float(w) for w in self.knn_weight_values)
        )
        if not self.k_values or not self.temperature_values or not self.knn_weight_values:
            raise ValueError("sweep lists must be non-empty")
        for k in self.k_values:
            if k < 1:
                raise ValueError(f"k must be >= 1, got {k}")
        for t in self.temperature_values:
            if not t > 0.0:
                raise ValueError(f"temperature must be positive, got {t}")
        for w in self.knn_weight_values:
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"knn_weight must be in [0, 1], got {w}")

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
        best = self.rows[0]
        for row in self.rows[1:]:
            if row.accuracy > best.accuracy:
                best = row
        return best

    @property
    def accuracy(self) -> float:
        return self.best.accuracy


def evaluate_config(
    model,
    store: Datastore | None,
    examples: Sequence[TrainExample],
    params: RetrievalParams,
) -> EvalRow:
    """Accuracy of one configuration by predicting every example."""
    if len(examples) == 0:
        raise ValueError("cannot evaluate on zero examples")
    batch = predict_batch(model, store, [ex.tokens for ex in examples], params)
    return _row(params.k, params.temperature, params.knn_weight, batch.labels, _gold(examples))


def run_sweep(
    model,
    store: Datastore | None,
    examples: Sequence[TrainExample],
    sweep: SweepSpec,
) -> EvalReport:
    """Evaluate the full grid; searches once per query at max(k).

    Rows appear in k-major, then temperature, then knn_weight order. A store
    is only required when some knn_weight in the grid is positive.
    """
    if len(examples) == 0:
        raise ValueError("cannot evaluate on zero examples")
    started = time.perf_counter()
    need_search = any(w > 0.0 for w in sweep.knn_weight_values)
    if need_search and store is None:
        raise ValueError("a datastore is required when the grid includes knn_weight > 0")
    # Any positive weight makes predict_batch search; each cell re-votes below.
    widest = RetrievalParams(k=max(sweep.k_values), temperature=sweep.temperature_values[0],
                             knn_weight=1.0 if need_search else 0.0)
    batch = predict_batch(model, store, [ex.tokens for ex in examples], widest)
    gold = _gold(examples)
    neighbor_probs = None
    rows = []
    for k in sweep.k_values:
        for temperature in sweep.temperature_values:
            if need_search:
                neighbor_probs = knn_distribution_batch(
                    store.labels[batch.neighbor_indices[:, :k]],
                    batch.neighbor_distances[:, :k],
                    temperature,
                    store.num_labels,
                )
            for weight in sweep.knn_weight_values:
                final = interpolate_batch(neighbor_probs, batch.classifier_probs, weight)
                rows.append(_row(k, temperature, weight, np.argmax(final, axis=1), gold))
    wall_ms = (time.perf_counter() - started) * 1000.0
    return EvalReport(rows=tuple(rows), wall_ms=wall_ms)


def _gold(examples: Sequence[TrainExample]) -> np.ndarray:
    return np.array([ex.label for ex in examples], dtype=np.int64)


def _row(k, temperature, knn_weight, predicted: np.ndarray, gold: np.ndarray) -> EvalRow:
    n_correct = int(np.count_nonzero(predicted == gold))
    return EvalRow(
        k=int(k),
        temperature=float(temperature),
        knn_weight=float(knn_weight),
        accuracy=n_correct / gold.shape[0],
        n_correct=n_correct,
        n_total=gold.shape[0],
    )


def write_report_csv(report: EvalReport, path) -> None:
    """Fixed-header CSV, one line per grid row, reproducible byte for byte."""
    lines = [CSV_HEADER]
    lines.extend(row.csv_line() for row in report.rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
