"""Dataset ingestion (JSONL) and seeded synthetic cluster generation.

JSONL schema, one record per line:

    {"label": 0, "features": [0.1, 0.2, ...]}
    {"label": "spam", "tokens": [[...], [...], ...]}

An optional first line ``{"label_names": ["ham", "spam"]}`` declares the label
set and lets records use string labels. Without it, labels must be
non-negative integers and the label count is ``max(label) + 1``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "Dataset",
    "DatasetFormatError",
    "SyntheticSpec",
    "TrainExample",
    "generate_synthetic",
    "load_jsonl",
    "write_jsonl",
]


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


class DatasetFormatError(ValueError):
    """A dataset file violated the JSONL record schema."""


@dataclass(eq=False)
class Dataset:
    """Labeled examples with a fixed label set and uniform token dimension."""

    examples: list[TrainExample]
    num_labels: int
    input_dim: int
    label_names: list[str] | None = None

    def __post_init__(self):
        if int(self.num_labels) < 1:
            raise ValueError("num_labels must be positive")
        if int(self.input_dim) < 1:
            raise ValueError("input_dim must be positive")
        if self.label_names is not None and len(self.label_names) != self.num_labels:
            raise ValueError(
                f"{len(self.label_names)} label names for {self.num_labels} labels"
            )
        for ex in self.examples:
            if ex.label >= self.num_labels:
                raise ValueError(
                    f"example {ex.id} label {ex.label} out of range "
                    f"for {self.num_labels} labels"
                )
            if ex.tokens.shape[1] != self.input_dim:
                raise ValueError(
                    f"example {ex.id} has dimension {ex.tokens.shape[1]}, "
                    f"expected {self.input_dim}"
                )

    def __len__(self) -> int:
        return len(self.examples)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.num_labels == other.num_labels
            and self.input_dim == other.input_dim
            and self.label_names == other.label_names
            and self.examples == other.examples
        )

    def labels(self) -> np.ndarray:
        return np.array([ex.label for ex in self.examples], dtype=np.int64)


def _parse_record(obj, line_no: int, label_names: list[str] | None):
    if not isinstance(obj, dict):
        raise DatasetFormatError(f"line {line_no}: record is not an object")
    if "label" not in obj:
        raise DatasetFormatError(f"line {line_no}: missing \"label\"")
    raw_label = obj["label"]
    if isinstance(raw_label, bool):
        raise DatasetFormatError(f"line {line_no}: label must be an integer or name")
    if isinstance(raw_label, int):
        label = raw_label
        if label < 0:
            raise DatasetFormatError(f"line {line_no}: negative label {label}")
    elif isinstance(raw_label, str):
        if label_names is None:
            raise DatasetFormatError(
                f"line {line_no}: string label {raw_label!r} needs a label_names header"
            )
        try:
            label = label_names.index(raw_label)
        except ValueError:
            raise DatasetFormatError(
                f"line {line_no}: unknown label name {raw_label!r}"
            ) from None
    else:
        raise DatasetFormatError(f"line {line_no}: label must be an integer or name")

    has_features = "features" in obj
    has_tokens = "tokens" in obj
    if has_features == has_tokens:
        raise DatasetFormatError(
            f"line {line_no}: record needs exactly one of \"features\" or \"tokens\""
        )
    raw = obj["features"] if has_features else obj["tokens"]
    try:
        tokens = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise DatasetFormatError(f"line {line_no}: non-numeric feature data") from None
    if has_features:
        if tokens.ndim != 1 or tokens.shape[0] == 0:
            raise DatasetFormatError(
                f"line {line_no}: \"features\" must be a non-empty flat array"
            )
        tokens = tokens[None, :]
    else:
        if tokens.ndim != 2 or tokens.shape[0] == 0 or tokens.shape[1] == 0:
            raise DatasetFormatError(
                f"line {line_no}: \"tokens\" must be a non-empty array of equal-length arrays"
            )
    if not np.all(np.isfinite(tokens)):
        raise DatasetFormatError(f"line {line_no}: non-finite feature values")
    return label, tokens


def load_jsonl(path) -> Dataset:
    """Read a dataset file, reporting schema problems with their line number."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    label_names: list[str] | None = None
    examples: list[TrainExample] = []
    input_dim: int | None = None
    first_dim_line = 0
    max_label = -1
    next_id = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
        if next_id == 0 and isinstance(obj, dict) and "label_names" in obj and "label" not in obj:
            names = obj["label_names"]
            if (
                not isinstance(names, list)
                or not names
                or not all(isinstance(s, str) for s in names)
                or len(set(names)) != len(names)
            ):
                raise DatasetFormatError(
                    f"line {line_no}: label_names must be a list of distinct strings"
                )
            if label_names is not None:
                raise DatasetFormatError(f"line {line_no}: duplicate label_names header")
            label_names = list(names)
            continue
        label, tokens = _parse_record(obj, line_no, label_names)
        if input_dim is None:
            input_dim = int(tokens.shape[1])
            first_dim_line = line_no
        elif tokens.shape[1] != input_dim:
            raise DatasetFormatError(
                f"line {line_no}: dimension {tokens.shape[1]} does not match "
                f"dimension {input_dim} from line {first_dim_line}"
            )
        examples.append(TrainExample(tokens=tokens, label=label, id=next_id))
        max_label = max(max_label, label)
        next_id += 1
    if not examples:
        raise DatasetFormatError("no records found")
    num_labels = len(label_names) if label_names is not None else max_label + 1
    if max_label >= num_labels:
        raise DatasetFormatError(
            f"label {max_label} out of range for {num_labels} declared label names"
        )
    return Dataset(
        examples=examples,
        num_labels=num_labels,
        input_dim=input_dim,
        label_names=label_names,
    )


def write_jsonl(dataset: Dataset, path) -> None:
    """Symmetric emitter: load_jsonl(write_jsonl(ds)) reproduces ds exactly.

    Floats survive because JSON uses shortest round-trip formatting.
    """
    lines = []
    if dataset.label_names is not None:
        lines.append(json.dumps({"label_names": dataset.label_names}))
    for ex in dataset.examples:
        label = (
            dataset.label_names[ex.label] if dataset.label_names is not None else ex.label
        )
        if ex.tokens.shape[0] == 1:
            record = {"label": label, "features": ex.tokens[0].tolist()}
        else:
            record = {"label": label, "tokens": ex.tokens.tolist()}
        lines.append(json.dumps(record))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-cluster dataset recipe; every draw is derived from the seed."""

    num_classes: int = 4
    dim: int = 16
    per_class_count: int = 125
    class_separation: float = 6.0
    noise_sigma: float = 1.0
    seed: int = 7

    def __post_init__(self):
        for name in ("num_classes", "dim", "per_class_count", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.per_class_count < 1:
            raise ValueError(f"per_class_count must be positive, got {self.per_class_count}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (float(self.class_separation) > 0.0):
            raise ValueError(
                f"class_separation must be positive, got {self.class_separation}"
            )
        # Zero is allowed so the degenerate no-noise limit stays testable.
        if float(self.noise_sigma) < 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def _random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish orthogonal matrix via QR with a canonical sign convention."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    signs = np.where(np.diagonal(r) >= 0.0, 1.0, -1.0)
    return q * signs


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset]:
    """Gaussian clusters around rotated-basis means, split 80/20 per class.

    Cluster c sits at class_separation times column (c mod dim) of a random
    rotation, so any class count is representable (directions repeat once the
    dimension is exhausted). The split is stratified: per class, a fifth of
    the points (rounded down) go to the test set.
    """
    rng = np.random.default_rng(spec.seed)
    rotation = _random_orthogonal(spec.dim, rng)
    class_points = []
    for c in range(spec.num_classes):
        mean = spec.class_separation * rotation[:, c % spec.dim]
        noise = rng.normal(0.0, spec.noise_sigma, size=(spec.per_class_count, spec.dim))
        class_points.append(mean + noise)
    train_rows: list[tuple[np.ndarray, int]] = []
    test_rows: list[tuple[np.ndarray, int]] = []
    n_test = spec.per_class_count // 5
    for c, points in enumerate(class_points):
        order = rng.permutation(spec.per_class_count)
        for pos in order[n_test:]:
            train_rows.append((points[pos], c))
        for pos in order[:n_test]:
            test_rows.append((points[pos], c))

    def as_dataset(rows: Sequence[tuple[np.ndarray, int]]) -> Dataset:
        examples = [
            TrainExample(tokens=row[None, :], label=label, id=i)
            for i, (row, label) in enumerate(rows)
        ]
        return Dataset(examples=examples, num_labels=spec.num_classes, input_dim=spec.dim)

    return as_dataset(train_rows), as_dataset(test_rows)
