"""Dataset ingestion (JSONL) and seeded synthetic cluster generation.

JSONL schema, one record per line:

    {"label": 0, "features": [0.1, 0.2, ...]}
    {"label": "spam", "tokens": [[...], [...], ...]}

An optional first line ``{"label_names": ["ham", "spam"]}`` declares the label
set and lets records use string labels. Without it, labels must be
non-negative integers and the label count is ``max(label) + 1``.

A `Dataset` is built from three arrays: one read-only (total_tokens, dim)
token matrix, a token count per example and a label per example. `load_jsonl`
checks each record's label and shape as it parses it, in one step per
record (`_Records.add`), appends its token values to one buffer, and makes
the token matrix from that buffer once. A common record, a one-token
`features` record of the file's dimension with an in-range integer label,
takes a few operations; any other goes through every rule in order, so each
fault keeps its message and line.
`TrainExample`s, read-only views of the matrix, are made only by
`Dataset.examples`, on its first read, so a dataset that only feeds
`build_datastore` or the scorers never makes one.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass

import numpy as np

from .core import as_int64s, as_tokens, check_finite_tokens, coerce_fields

__all__ = [
    "Dataset",
    "DatasetFormatError",
    "SyntheticSpec",
    "TrainExample",
    "generate_synthetic",
    "load_jsonl",
    "write_jsonl",
]


@dataclass(frozen=True, eq=False, slots=True, init=False)
class TrainExample:
    """One labeled row of a `Dataset`: a read-only view of its token rows,
    its label and its id. Only `Dataset.examples` makes them; the dataset has
    already checked the arrays they view, so `TrainExample(...)` raises
    `TypeError`, with or without arguments; `_views` bypasses `__init__`."""

    tokens: np.ndarray
    label: int
    id: int

    def __init__(self, *args, **kwargs):
        raise TypeError("a TrainExample is a row of a Dataset; read Dataset.examples")

    @classmethod
    def _views(cls, tokens: np.ndarray, token_counts: np.ndarray,
               labels: np.ndarray) -> list["TrainExample"]:
        """Examples with ids 0..n-1 over views of a read-only, checked
        (total_tokens, dim) token matrix, split by `token_counts`, and their n
        labels. The views, like the matrix, cannot be made writeable."""
        n = len(token_counts)
        if n == 0:
            return []
        if token_counts.min() == token_counts.max():  # one count: a reshape
            rows = tokens.reshape(n, -1, tokens.shape[1])
        else:
            rows = np.split(tokens, np.cumsum(token_counts[:-1]))
        new, put = object.__new__, object.__setattr__
        examples = []
        for i, (row, label) in enumerate(zip(rows, labels.tolist())):
            ex = new(cls)
            put(ex, "tokens", row)
            put(ex, "label", label)
            put(ex, "id", i)
            examples.append(ex)
        return examples

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


def _label_names(names) -> list[str]:
    """A copy of `names`, which must be a non-empty list of distinct strings."""
    if not (isinstance(names, list) and names and all(isinstance(s, str) for s in names)
            and len(set(names)) == len(names)):
        raise ValueError("label_names must be a list of distinct strings")
    return list(names)


@dataclass(init=False, eq=False)
class Dataset:
    """Labeled examples with a fixed label set and uniform token dimension.

    Its storage is three read-only arrays: `tokens`, one float64
    (total_tokens, input_dim) matrix with every example's token rows in
    order; `token_counts`, each example's int64 row count; and the int64
    labels that `labels()` copies. The constructor copies all three, and
    `tokens` and `token_counts` are read-only views that numpy will not make
    writeable, so nothing outside the dataset can change it. `load_jsonl` and
    `generate_synthetic` hand over the fresh matrix they built instead
    (`_adopt`). The token rule's finiteness step checks the matrix once.
    `label_names` copies a list of `num_labels` distinct strings, if given.
    `examples` is built from the arrays on first read, once, as a list of
    `TrainExample`s over views of `tokens` with ids 0..n-1.
    """

    num_labels: int
    input_dim: int
    label_names: list[str] | None = None

    def __init__(self, tokens, token_counts, labels, num_labels: int, input_dim: int,
                 label_names: list[str] | None = None):
        self._own(np.array(tokens, dtype=np.float64, order="C"), token_counts, labels,
                  num_labels, input_dim, label_names)

    @classmethod
    def _adopt(cls, tokens: np.ndarray, token_counts, labels, num_labels: int,
               input_dim: int, label_names: list[str] | None = None) -> "Dataset":
        """A dataset that keeps `tokens`, a C-ordered float64 matrix that only
        the caller holds and gives up, instead of copying it."""
        dataset = cls.__new__(cls)
        dataset._own(tokens, token_counts, labels, num_labels, input_dim, label_names)
        return dataset

    def _own(self, tokens: np.ndarray, token_counts, labels, num_labels, input_dim,
             label_names) -> None:
        """Check and keep a float64 token matrix no one else holds, with copies
        of the counts, labels and label names."""
        label_names = None if label_names is None else _label_names(label_names)
        self.num_labels, self.input_dim, self.label_names = num_labels, input_dim, label_names
        coerce_fields(self)
        if self.num_labels < 1:
            raise ValueError("num_labels must be positive")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if self.label_names is not None and len(self.label_names) != self.num_labels:
            raise ValueError(
                f"{len(self.label_names)} label names for {self.num_labels} labels"
            )
        if tokens.ndim != 2 or tokens.shape[1] != self.input_dim:
            raise ValueError(f"tokens have shape {tokens.shape}, "
                             f"expected (total_tokens, {self.input_dim})")
        counts = as_int64s(token_counts, "token counts")
        labels = self._labels = as_int64s(labels, "labels")
        if (counts.ndim != 1 or labels.shape != counts.shape or (counts < 1).any()
                or counts.sum() != len(tokens)):
            raise ValueError(f"need a label and a positive token count per example, "
                             f"the counts summing to the {len(tokens)} token rows")
        bad = (labels < 0) | (labels >= self.num_labels)
        if bad.any():  # name the first offending example, as a per-example loop would
            i = int(bad.argmax())
            raise ValueError(
                f"example {i} label {labels[i]} out of range for {self.num_labels} labels"
            )
        self._tokens, self._counts = check_finite_tokens(tokens), counts
        for arr in (tokens, counts, labels):
            arr.setflags(write=False)
        self._examples = None

    @property
    def tokens(self) -> np.ndarray:
        return self._tokens.view()

    @property
    def token_counts(self) -> np.ndarray:
        return self._counts.view()

    @property
    def examples(self) -> list[TrainExample]:
        if self._examples is None:
            self._examples = TrainExample._views(self._tokens, self._counts, self._labels)
        return self._examples

    def __len__(self) -> int:
        return len(self._counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.num_labels == other.num_labels
            and self.input_dim == other.input_dim
            and self.label_names == other.label_names
            and np.array_equal(self._counts, other._counts)
            and np.array_equal(self._labels, other._labels)
            and np.array_equal(self._tokens, other._tokens)
        )

    def labels(self) -> np.ndarray:
        return self._labels.copy()


def _record_tokens(rows: list) -> np.ndarray:
    """The token rule for one record's rows: `as_tokens`, after refusing a
    string or null value, which numpy would parse as a number or read as NaN."""
    for row in rows:
        for value in row:
            if value is None or isinstance(value, str):
                raise ValueError(f"token values must be numbers, got {json.dumps(value)}")
    return as_tokens(rows)


def _lines(path):
    """(line number, text) of each line of a UTF-8 file, read one at a time."""
    with open(path, "rb") as file:
        for line_no, raw in enumerate(file, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DatasetFormatError(f"line {line_no}: not UTF-8 text ({exc.reason} "
                                         f"at byte {exc.start} of the line)") from exc
            yield line_no, line


_raw_decode = json.JSONDecoder().raw_decode


def _json(line: str):
    """`json.loads(line)`. A line that starts with its value and has only JSON
    whitespace after it skips `json.loads`' own per-call steps; any other line
    goes through it, which gives the same value or raises its own error."""
    try:
        obj, end = _raw_decode(line)
    except json.JSONDecodeError:
        return json.loads(line)
    return json.loads(line) if line[end:].strip(" \t\n\r") else obj


class _Records:
    """A file's records, checked and appended one at a time: each one's
    label, line number and token count, and its token values in one float64
    buffer.

    A common record, a dict after the first record with an in-range `int`
    label, a `features` list of the file's dimension and no `tokens` key,
    takes a few operations to check and append. Any other record, and the
    first, goes through every rule in order, so a fault there is reported
    with the rule's own message; a record whose rows all have the file's
    dimension still goes in without a numpy call, and any other goes through
    the token rule (`_record_tokens`) and the dimension check. Finiteness is
    left to the one check of the whole matrix; `check_finite` then names the
    line it fails on."""

    def __init__(self):
        self.values = array("d")
        # The file's dimension and label bound, set by the first record;
        # until then the bound of 0 admits no common record.
        self.dim = self.limit = 0
        self.labels: list[int] = []
        self.lines: list[int] = []  # each record's line number
        self.counts: list[int] = []  # and its token count

    def add(self, line_no: int, obj, label_names: list[str] | None) -> None:
        """Check the parsed record of a line and append it, or raise
        ValueError for its first fault."""
        values = self.values
        mark = len(values)
        if (type(obj) is dict and type(label := obj.get("label")) is int
                and 0 <= label < self.limit and type(row := obj.get("features")) is list
                and len(row) == self.dim and "tokens" not in obj):
            try:
                values.extend(row)
            except (TypeError, ValueError, OverflowError):  # the rules below name the value
                del values[mark:]
            else:
                self.labels.append(label)
                self.lines.append(line_no)
                self.counts.append(1)
                return

        if not isinstance(obj, dict):
            raise ValueError("record is not an object")
        if "label" not in obj:
            raise ValueError("missing \"label\"")
        label = obj["label"]
        if isinstance(label, str):
            if label_names is None:
                raise ValueError(f"string label {label!r} needs a label_names header")
            if label not in label_names:
                raise ValueError(f"unknown label name {label!r}")
            label = label_names.index(label)
        elif isinstance(label, bool) or not isinstance(label, int):
            raise ValueError("label must be an integer or name")
        elif label < 0:
            raise ValueError(f"label must be non-negative, got {label}")
        elif label_names is not None and label >= len(label_names):
            raise ValueError(f"label {label} out of range for {len(label_names)} labels")
        elif label >= 2**63:  # a `Dataset` keeps its labels as int64
            raise ValueError(f"label must be below 2**63, got {label}")

        has_features = "features" in obj
        if has_features == ("tokens" in obj):
            raise ValueError("record needs exactly one of \"features\" or \"tokens\"")
        # "features" is one token and "tokens" a list of them; each token is an
        # array, and the token rule rejects deeper nesting and ragged rows.
        rows = [obj["features"]] if has_features else obj["tokens"]
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError("\"features\" must be an array" if has_features
                             else "\"tokens\" must be an array of arrays")

        try:
            if not (self.lines and rows):
                raise ValueError("the first record, or one without rows")
            for row in rows:
                if len(row) != self.dim:
                    raise ValueError("a row of another dimension")
                values.extend(row)
        except (TypeError, ValueError, OverflowError):
            del values[mark:]
            tokens = _record_tokens(rows)
            if not self.lines:
                self.dim = tokens.shape[1]
                self.limit = 2**63 if label_names is None else len(label_names)
            elif tokens.shape[1] != self.dim:
                raise ValueError(f"dimension {tokens.shape[1]} does not match "
                                 f"dimension {self.dim} from line {self.lines[0]}") from None
            values.frombytes(tokens.tobytes())
        self.labels.append(label)
        self.lines.append(line_no)
        self.counts.append(len(rows))

    def matrix(self) -> np.ndarray:
        """A fresh (total_tokens, dim) copy of the values."""
        return np.frombuffer(self.values).reshape(-1, self.dim).copy()

    def check_finite(self, tokens: np.ndarray | None = None) -> None:
        """Raise the token rule's error, at its line, for the first record
        with a non-finite token in `tokens` (by default, the values so far)."""
        if not self.lines:
            return
        if tokens is None:
            tokens = np.frombuffer(self.values).reshape(-1, self.dim)
        bad = ~np.isfinite(tokens).all(axis=1)
        if bad.any():
            ends = np.cumsum(self.counts)
            i = int(np.searchsorted(ends, bad.argmax(), side="right"))
            try:
                check_finite_tokens(tokens[ends[i] - self.counts[i] : ends[i]])
            except ValueError as exc:
                raise DatasetFormatError(f"line {self.lines[i]}: {exc}") from exc


def load_jsonl(path) -> Dataset:
    """Read a dataset file, reporting schema problems with their line number.

    Lines are read one at a time, so no copy of the whole file is held. Each
    record is checked as it is parsed, and its token values go into one
    buffer (`_Records`). The file's token matrix is made from that buffer
    once and checked once, by the dataset. Every fault is reported at its
    line, the earliest first: a fault found while parsing is raised only once
    the records before it are known to be finite."""
    label_names: list[str] | None = None
    records = _Records()
    try:
        for line_no, line in _lines(path):
            if not line.strip():
                continue
            try:
                obj = _json(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
            if (not records.lines and isinstance(obj, dict) and "label_names" in obj
                    and "label" not in obj):
                if label_names is not None:
                    raise DatasetFormatError(f"line {line_no}: duplicate label_names header")
                try:
                    label_names = _label_names(obj["label_names"])
                except ValueError as exc:
                    raise DatasetFormatError(f"line {line_no}: {exc}") from exc
                continue
            try:
                records.add(line_no, obj, label_names)
            except ValueError as exc:
                raise DatasetFormatError(f"line {line_no}: {exc}") from exc
    except DatasetFormatError:
        records.check_finite()
        raise
    if not records.lines:
        raise DatasetFormatError("no records found")
    num_labels = len(label_names) if label_names is not None else max(records.labels) + 1
    matrix = records.matrix()
    try:
        return Dataset._adopt(matrix, np.array(records.counts, dtype=np.int64),
                              np.array(records.labels, dtype=np.int64), num_labels,
                              records.dim, label_names)
    except ValueError:
        records.check_finite(matrix)
        raise


def write_jsonl(dataset: Dataset, path) -> None:
    """Symmetric emitter: load_jsonl(write_jsonl(ds)) reproduces ds exactly.

    It reads the dataset's arrays, not its examples: the token matrix is
    turned into Python floats once and split by the token counts, and each
    line is written as it is made. Floats survive because JSON uses shortest
    round-trip formatting.
    """
    names = dataset.label_names
    labels = dataset.labels().tolist()
    if names is not None:
        labels = [names[label] for label in labels]
    rows = dataset.tokens.tolist()
    with open(path, "w", encoding="utf-8") as file:
        if names is not None:
            file.write(json.dumps({"label_names": names}) + "\n")
        at = 0
        for label, count in zip(labels, dataset.token_counts.tolist()):
            seq = rows[at : at + count]
            at += count
            record = ({"label": label, "features": seq[0]} if count == 1
                      else {"label": label, "tokens": seq})
            file.write(json.dumps(record) + "\n")


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
        coerce_fields(self)
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.per_class_count < 1:
            raise ValueError(f"per_class_count must be positive, got {self.per_class_count}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (self.class_separation > 0.0):
            raise ValueError(f"class_separation must be positive, got {self.class_separation}")
        # Zero is allowed so the degenerate no-noise limit stays testable.
        if not (self.noise_sigma >= 0.0):
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
    the points (rounded down) go to the test set. Each split is one
    read-only (n, dim) token matrix of one-token examples, which the token
    rule checks once; no `TrainExample` exists until `examples` is read.
    """
    rng = np.random.default_rng(spec.seed)
    rotation = _random_orthogonal(spec.dim, rng)
    count, n_test = spec.per_class_count, spec.per_class_count // 5
    n_train = count - n_test
    train_tokens = np.empty((spec.num_classes * n_train, spec.dim))
    test_tokens = np.empty((spec.num_classes * n_test, spec.dim))
    # Class c's points fill train_rows[c] and then test_rows[c] in draw order.
    # Its permutation, drawn once every class has its points, then deals them
    # out in place through a copy of that one class.
    train_rows = train_tokens.reshape(spec.num_classes, n_train, spec.dim)
    test_rows = test_tokens.reshape(spec.num_classes, n_test, spec.dim)
    with np.errstate(over="ignore"):  # an overflow to inf fails the token check below
        for c in range(spec.num_classes):
            mean = spec.class_separation * rotation[:, c % spec.dim]
            points = mean + rng.normal(0.0, spec.noise_sigma, size=(count, spec.dim))
            train_rows[c], test_rows[c] = points[:n_train], points[n_train:]
    for c in range(spec.num_classes):
        order = rng.permutation(count)
        points = np.concatenate([train_rows[c], test_rows[c]])
        train_rows[c], test_rows[c] = points[order[n_test:]], points[order[:n_test]]
    classes = np.arange(spec.num_classes, dtype=np.int64)
    try:
        return tuple(
            Dataset._adopt(tokens, np.ones(len(tokens), dtype=np.int64),
                           np.repeat(classes, len(tokens) // spec.num_classes),
                           spec.num_classes, spec.dim)
            for tokens in (train_tokens, test_tokens)
        )
    except ValueError as exc:
        raise ValueError(
            f"class_separation {spec.class_separation!r} and noise_sigma "
            f"{spec.noise_sigma!r} put points beyond float64 range: {exc}"
        ) from exc
