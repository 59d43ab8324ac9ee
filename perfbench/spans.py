"""Span tracer that wraps the library's public functions from the outside.

`Tracer.install` rebinds each traced function or method wherever the
knnblend modules hold a reference to it (modules that did ``from .x import
f`` keep their own name for ``f``), and `Tracer.uninstall` puts the originals
back. Untraced runs never call `install`, so they run the library unchanged.

Every wrapped call records one span: name, start and end (perf_counter_ns),
parent span, the op it belongs to, its self time (duration minus the time of
its direct children; calls nest strictly because one thread drives the
library) and an optional count taken at the same boundary. Spans live in
flat `array` columns in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from time import perf_counter_ns as time_ns

import numpy as np

SETUP_OP = -1


def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


# (module, attribute, span name, count taken at the boundary or None).
# Methods are given as "Class.method". "epochs" records the epoch count and
# keeps each EpochStats.wall_ms of the returned log.
TARGETS = [
    ("core", "validate_distribution", "core.validate_distribution", None),
    ("core", "argmax_label", "core.argmax_label", None),
    ("data", "generate_synthetic", "data.generate_synthetic", None),
    ("data", "load_jsonl", "data.load_jsonl", lambda a, k, r: len(r)),
    ("data", "write_jsonl", "data.write_jsonl", None),
    ("model", "pool", "model.pool", None),
    ("model", "Model.features", "model.features", None),
    ("model", "Model.encode", "model.encode", None),
    ("model", "Model.classify", "model.classify", None),
    ("model", "Model.save", "model.save", None),
    ("model", "Model.load", "model.load", None),
    ("datastore", "Datastore.__init__", "datastore.init", None),
    ("datastore", "Datastore.search", "datastore.search", lambda a, k, r: a[0].count),
    ("datastore", "Datastore.save", "datastore.save", _file_bytes),
    ("datastore", "Datastore.load", "datastore.load", None),
    ("retrieval", "build_datastore", "retrieval.build_datastore", None),
    ("retrieval", "predict", "retrieval.predict", None),
    ("retrieval", "knn_distribution", "retrieval.knn_distribution", None),
    ("retrieval", "interpolate", "retrieval.interpolate", None),
    ("evaluate", "evaluate_config", "evaluate.evaluate_config", None),
    ("evaluate", "run_sweep", "evaluate.run_sweep", None),
    ("training", "train", "training.train", "epochs"),
    ("training", "select_pairs", "training.select_pairs", None),
]


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.self_ns = array("q")
        self.value = array("q")
        self.epoch_ms: list[float] = []
        self.op_id = SETUP_OP
        self._stack: list[list[int]] = []  # [span index, ns covered by children]
        self._undo: list = []

    def name_id_of(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.self_ns.append(0)
        self.value.append(0)
        self._stack.append([idx, 0])
        self.start.append(time_ns())
        return idx

    def close(self, idx: int) -> None:
        now = time_ns()
        _, child_ns = self._stack.pop()
        duration = now - self.start[idx]
        self.end[idx] = now
        self.self_ns[idx] = duration - child_ns
        if self._stack:
            self._stack[-1][1] += duration

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id_of(name))

    def wrap(self, fn, name: str, count=None):
        nid = self.name_id_of(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                tracer.value[idx] = int(count(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; `uninstall` restores the exact original objects."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "knnblend" or n.startswith("knnblend.")]
        for mod_name, attr, span_name, count in TARGETS:
            if count == "epochs":
                count = self._record_epochs
            home = sys.modules[f"knnblend.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, span_name, count))
                else:
                    new = self.wrap(raw, span_name, count)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(original, span_name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def _record_epochs(self, args, kwargs, result) -> int:
        log = result[1]
        self.epoch_ms.extend(stats.wall_ms for stats in log)
        return len(log)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def columns(self) -> dict[str, np.ndarray]:
        # Copies, so the arrays stay free to grow after this call.
        fields = {
            "name_id": self.name_id, "start_ns": self.start, "end_ns": self.end,
            "parent": self.parent, "op": self.op, "self_ns": self.self_ns,
            "value": self.value,
        }
        return {key: np.array(col, dtype=np.int64) for key, col in fields.items()}

    def write(self, path) -> None:
        cols = self.columns()
        np.savez(path, names=np.array(self.names), **cols)


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.idx = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


class LayerStats:
    """Per-layer figures derived from the spans of one traced phase.

    `calls` and `value_per_op` are per heavy op; `self_us` is the mean self
    time per call within heavy ops; `seconds`, `self_seconds` and
    `value_median` are medians per call over every span, set-up included,
    because several layers (store build, data generation, model save) only
    run in set-up.
    """

    def __init__(self, tracer: Tracer, op_ids):
        cols = tracer.columns()
        self._ids = {name: i for i, name in enumerate(tracer.names)}
        self._nid = cols["name_id"]
        self._dur = cols["end_ns"] - cols["start_ns"]
        self._self = cols["self_ns"]
        self._value = cols["value"]
        self.n_ops = max(len(op_ids), 1)
        self._in_ops = np.isin(cols["op"], np.asarray(list(op_ids), dtype=np.int64))

    def _mask(self, name: str, ops_only: bool) -> np.ndarray:
        nid = self._ids.get(name, -1)
        mask = self._nid == nid
        return mask & self._in_ops if ops_only else mask

    def calls(self, name: str) -> float:
        return float(self._mask(name, True).sum()) / self.n_ops

    def self_us(self, name: str) -> float:
        mask = self._mask(name, True)
        return float(self._self[mask].mean()) / 1e3 if mask.any() else 0.0

    def seconds(self, name: str) -> float:
        mask = self._mask(name, False)
        return float(np.median(self._dur[mask])) / 1e9 if mask.any() else 0.0

    def self_seconds(self, name: str) -> float:
        mask = self._mask(name, False)
        return float(np.median(self._self[mask])) / 1e9 if mask.any() else 0.0

    def value_per_op(self, name: str) -> float:
        return float(self._value[self._mask(name, True)].sum()) / self.n_ops

    def value_median(self, name: str) -> float:
        mask = self._mask(name, False)
        return float(np.median(self._value[mask])) if mask.any() else 0.0
