"""Desk-scale encoder, classification head, and the retrieval-decoupling MLP.

The encoder maps a pooled token vector through two affine layers (tanh in
between) to the classification representation h0. The classification head
applies the named activation to W·h0 and a softmax. With tanh every logit
lies in [-1, 1], so with L labels no label gets more than
e / (e + (L - 1) / e) of the mass: 0.514 for 8 labels, 0.881 for 2. The
classifier's confidence is capped there whatever its weights, and the
blend's margin over it depends on that cap. When decoupling is
enabled, a separate one-hidden-layer MLP maps h0 to the retrieval
representation r used as datastore key and query; otherwise r is h0 itself.

`_layout(config)` is the one table of weights: each name with its shape and
init fan-in, in draw and file order, the decouple head's four weights only
when decoupling is enabled. Initialization, validation, `parameters()`, save
and load all iterate it.

The `Model` constructor is the one weight check: it raises `ModelShapeError`,
or `ValueError` for a non-finite entry. `Model.load` checks only the document
around the weights. `_inputs`, the one input step of `encode`, `encode_batch`,
`retrieval` and `training`, pools tokens by the model's pooling under the
width rule. `features` and `classify` are checks plus the kernels `_forward`
and `_logits`, which the scoring path and training's loss call.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .core import POSITIVE, DimensionMismatchError, as_tokens, as_vector, coerce_fields, softmax

__all__ = [
    "ACTIVATIONS",
    "FeatureCache",
    "Model",
    "ModelConfig",
    "ModelFormatError",
    "ModelLoadError",
    "ModelShapeError",
    "ModelVersionError",
    "POOLING_MODES",
    "pool",
]

MODEL_FORMAT = "knnblend-model"
MODEL_VERSION = 1


class Activation(NamedTuple):
    fn: Callable[[np.ndarray], np.ndarray]
    grad_from_output: Callable[[np.ndarray], np.ndarray]


ACTIVATIONS: dict[str, Activation] = {
    "tanh": Activation(np.tanh, lambda y: 1.0 - y * y),
    "identity": Activation(lambda x: np.asarray(x, dtype=np.float64), np.ones_like),
}


class ModelLoadError(ValueError):
    """A model file could not be loaded."""


class ModelFormatError(ModelLoadError):
    """The file is not a model file (wrong or missing format marker)."""


class ModelVersionError(ModelLoadError):
    """The file declares an unsupported model format version."""


class ModelShapeError(ModelLoadError):
    """A weight is missing, not numeric, misshapen, or not in the config's layout."""


def pool(tokens, mode: str) -> np.ndarray:
    """Reduce a token sequence (n_tokens, dim) to a single vector.

    cls: first token; mean: elementwise mean; max: elementwise maximum.
    Tokens follow `core.as_tokens` (1-d is one token); `_pool_rows` of their copy.
    """
    return _pool_rows(as_tokens(tokens), None, mode)


# Each reduces axis -2 of one sequence (n, dim) or a stack (B, n, dim). "mean" does
# the arithmetic of `seq.mean(axis=0)` bit for bit; `np.add.reduceat` / n does not.
_POOLERS: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "cls": lambda stack: np.ascontiguousarray(stack[..., 0, :]),
    "mean": lambda stack: np.add.reduce(stack, axis=-2) / stack.shape[-2],
    "max": lambda stack: np.maximum.reduce(stack, axis=-2),
}
POOLING_MODES = tuple(_POOLERS)


def _pool_rows(tokens: np.ndarray, token_counts: np.ndarray | None, mode: str) -> np.ndarray:
    """The one pooling step: (B, dim) rows for the B sequences that split a
    finite (total_tokens, dim) matrix by `token_counts`, in order, or, with
    `token_counts` None, the one (dim,) row of `tokens` as one sequence.
    Under cls they may view `tokens`; the other modes make fresh rows.

    Sequences of one count are stacked and reduced together, so each row is
    bit-identical to pooling its sequence alone.
    """
    reduce = _POOLERS.get(mode)
    if reduce is None:
        raise ValueError(f"unknown pooling mode {mode!r}")
    if token_counts is None:
        return reduce(tokens)
    n = len(token_counts)
    if n == 1 or (n > 1 and token_counts.min() == token_counts.max()):  # the stack is a reshape
        return reduce(tokens.reshape(n, -1, tokens.shape[1]))
    pooled = np.empty((n, tokens.shape[1]))
    starts = np.cumsum(token_counts) - token_counts
    for count in np.unique(token_counts):
        rows = np.flatnonzero(token_counts == count)
        pooled[rows] = reduce(tokens[starts[rows, None] + np.arange(count)])
    return pooled


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes, each within its declared `Bound`, and feature flags."""

    input_dim: int = POSITIVE.field(16)
    hidden_dim: int = POSITIVE.field(32)
    emb_dim: int = POSITIVE.field(32)
    num_labels: int = POSITIVE.field(2)
    retrieval_dim: int | None = POSITIVE.field(None)  # None -> emb_dim
    pooling: str = "cls"
    activation: str = "tanh"
    decouple_enabled: bool = True
    triplet_enabled: bool = True

    def __post_init__(self):
        coerce_fields(self)
        if self.pooling not in POOLING_MODES:
            raise ValueError(f"pooling must be one of {POOLING_MODES}, got {self.pooling!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {tuple(ACTIVATIONS)}, got {self.activation!r}"
            )

    @property
    def key_dim(self) -> int:
        """Dimension of the retrieval representation actually used as key/query."""
        if self.decouple_enabled and self.retrieval_dim is not None:
            return self.retrieval_dim
        return self.emb_dim


@dataclass
class FeatureCache:
    """A batched forward pass: its pooled input and `Model._forward`'s outputs."""

    x: np.ndarray  # (B, input_dim) pooled inputs
    a1: np.ndarray  # (B, hidden) encoder hidden activation
    h0: np.ndarray  # (B, emb) classification representation
    d1: np.ndarray | None  # (B, hidden) decouple hidden activation
    r: np.ndarray  # (B, key_dim) retrieval representation (h0 when not decoupled)


@dataclass(eq=False)
class Model:
    """Weights plus config. Immutable during inference; training mutates in place."""

    config: ModelConfig
    enc_w1: np.ndarray  # (hidden, input)
    enc_b1: np.ndarray  # (hidden,)
    enc_w2: np.ndarray  # (emb, hidden)
    enc_b2: np.ndarray  # (emb,)
    head_w: np.ndarray  # (num_labels, emb)
    dec_w1: np.ndarray | None = None  # (hidden, emb)
    dec_b1: np.ndarray | None = None  # (hidden,)
    dec_w2: np.ndarray | None = None  # (retrieval, hidden)
    dec_b2: np.ndarray | None = None  # (retrieval,)

    def __post_init__(self):
        layout = _layout(self.config)
        for field in fields(self)[1:]:  # the weights, after config
            if field.name not in layout and getattr(self, field.name) is not None:
                raise ModelShapeError(f"unexpected weight {field.name} for this config")
        for name, (shape, _) in layout.items():
            if getattr(self, name) is None:
                raise ModelShapeError(f"missing weight {name}")
            try:
                arr = np.asarray(getattr(self, name), dtype=np.float64)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ModelShapeError(f"weight {name} is not a numeric array: {exc}") from exc
            if arr.shape != shape:
                raise ModelShapeError(f"weight {name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"weight {name} contains non-finite entries")
            setattr(self, name, arr)

    @classmethod
    def initialize(cls, config: ModelConfig, seed) -> "Model":
        """Seeded uniform init: each layer drawn from [-1/sqrt(fan_in), +1/sqrt(fan_in)].

        `seed` may be an int or an existing numpy Generator (consumed in a
        fixed draw order, so callers can share one stream deterministically).
        """
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        weights = {}
        for name, (shape, fan_in) in _layout(config).items():
            bound = 1.0 / math.sqrt(fan_in)
            weights[name] = rng.uniform(-bound, bound, size=shape)
        return cls(config=config, **weights)

    # -- forward passes -------------------------------------------------

    def features(self, x_batch: np.ndarray) -> FeatureCache:
        """Forward the encoder (and decouple MLP) over pooled inputs (B, input_dim)."""
        x = np.asarray(x_batch, dtype=np.float64)
        self._check_width(x.shape)
        return FeatureCache(x, *self._forward(x))

    def _check_width(self, shape: tuple) -> None:
        """The width rule of pooled inputs: `shape` must be (B, input_dim)."""
        if len(shape) != 2 or shape[1] != self.config.input_dim:
            raise DimensionMismatchError(f"pooled input has shape {shape}, "
                                         f"expected (*, {self.config.input_dim})")

    def _forward(self, x: np.ndarray):
        """The kernel of `features` over the last axis of float64 x, unchecked:
        (a1, h0, d1, r), with d1 None and r h0 without decoupling. Each layer is
        one fresh product written in place (`_dense`); x is only read."""
        cfg = self.config
        act = ACTIVATIONS[cfg.activation].fn
        a1 = _dense(x, self.enc_w1, self.enc_b1, act)
        h0 = _dense(a1, self.enc_w2, self.enc_b2)
        if not cfg.decouple_enabled:
            return a1, h0, None, h0
        d1 = _dense(h0, self.dec_w1, self.dec_b1, act)
        return a1, h0, d1, _dense(d1, self.dec_w2, self.dec_b2)

    def _inputs(self, tokens: np.ndarray, token_counts: np.ndarray | None = None) -> np.ndarray:
        """The one input step: `_pool_rows` by the model's pooling, under the
        width rule. A single sequence's 1-d row counts as a batch of one."""
        x = _pool_rows(tokens, token_counts, self.config.pooling)
        self._check_width(x.shape if x.ndim == 2 else (1, *x.shape))
        return x

    def encode(self, tokens) -> tuple[np.ndarray, np.ndarray]:
        """Pool and encode one instance; returns (h0, r).

        r is the retrieval representation: the decouple MLP output when
        decoupling is enabled, otherwise h0 itself.
        """
        _, h0, _, r = self._forward(self._inputs(as_tokens(tokens)))
        return h0, r

    def encode_batch(self, dataset) -> tuple[np.ndarray, np.ndarray]:
        """Pool and encode every example of a dataset in one forward pass,
        from its `tokens` and `token_counts`; returns (h0, r) with one row
        per example (zero rows for none)."""
        _, h0, _, r = self._forward(self._inputs(dataset.tokens, dataset.token_counts))
        return h0, r

    def classify(self, h0) -> np.ndarray:
        """Label distribution from h0: softmax(activation(W·h0)); one per row of a batch."""
        h = np.asarray(h0, dtype=np.float64)
        if h.ndim != 2:
            h = as_vector(h, "h0")
        if h.shape[-1] != self.config.emb_dim:
            raise DimensionMismatchError(
                f"h0 has {h.shape[-1]} entries, expected emb_dim {self.config.emb_dim}"
            )
        return softmax(self._logits(h))

    def _logits(self, h0: np.ndarray) -> np.ndarray:
        """The kernel of `classify` up to its softmax, over the last axis of h0, unchecked."""
        return _dense(h0, self.head_w, act=ACTIVATIONS[self.config.activation].fn)

    # -- parameter access ------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        """Live references to every present weight array, in layout order."""
        return {name: getattr(self, name) for name in _layout(self.config)}

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Write a versioned JSON document with full-precision weights.

        Keys: format, version, the ModelConfig fields in declaration order,
        then weights in layout order.
        """
        doc = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            **asdict(self.config),
            "weights": {name: arr.tolist() for name, arr in self.parameters().items()},
        }
        Path(path).write_text(json.dumps(doc), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Model":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelLoadError(f"invalid or truncated model file: {exc}") from exc
        if not isinstance(doc, dict):
            raise ModelFormatError("not a model file (top-level value is not an object)")
        if doc.get("format") != MODEL_FORMAT:
            raise ModelFormatError(f"not a model file (format marker {doc.get('format')!r})")
        if doc.get("version") != MODEL_VERSION:
            raise ModelVersionError(
                f"unsupported model version {doc.get('version')!r} (expected {MODEL_VERSION})"
            )
        try:
            config = ModelConfig(
                **{field.name: doc[field.name] for field in fields(ModelConfig)}
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelLoadError(f"invalid model metadata: {exc}") from exc
        stored = doc.get("weights")
        if not isinstance(stored, dict):
            raise ModelShapeError("missing weights section")
        layout = _layout(config)
        extra = set(stored) - set(layout)
        if extra:
            raise ModelShapeError(f"unexpected weights {sorted(extra)}")
        try:
            return cls(config=config, **{name: stored.get(name) for name in layout})
        except ModelShapeError:
            raise
        except ValueError as exc:
            raise ModelLoadError(f"invalid model weights: {exc}") from exc


def _dense(x: np.ndarray, w: np.ndarray, b=None, act=None) -> np.ndarray:
    """act(x @ w.T + b), bit for bit, in the one array of `np.dot`'s product;
    a ufunc activation (tanh) runs in place, the identity returns it as is."""
    out = np.dot(x, w.T)
    if b is not None:
        out += b
    if act is None:
        return out
    return act(out, out=out) if isinstance(act, np.ufunc) else act(out)


def _layout(cfg: ModelConfig) -> dict[str, tuple[tuple[int, ...], int]]:
    """Each weight's (shape, init fan-in), in draw and file order."""
    hidden, emb = cfg.hidden_dim, cfg.emb_dim
    layout = {
        "enc_w1": ((hidden, cfg.input_dim), cfg.input_dim),
        "enc_b1": ((hidden,), cfg.input_dim),
        "enc_w2": ((emb, hidden), hidden),
        "enc_b2": ((emb,), hidden),
        "head_w": ((cfg.num_labels, emb), emb),
    }
    if cfg.decouple_enabled:
        rdim = cfg.key_dim
        layout.update(
            dec_w1=((hidden, emb), emb),
            dec_b1=((hidden,), emb),
            dec_w2=((rdim, hidden), hidden),
            dec_b2=((rdim,), hidden),
        )
    return layout
