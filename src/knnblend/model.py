"""Desk-scale encoder, classification head, and the retrieval-decoupling MLP.

The encoder maps a pooled token vector through two affine layers (tanh in
between) to the classification representation h0. The classification head
applies the named activation to W·h0 and a softmax. When decoupling is
enabled, a separate one-hidden-layer MLP maps h0 to the retrieval
representation r used as datastore key and query; otherwise r is h0 itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .core import DimensionMismatchError, as_vector, softmax

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

POOLING_MODES = ("cls", "mean", "max")


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
    """A stored weight array is missing or has the wrong shape."""


def pool(tokens, mode: str) -> np.ndarray:
    """Reduce a token sequence (n_tokens, dim) to a single vector.

    cls: first token; mean: elementwise mean; max: elementwise maximum.
    A 1-d input is treated as a length-1 sequence.
    """
    seq = np.asarray(tokens, dtype=np.float64)
    if seq.ndim == 1:
        seq = seq[None, :]
    if seq.ndim != 2 or seq.shape[0] == 0 or seq.shape[1] == 0:
        raise ValueError(
            f"token sequence must be a non-empty 2-d array, got shape {seq.shape}"
        )
    if not np.all(np.isfinite(seq)):
        raise ValueError("token sequence contains non-finite entries")
    if mode == "cls":
        return seq[0].copy()
    if mode == "mean":
        return seq.mean(axis=0)
    if mode == "max":
        return seq.max(axis=0)
    raise ValueError(f"unknown pooling mode {mode!r}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters and feature flags."""

    input_dim: int = 16
    hidden_dim: int = 32
    emb_dim: int = 32
    num_labels: int = 2
    retrieval_dim: int | None = None  # None -> emb_dim
    pooling: str = "cls"
    activation: str = "tanh"
    decouple_enabled: bool = True
    triplet_enabled: bool = True

    def __post_init__(self):
        for name in ("input_dim", "hidden_dim", "emb_dim", "num_labels"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be positive")
        if self.retrieval_dim is not None and int(self.retrieval_dim) < 1:
            raise ValueError("retrieval_dim must be positive")
        if self.pooling not in POOLING_MODES:
            raise ValueError(f"pooling must be one of {POOLING_MODES}, got {self.pooling!r}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {tuple(ACTIVATIONS)}, got {self.activation!r}"
            )

    @property
    def resolved_retrieval_dim(self) -> int:
        return int(self.retrieval_dim) if self.retrieval_dim is not None else self.emb_dim

    @property
    def key_dim(self) -> int:
        """Dimension of the retrieval representation actually used as key/query."""
        return self.resolved_retrieval_dim if self.decouple_enabled else self.emb_dim


@dataclass
class FeatureCache:
    """Intermediate activations of a batched forward pass (training reuses these)."""

    x: np.ndarray  # (B, input_dim) pooled inputs
    z1: np.ndarray  # (B, hidden) encoder pre-activation
    a1: np.ndarray  # (B, hidden) encoder hidden activation
    h0: np.ndarray  # (B, emb) classification representation
    g1: np.ndarray | None  # (B, hidden) decouple pre-activation
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
        cfg = self.config
        expected = _expected_shapes(cfg)
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr is None:
                raise ValueError(f"weight {name} is required by the config")
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"weight {name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"weight {name} contains non-finite entries")
            setattr(self, name, arr)
        if not cfg.decouple_enabled:
            for name in ("dec_w1", "dec_b1", "dec_w2", "dec_b2"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} present but decoupling is disabled")

    @classmethod
    def initialize(cls, config: ModelConfig, seed) -> "Model":
        """Seeded uniform init: each layer drawn from [-1/sqrt(fan_in), +1/sqrt(fan_in)].

        `seed` may be an int or an existing numpy Generator (consumed in a
        fixed draw order, so callers can share one stream deterministically).
        """
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)

        def draw(fan_in: int, *shape: int) -> np.ndarray:
            bound = 1.0 / math.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=shape)

        cfg = config
        weights = {
            "enc_w1": draw(cfg.input_dim, cfg.hidden_dim, cfg.input_dim),
            "enc_b1": draw(cfg.input_dim, cfg.hidden_dim),
            "enc_w2": draw(cfg.hidden_dim, cfg.emb_dim, cfg.hidden_dim),
            "enc_b2": draw(cfg.hidden_dim, cfg.emb_dim),
            "head_w": draw(cfg.emb_dim, cfg.num_labels, cfg.emb_dim),
        }
        if cfg.decouple_enabled:
            rdim = cfg.resolved_retrieval_dim
            weights["dec_w1"] = draw(cfg.emb_dim, cfg.hidden_dim, cfg.emb_dim)
            weights["dec_b1"] = draw(cfg.emb_dim, cfg.hidden_dim)
            weights["dec_w2"] = draw(cfg.hidden_dim, rdim, cfg.hidden_dim)
            weights["dec_b2"] = draw(cfg.hidden_dim, rdim)
        return cls(config=config, **weights)

    # -- forward passes -------------------------------------------------

    def features(self, x_batch: np.ndarray) -> FeatureCache:
        """Forward the encoder (and decouple MLP) over pooled inputs (B, input_dim)."""
        cfg = self.config
        x = np.asarray(x_batch, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != cfg.input_dim:
            raise DimensionMismatchError(
                f"pooled input has shape {x.shape}, expected (*, {cfg.input_dim})"
            )
        act = ACTIVATIONS[cfg.activation].fn
        z1 = x @ self.enc_w1.T + self.enc_b1
        a1 = act(z1)
        h0 = a1 @ self.enc_w2.T + self.enc_b2
        if cfg.decouple_enabled:
            g1 = h0 @ self.dec_w1.T + self.dec_b1
            d1 = act(g1)
            r = d1 @ self.dec_w2.T + self.dec_b2
        else:
            g1 = d1 = None
            r = h0
        return FeatureCache(x=x, z1=z1, a1=a1, h0=h0, g1=g1, d1=d1, r=r)

    def encode(self, tokens) -> tuple[np.ndarray, np.ndarray]:
        """Pool and encode one instance; returns (h0, r).

        r is the retrieval representation: the decouple MLP output when
        decoupling is enabled, otherwise h0 itself.
        """
        h0, r = self.encode_batch([tokens])
        return h0[0], r[0]

    def encode_batch(self, token_seqs) -> tuple[np.ndarray, np.ndarray]:
        """Pool and encode a sequence of instances in one forward pass;
        returns (h0, r) with one row per instance (zero rows for none)."""
        pooled = [pool(tokens, self.config.pooling) for tokens in token_seqs]
        # np.array, not np.stack: stack makes one view object per instance.
        x = np.array(pooled) if pooled else np.zeros((0, self.config.input_dim))
        cache = self.features(x)
        return cache.h0, cache.r

    def classify(self, h0) -> np.ndarray:
        """Label distribution from h0: softmax(activation(W·h0)); one per row of a batch."""
        h = np.asarray(h0, dtype=np.float64)
        if h.ndim != 2:
            h = as_vector(h, "h0")
        if h.shape[-1] != self.config.emb_dim:
            raise DimensionMismatchError(
                f"h0 has {h.shape[-1]} entries, expected emb_dim {self.config.emb_dim}"
            )
        act = ACTIVATIONS[self.config.activation].fn
        return softmax(act(h @ self.head_w.T))

    # -- parameter access ------------------------------------------------

    def parameters(self) -> dict[str, np.ndarray]:
        """Live references to every present weight array, in a fixed order."""
        params = {
            "enc_w1": self.enc_w1,
            "enc_b1": self.enc_b1,
            "enc_w2": self.enc_w2,
            "enc_b2": self.enc_b2,
            "head_w": self.head_w,
        }
        if self.config.decouple_enabled:
            params.update(
                dec_w1=self.dec_w1, dec_b1=self.dec_b1,
                dec_w2=self.dec_w2, dec_b2=self.dec_b2,
            )
        return params

    def copy(self) -> "Model":
        kwargs = {name: arr.copy() for name, arr in self.parameters().items()}
        return Model(config=self.config, **kwargs)

    # -- persistence -----------------------------------------------------

    def save(self, path) -> None:
        """Write a versioned JSON document with full-precision weights."""
        cfg = self.config
        doc = {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "input_dim": cfg.input_dim,
            "hidden_dim": cfg.hidden_dim,
            "emb_dim": cfg.emb_dim,
            "num_labels": cfg.num_labels,
            "retrieval_dim": cfg.retrieval_dim,
            "pooling": cfg.pooling,
            "activation": cfg.activation,
            "decouple_enabled": cfg.decouple_enabled,
            "triplet_enabled": cfg.triplet_enabled,
            "weights": {name: arr.tolist() for name, arr in self.parameters().items()},
        }
        Path(path).write_text(json.dumps(doc), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Model":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
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
                input_dim=int(doc["input_dim"]),
                hidden_dim=int(doc["hidden_dim"]),
                emb_dim=int(doc["emb_dim"]),
                num_labels=int(doc["num_labels"]),
                retrieval_dim=(
                    int(doc["retrieval_dim"]) if doc["retrieval_dim"] is not None else None
                ),
                pooling=doc["pooling"],
                activation=doc["activation"],
                decouple_enabled=bool(doc["decouple_enabled"]),
                triplet_enabled=bool(doc["triplet_enabled"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelLoadError(f"invalid model metadata: {exc}") from exc
        stored = doc.get("weights")
        if not isinstance(stored, dict):
            raise ModelShapeError("missing weights section")
        expected = _expected_shapes(config)
        kwargs = {}
        for name, shape in expected.items():
            if name not in stored:
                raise ModelShapeError(f"missing weight {name}")
            arr = np.asarray(stored[name], dtype=np.float64)
            if arr.shape != shape:
                raise ModelShapeError(
                    f"weight {name} has shape {arr.shape}, expected {shape}"
                )
            kwargs[name] = arr
        extra = set(stored) - set(expected)
        if extra:
            raise ModelShapeError(f"unexpected weights {sorted(extra)}")
        return cls(config=config, **kwargs)


def _expected_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    shapes = {
        "enc_w1": (cfg.hidden_dim, cfg.input_dim),
        "enc_b1": (cfg.hidden_dim,),
        "enc_w2": (cfg.emb_dim, cfg.hidden_dim),
        "enc_b2": (cfg.emb_dim,),
        "head_w": (cfg.num_labels, cfg.emb_dim),
    }
    if cfg.decouple_enabled:
        rdim = cfg.resolved_retrieval_dim
        shapes.update(
            dec_w1=(cfg.hidden_dim, cfg.emb_dim),
            dec_b1=(cfg.hidden_dim,),
            dec_w2=(rdim, cfg.hidden_dim),
            dec_b2=(rdim,),
        )
    return shapes
