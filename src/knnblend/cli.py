"""Command-line surface: train, build-datastore, predict, evaluate, sweep,
gen-data, and grad-check.

Every run is configured by one JSON document (optionally overridden by a few
flags) so experiments are reproducible from a single artifact:

    {
      "data":  {"synthetic": {"num_classes": 4, "dim": 16, ...}}
               or {"train": "train.jsonl", "test": "test.jsonl"},
      "model": {"hidden_dim": 32, "emb_dim": 32, "decouple_enabled": true, ...},
      "hyper": {"triplet_weight": 0.5, "margin": 1.0, "learning_rate": 0.1,
                "batch_size": 32, "epochs": 20, "seed": 7,
                "k": 64, "temperature": 10.0, "knn_weight": 0.2},
      "sweep": {"k": [1, 8, 64], "temperature": [1, 10, 100],
                "knn_weight": [0, 0.5, 1]}
    }

Exit codes: 0 success, 1 usage/config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from .data import Dataset, SyntheticSpec, generate_synthetic, load_jsonl, write_jsonl
from .datastore import Datastore
from .evaluate import (
    CSV_HEADER,
    EvalReport,
    SweepSpec,
    evaluate_config,
    run_sweep,
    write_report_csv,
)
from .model import Model, ModelConfig
from .retrieval import RetrievalParams, build_datastore, predict_batch
from .training import Hyperparams, TrainExample, grad_check, train

__all__ = ["ConfigError", "main"]


class ConfigError(Exception):
    """Bad usage or bad configuration; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse normally exits 2 on usage errors; route them through the
    # ConfigError path so usage problems exit 1 per the interface contract.
    def error(self, message):
        raise ConfigError(message)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return doc


def _section(cfg: dict, name: str, allowed: set[str]) -> dict:
    section = cfg.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(
            f"config section {name!r} has unknown keys: {', '.join(sorted(unknown))}"
        )
    return section


_SYNTH_KEYS = {
    "num_classes", "dim", "per_class_count", "class_separation", "noise_sigma", "seed",
}
_MODEL_KEYS = {
    "input_dim", "hidden_dim", "emb_dim", "num_labels", "retrieval_dim",
    "pooling", "activation", "decouple_enabled", "triplet_enabled",
}
_HYPER_KEYS = {
    "triplet_weight", "margin", "learning_rate", "batch_size", "epochs", "seed",
    "k", "temperature", "knn_weight",
}
_SWEEP_KEYS = {"k", "temperature", "knn_weight"}


def _synthetic_spec(cfg: dict, seed_override: int | None) -> SyntheticSpec:
    data = _section(cfg, "data", {"synthetic", "train", "test"})
    section = data.get("synthetic", {})
    if not isinstance(section, dict):
        raise ConfigError("data.synthetic must be an object")
    unknown = set(section) - _SYNTH_KEYS
    if unknown:
        raise ConfigError(f"data.synthetic has unknown keys: {', '.join(sorted(unknown))}")
    kwargs = dict(section)
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return SyntheticSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid synthetic spec: {exc}") from exc


def _datasets(cfg: dict, seed_override: int | None) -> tuple[Dataset, Dataset | None]:
    """(train, test) from the config's data section; synthetic by default."""
    data = _section(cfg, "data", {"synthetic", "train", "test"})
    if "train" in data:
        if "synthetic" in data:
            raise ConfigError("data section cannot name both a train file and synthetic")
        train_ds = load_jsonl(data["train"])
        test_ds = load_jsonl(data["test"]) if "test" in data else None
        return train_ds, test_ds
    return generate_synthetic(_synthetic_spec(cfg, seed_override))


def _model_config(cfg: dict, dataset: Dataset) -> ModelConfig:
    section = _section(cfg, "model", _MODEL_KEYS)
    kwargs = dict(section)
    for key, value in (("input_dim", dataset.input_dim), ("num_labels", dataset.num_labels)):
        if key in kwargs:
            if int(kwargs[key]) != value:
                raise ConfigError(
                    f"model.{key} is {kwargs[key]} but the data implies {value}"
                )
        kwargs[key] = value
    try:
        return ModelConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model config: {exc}") from exc


def _hyperparams(cfg: dict, seed_override: int | None) -> Hyperparams:
    section = _section(cfg, "hyper", _HYPER_KEYS)
    retrieval_kwargs = {
        key: section[key] for key in ("k", "temperature", "knn_weight") if key in section
    }
    kwargs = {k: v for k, v in section.items() if k not in retrieval_kwargs}
    if seed_override is not None:
        kwargs["seed"] = seed_override
    try:
        return Hyperparams(retrieval=RetrievalParams(**retrieval_kwargs), **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid hyperparameters: {exc}") from exc


def _retrieval_params(cfg: dict, args) -> RetrievalParams:
    section = _section(cfg, "hyper", _HYPER_KEYS)
    kwargs = {
        key: section[key] for key in ("k", "temperature", "knn_weight") if key in section
    }
    for key in ("k", "temperature", "knn_weight"):
        value = getattr(args, key, None)
        if value is not None:
            kwargs[key] = value
    try:
        return RetrievalParams(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid retrieval parameters: {exc}") from exc


def _sweep_spec(cfg: dict) -> SweepSpec:
    section = _section(cfg, "sweep", _SWEEP_KEYS)
    kwargs = {}
    if "k" in section:
        kwargs["k_values"] = section["k"]
    if "temperature" in section:
        kwargs["temperature_values"] = section["temperature"]
    if "knn_weight" in section:
        kwargs["knn_weight_values"] = section["knn_weight"]
    try:
        return SweepSpec(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid sweep spec: {exc}") from exc


def _write_lines(lines, path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_gen_data(args) -> int:
    cfg = _load_config(args.config)
    spec = _synthetic_spec(cfg, args.seed)
    train_ds, test_ds = generate_synthetic(spec)
    write_jsonl(train_ds, args.out_train)
    write_jsonl(test_ds, args.out_test)
    print(f"wrote {len(train_ds)} train examples to {args.out_train}")
    print(f"wrote {len(test_ds)} test examples to {args.out_test}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args.config)
    train_ds, _ = _datasets(cfg, args.seed)
    model_config = _model_config(cfg, train_ds)
    hyper = _hyperparams(cfg, args.seed)
    model, log = train(train_ds.examples, hyper, model_config)
    model.save(args.out)
    log_path = args.log if args.log is not None else f"{args.out}.log"
    lines = [stats.format_line() for stats in log]
    Path(log_path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    for line in lines:
        print(line)
    print(f"wrote model to {args.out} (log: {log_path})")
    return 0


def _cmd_build_datastore(args) -> int:
    model = Model.load(args.model)
    dataset = load_jsonl(args.data)
    store = build_datastore(model, dataset)
    store.save(args.out)
    print(f"wrote datastore with {store.count} keys (dim {store.dim}) to {args.out}")
    return 0


def _scoring_inputs(args) -> tuple[dict, Model, Datastore | None, Dataset]:
    """(config, model, optional datastore, dataset) for predict, evaluate and sweep."""
    cfg = _load_config(args.config)
    model = Model.load(args.model)
    store = Datastore.load(args.datastore) if args.datastore else None
    return cfg, model, store, load_jsonl(args.data)


def _cmd_predict(args) -> int:
    cfg, model, store, dataset = _scoring_inputs(args)
    params = _retrieval_params(cfg, args)
    batch = predict_batch(model, store, [ex.tokens for ex in dataset.examples], params)
    lines = ["id,predicted_label"]
    lines.extend(f"{ex.id},{label}" for ex, label in zip(dataset.examples, batch.labels))
    _write_lines(lines, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    cfg, model, store, dataset = _scoring_inputs(args)
    params = _retrieval_params(cfg, args)
    started = time.perf_counter()
    row = evaluate_config(model, store, dataset.examples, params)
    report = EvalReport(rows=(row,), wall_ms=(time.perf_counter() - started) * 1000.0)
    if args.out is not None:
        write_report_csv(report, args.out)
    print(CSV_HEADER)
    print(row.csv_line())
    print(f"accuracy={row.accuracy!r}")
    return 0


def _cmd_sweep(args) -> int:
    cfg, model, store, dataset = _scoring_inputs(args)
    sweep = _sweep_spec(cfg)
    report = run_sweep(model, store, dataset.examples, sweep)
    write_report_csv(report, args.out)
    best = report.best
    print(f"wrote {len(report.rows)} rows to {args.out}")
    print(
        f"best: k={best.k} temperature={best.temperature!r} "
        f"knn_weight={best.knn_weight!r} accuracy={best.accuracy!r}"
    )
    return 0


def _cmd_grad_check(args) -> int:
    cfg = _load_config(args.config)
    seed = args.seed if args.seed is not None else 0
    model_section = _section(cfg, "model", _MODEL_KEYS)
    base_kwargs = {
        "input_dim": 8, "hidden_dim": 8, "emb_dim": 8, "num_labels": 3,
        **model_section,
    }
    rng = np.random.default_rng(seed)
    try:
        probe = ModelConfig(**base_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model config: {exc}") from exc
    batch = [
        TrainExample(
            tokens=rng.normal(size=(1, probe.input_dim)),
            label=i % probe.num_labels,
            id=i,
        )
        for i in range(8)
    ]
    all_passed = True
    for decouple in (True, False):
        config = dataclasses.replace(probe, decouple_enabled=decouple)
        for weight in (0.0, 0.3, 0.5, 1.0):
            model = Model.initialize(config, np.random.default_rng(seed))
            hyper = Hyperparams(triplet_weight=weight, seed=seed)
            report = grad_check(model, batch, hyper, step=args.step)
            status = "PASS" if report.passed else "FAIL"
            print(
                f"triplet_weight={weight} decouple={'on' if decouple else 'off'} "
                f"max_rel_error={report.max_rel_error:.3e} "
                f"max_abs_error={report.max_abs_error:.3e} "
                f"checked={report.num_checked} {status}"
            )
            all_passed = all_passed and report.passed
    return 0 if all_passed else 2


# ---------------------------------------------------------------------------
# Parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="knnblend",
        description="Retrieval-augmented classification: train, build, blend, evaluate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic JSONL dataset pair")
    p.add_argument("--config", help="config JSON with a data.synthetic section")
    p.add_argument("--seed", type=int, help="override the synthetic seed")
    p.add_argument("--out-train", default="train.jsonl")
    p.add_argument("--out-test", default="test.jsonl")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train a model and write it with its log")
    p.add_argument("--config", help="config JSON (data/model/hyper sections)")
    p.add_argument("--seed", type=int, help="override training and synthetic seeds")
    p.add_argument("--out", default="model.json", help="model file to write")
    p.add_argument("--log", help="training log path (default: <out>.log)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("build-datastore", help="encode a dataset into a datastore file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="JSONL dataset to encode")
    p.add_argument("--out", default="datastore.bin")
    p.set_defaults(func=_cmd_build_datastore)

    for name, func, help_text in (
        ("predict", _cmd_predict, "write per-example predicted labels"),
        ("evaluate", _cmd_evaluate, "accuracy of one retrieval configuration"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config JSON (hyper section supplies defaults)")
        p.add_argument("--model", required=True)
        p.add_argument("--datastore", help="datastore file (optional when knn_weight is 0)")
        p.add_argument("--data", required=True, help="JSONL dataset to score")
        p.add_argument("--k", type=int)
        p.add_argument("--temperature", type=float)
        p.add_argument("--knn-weight", dest="knn_weight", type=float)
        p.add_argument("--out", help="CSV output path (default: stdout only)")
        p.set_defaults(func=func)

    p = sub.add_parser("sweep", help="evaluate a (k, temperature, knn_weight) grid")
    p.add_argument("--config", help="config JSON with a sweep section")
    p.add_argument("--model", required=True)
    p.add_argument("--datastore", help="datastore file (optional when all knn_weight are 0)")
    p.add_argument("--data", required=True, help="JSONL dataset to score")
    p.add_argument("--out", default="sweep.csv", help="CSV output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("grad-check", help="finite-difference check of the loss gradients")
    p.add_argument("--config", help="config JSON (model section overrides the probe model)")
    p.add_argument("--seed", type=int, help="seed for the probe batch and weights")
    p.add_argument("--step", type=float, default=1e-5, help="finite-difference step")
    p.set_defaults(func=_cmd_grad_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
