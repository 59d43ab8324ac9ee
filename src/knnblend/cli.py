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

Each config section accepts exactly the fields of its dataclass: `data.synthetic`
those of `SyntheticSpec`, `model` of `ModelConfig`, `hyper` of `Hyperparams` and
`RetrievalParams` together, and `sweep` of `RetrievalParams` (each a list).
`data` names either `synthetic` or a `train` file path for `train`, and a
`test` file path that `predict`, `evaluate` and `sweep` score when `--data` is
absent (`train` reads only `data.train`). Each named path must be a string.
Numbers must be finite JSON numbers, and integer fields truncate with `int()` (2.5
is 2). Flags override the config key of the same name. An unknown key, a string or
a bool where a number belongs, any other value the dataclass rejects, or a
synthetic spec whose points overflow float64, exits 1.

Exit codes: 0 success, 1 usage/config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .data import Dataset, SyntheticSpec, generate_synthetic, load_jsonl, write_jsonl
from .datastore import Datastore
from .evaluate import CSV_HEADER, SweepSpec, evaluate_config, run_sweep, write_report_csv
from .model import Model, ModelConfig
from .retrieval import RetrievalParams, build_datastore, predict_batch
from .training import Hyperparams, grad_check, train

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


def _fields(*classes) -> set[str]:
    return {field.name for cls in classes for field in dataclasses.fields(cls)}


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


def _settings(section: dict, cls, args) -> dict:
    """The section's values for the fields of cls; a flag of the same name wins."""
    names = _fields(cls)
    kwargs = {key: value for key, value in section.items() if key in names}
    kwargs.update(
        (name, getattr(args, name)) for name in names if getattr(args, name, None) is not None
    )
    return kwargs


def _build(cls, kwargs: dict, what: str):
    """cls(**kwargs); any value its __post_init__ rejects becomes a ConfigError."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _data_section(cfg: dict) -> dict:
    data = _section(cfg, "data", {"synthetic", "train", "test"})
    for key in ("train", "test"):
        if key in data and not isinstance(data[key], str):
            raise ConfigError(f"data.{key} must be a file path, got {data[key]!r}")
    return data


def _synthetic_datasets(cfg: dict, args) -> tuple[Dataset, Dataset]:
    """The train and test sets of data.synthetic; a spec whose points overflow
    float64 is a config error too."""
    section = _section(_data_section(cfg), "synthetic", _fields(SyntheticSpec))
    spec = _build(SyntheticSpec, _settings(section, SyntheticSpec, args), "synthetic spec")
    try:
        return generate_synthetic(spec)
    except ValueError as exc:
        raise ConfigError(f"invalid synthetic spec: {exc}") from exc


def _train_dataset(cfg: dict, args) -> Dataset:
    """The training set named by the config's data section; synthetic by default."""
    data = _data_section(cfg)
    if "train" not in data:
        return _synthetic_datasets(cfg, args)[0]
    if "synthetic" in data:
        raise ConfigError("data section cannot name both a train file and synthetic")
    return load_jsonl(data["train"])


def _model_config(cfg: dict, dataset: Dataset) -> ModelConfig:
    """The model section; input_dim and num_labels default to, and must match, the data's."""
    implied = {"input_dim": dataset.input_dim, "num_labels": dataset.num_labels}
    section = _section(cfg, "model", _fields(ModelConfig))
    config = _build(ModelConfig, {**implied, **section}, "model config")
    for key, value in implied.items():
        if getattr(config, key) != value:
            raise ConfigError(
                f"model.{key} is {getattr(config, key)} but the data implies {value}"
            )
    return config


def _hyper(cfg: dict, args) -> tuple[Hyperparams, RetrievalParams]:
    """The hyper section, which holds both training and retrieval settings.

    Every command that reads it checks both halves, so a config that one
    command would reject is rejected by the others too.
    """
    section = _section(cfg, "hyper", _fields(Hyperparams, RetrievalParams))
    return (
        _build(Hyperparams, _settings(section, Hyperparams, args), "hyperparameters"),
        _build(RetrievalParams, _settings(section, RetrievalParams, args),
               "retrieval parameters"),
    )


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
    train_ds, test_ds = _synthetic_datasets(cfg, args)
    if len(test_ds) == 0:
        raise ConfigError("per_class_count below 5 leaves the synthetic test split empty")
    write_jsonl(train_ds, args.out_train)
    write_jsonl(test_ds, args.out_test)
    print(f"wrote {len(train_ds)} train examples to {args.out_train}")
    print(f"wrote {len(test_ds)} test examples to {args.out_test}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args.config)
    train_ds = _train_dataset(cfg, args)
    model_config = _model_config(cfg, train_ds)
    hyper, _ = _hyper(cfg, args)
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
    """(config, model, optional datastore, dataset) for predict, evaluate and sweep.

    The dataset is `--data`, or else the config's `data.test`.
    """
    cfg = _load_config(args.config)
    test_path = _data_section(cfg).get("test")  # checked even when --data is given
    data_path = test_path if args.data is None else args.data
    if data_path is None:
        raise ConfigError("no dataset to score: pass --data or set data.test")
    model = Model.load(args.model)
    store = Datastore.load(args.datastore) if args.datastore else None
    return cfg, model, store, load_jsonl(data_path)


def _cmd_predict(args) -> int:
    cfg, model, store, dataset = _scoring_inputs(args)
    _, params = _hyper(cfg, args)
    batch = predict_batch(model, store, dataset, params)
    lines = ["id,predicted_label"]
    lines.extend(f"{i},{label}" for i, label in enumerate(batch.labels))  # ids 0..n-1
    _write_lines(lines, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    cfg, model, store, dataset = _scoring_inputs(args)
    _, params = _hyper(cfg, args)
    row = evaluate_config(model, store, dataset, params)
    if args.out is not None:
        write_report_csv((row,), args.out)
    print(CSV_HEADER)
    print(row.csv_line())
    print(f"accuracy={row.accuracy!r}")
    return 0


def _cmd_sweep(args) -> int:
    cfg, model, store, dataset = _scoring_inputs(args)
    section = _section(cfg, "sweep", _fields(RetrievalParams))
    sweep = _build(
        SweepSpec, {f"{key}_values": values for key, values in section.items()}, "sweep spec"
    )
    report = run_sweep(model, store, dataset, sweep)
    write_report_csv(report.rows, args.out)
    best = report.best
    print(f"wrote {len(report.rows)} rows to {args.out}")
    print(
        f"best: k={best.k} temperature={best.temperature!r} "
        f"knn_weight={best.knn_weight!r} accuracy={best.accuracy!r}"
    )
    return 0


def _cmd_grad_check(args) -> int:
    if not 0.0 < args.step < np.inf:
        raise ConfigError(f"--step must be positive and finite, got {args.step}")
    cfg = _load_config(args.config)
    base = _build(Hyperparams, {"seed": 0 if args.seed is None else args.seed}, "seed")
    section = _section(cfg, "model", _fields(ModelConfig))
    probe = _build(
        ModelConfig,
        {"input_dim": 8, "hidden_dim": 8, "emb_dim": 8, "num_labels": 3, **section},
        "model config",
    )
    tokens = np.random.default_rng(base.seed).normal(size=(8, probe.input_dim))
    labels = np.arange(8) % probe.num_labels
    batch = Dataset(tokens, np.ones(8), labels, probe.num_labels, probe.input_dim).examples
    all_passed = True
    for decouple in (True, False):
        config = dataclasses.replace(probe, decouple_enabled=decouple)
        for weight in (0.0, 0.3, 0.5, 1.0):
            model = Model.initialize(config, np.random.default_rng(base.seed))
            hyper = dataclasses.replace(base, triplet_weight=weight)
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
        ("sweep", _cmd_sweep, "evaluate a (k, temperature, knn_weight) grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="config JSON (hyper or sweep section, data.test)")
        p.add_argument("--model", required=True)
        p.add_argument("--datastore", help="datastore file (optional when knn_weight is 0)")
        p.add_argument("--data", help="JSONL dataset to score (default: data.test)")
        if name == "sweep":
            p.add_argument("--out", default="sweep.csv", help="CSV output path")
        else:
            p.add_argument("--k", type=int)
            p.add_argument("--temperature", type=float)
            p.add_argument("--knn-weight", dest="knn_weight", type=float)
            p.add_argument("--out", help="CSV output path (default: stdout only)")
        p.set_defaults(func=func)

    p = sub.add_parser("grad-check", help="finite-difference check of the loss gradients")
    p.add_argument("--config", help="config JSON (model section overrides the probe model)")
    p.add_argument("--seed", type=int, help="seed for the probe batch and weights")
    p.add_argument("--step", type=float, default=1e-5, help="finite-difference step")
    p.set_defaults(func=_cmd_grad_check)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser`, built once per process: parsing leaves a parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
