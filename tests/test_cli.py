import argparse
import io
import json
import subprocess
import sys
from contextlib import redirect_stdout

import numpy as np
import pytest

from knnblend import cli
from knnblend.cli import ConfigError, build_parser, main
from knnblend.data import load_jsonl
from knnblend.datastore import Datastore
from knnblend.evaluate import CSV_HEADER
from knnblend.model import Model

from helpers import spy_on_examples


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One end-to-end CLI run shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("cli")
    gen_cfg = root / "gen.json"
    gen_cfg.write_text(json.dumps(
        {"data": {"synthetic": {"num_classes": 3, "dim": 6, "per_class_count": 15,
                                "seed": 5}}}
    ))
    paths = {
        "root": root,
        "gen_cfg": gen_cfg,
        "train": root / "train.jsonl",
        "test": root / "test.jsonl",
        "model": root / "model.json",
        "log": root / "model.json.log",
        "store": root / "store.bin",
        "cfg": root / "config.json",
    }
    paths["cfg"].write_text(json.dumps({
        "data": {"train": str(paths["train"]), "test": str(paths["test"])},
        "model": {"hidden_dim": 8, "emb_dim": 8},
        "hyper": {"epochs": 2, "batch_size": 8, "learning_rate": 0.1,
                  "triplet_weight": 0.5, "seed": 5,
                  "k": 4, "temperature": 2.0, "knn_weight": 0.5},
        "sweep": {"k": [1, 4], "temperature": [1.0, 10.0],
                  "knn_weight": [0.0, 0.5, 1.0]},
    }))
    with redirect_stdout(io.StringIO()):
        assert main(["gen-data", "--config", str(gen_cfg),
                     "--out-train", str(paths["train"]),
                     "--out-test", str(paths["test"])]) == 0
        assert main(["train", "--config", str(paths["cfg"]),
                     "--out", str(paths["model"])]) == 0
        assert main(["build-datastore", "--model", str(paths["model"]),
                     "--data", str(paths["train"]),
                     "--out", str(paths["store"])]) == 0
    return paths


# ---------------------------------------------------------------------------
# happy paths


def test_gen_data_writes_both_splits(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(
        {"data": {"synthetic": {"num_classes": 2, "dim": 3, "per_class_count": 10,
                                "seed": 1}}}
    ))
    out_train = tmp_path / "tr.jsonl"
    out_test = tmp_path / "te.jsonl"
    assert main(["gen-data", "--config", str(cfg),
                 "--out-train", str(out_train), "--out-test", str(out_test)]) == 0
    assert len(out_train.read_text().splitlines()) == 16
    assert len(out_test.read_text().splitlines()) == 4
    out = capsys.readouterr().out
    assert "wrote 16 train examples" in out
    assert "wrote 4 test examples" in out


def test_train_writes_model_and_log(pipeline):
    model = Model.load(pipeline["model"])
    assert model.config.input_dim == 6
    assert model.config.num_labels == 3
    assert model.config.hidden_dim == 8
    log_lines = pipeline["log"].read_text().splitlines()
    assert len(log_lines) == 2
    assert log_lines[0].startswith("epoch=1 ")
    assert log_lines[1].startswith("epoch=2 ")
    for key in ("mean_ce=", "mean_triplet=", "mean_total=", "wall_ms="):
        assert key in log_lines[0]


def test_train_prints_epoch_lines(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"synthetic": {"num_classes": 2, "dim": 4, "per_class_count": 8,
                               "seed": 2}},
        "hyper": {"epochs": 1, "batch_size": 8},
    }))
    out = tmp_path / "m.json"
    log = tmp_path / "custom.log"
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--log", str(log)]) == 0
    assert log.exists()
    printed = capsys.readouterr().out
    assert "epoch=1 " in printed
    assert f"wrote model to {out}" in printed


def test_build_datastore_is_reproducible(pipeline, tmp_path, capsys):
    store = Datastore.load(pipeline["store"])
    assert store.count == len(pipeline["train"].read_text().splitlines())
    assert store.num_labels == 3
    again = tmp_path / "again.bin"
    assert main(["build-datastore", "--model", str(pipeline["model"]),
                 "--data", str(pipeline["train"]), "--out", str(again)]) == 0
    assert again.read_bytes() == pipeline["store"].read_bytes()
    assert f"{store.count} keys" in capsys.readouterr().out


def test_build_datastore_takes_a_file_without_the_models_top_label(pipeline, tmp_path, capsys):
    # A header-less file implies labels 0..1 only; the store keys the model's 3.
    lines = pipeline["train"].read_text().splitlines()
    part = tmp_path / "part.jsonl"
    part.write_text("".join(line + "\n" for line in lines if json.loads(line)["label"] != 2))
    store = tmp_path / "part.bin"
    assert main(["build-datastore", "--model", str(pipeline["model"]),
                 "--data", str(part), "--out", str(store)]) == 0
    assert Datastore.load(store).num_labels == 3
    assert main(["evaluate", "--config", str(pipeline["cfg"]), "--model", str(pipeline["model"]),
                 "--datastore", str(store), "--data", str(pipeline["test"])]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("accuracy=")


def test_predict_emits_a_label_per_example(pipeline, capsys):
    assert main(["predict", "--config", str(pipeline["cfg"]),
                 "--model", str(pipeline["model"]),
                 "--datastore", str(pipeline["store"]),
                 "--data", str(pipeline["test"])]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "id,predicted_label"
    n_test = len(pipeline["test"].read_text().splitlines())
    assert len(lines) == 1 + n_test
    for i, line in enumerate(lines[1:]):
        ex_id, label = line.split(",")
        assert int(ex_id) == i
        assert 0 <= int(label) < 3


def test_predict_writes_output_file(pipeline, tmp_path):
    out = tmp_path / "preds.csv"
    assert main(["predict", "--config", str(pipeline["cfg"]),
                 "--model", str(pipeline["model"]),
                 "--datastore", str(pipeline["store"]),
                 "--data", str(pipeline["test"]), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "id,predicted_label"


@pytest.mark.parametrize("command", ["predict", "evaluate", "sweep"])
def test_scoring_commands_make_no_examples(pipeline, tmp_path, monkeypatch, command):
    made = spy_on_examples(monkeypatch)
    assert main([command, "--config", str(pipeline["cfg"]),
                 "--model", str(pipeline["model"]),
                 "--datastore", str(pipeline["store"]),
                 "--data", str(pipeline["test"]), "--out", str(tmp_path / "out.csv")]) == 0
    assert made == []


def test_predict_classifier_only_needs_no_datastore(pipeline, capsys):
    assert main(["predict", "--model", str(pipeline["model"]),
                 "--data", str(pipeline["test"]), "--knn-weight", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "id,predicted_label"


def test_evaluate_prints_header_row_and_accuracy(pipeline, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    assert main(["evaluate", "--config", str(pipeline["cfg"]),
                 "--model", str(pipeline["model"]),
                 "--datastore", str(pipeline["store"]),
                 "--data", str(pipeline["test"]), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("4,2.0,0.5,")  # k, T, lambda from the config
    assert lines[2].startswith("accuracy=")
    assert float(lines[2].split("=")[1]) == float(lines[1].split(",")[3])
    file_lines = out.read_text().splitlines()
    assert file_lines[0] == CSV_HEADER
    assert file_lines[1] == lines[1]


def test_evaluate_flags_override_config(pipeline, capsys):
    assert main(["evaluate", "--config", str(pipeline["cfg"]),
                 "--model", str(pipeline["model"]),
                 "--datastore", str(pipeline["store"]),
                 "--data", str(pipeline["test"]),
                 "--k", "1", "--temperature", "1.0", "--knn-weight", "1.0"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row.startswith("1,1.0,1.0,")


def test_evaluate_defaults_to_the_config_test_file(pipeline, capsys):
    # The pipeline config names the same file as data.test.
    common = ["evaluate", "--config", str(pipeline["cfg"]),
              "--model", str(pipeline["model"]), "--datastore", str(pipeline["store"])]
    assert main([*common, "--data", str(pipeline["test"])]) == 0
    with_flag = capsys.readouterr().out
    assert main(common) == 0
    assert capsys.readouterr().out == with_flag


def test_sweep_writes_grid_and_best_line(pipeline, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(pipeline["cfg"]),
                 "--model", str(pipeline["model"]),
                 "--datastore", str(pipeline["store"]),
                 "--data", str(pipeline["test"]), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 3
    printed = capsys.readouterr().out
    assert "wrote 12 rows" in printed
    assert "best: k=" in printed


def test_sweep_classifier_only_grid_needs_no_datastore(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"sweep": {"k": [1], "temperature": [1.0], "knn_weight": [0.0]}}
    ))
    out = tmp_path / "sweep.csv"
    with redirect_stdout(io.StringIO()):
        code = main(["sweep", "--config", str(cfg),
                     "--model", str(pipeline["model"]),
                     "--data", str(pipeline["test"]), "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 2


def test_grad_check_battery_passes(capsys):
    assert main(["grad-check", "--seed", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8
    assert all(line.endswith(" PASS") for line in lines)
    assert sum("decouple=on" in line for line in lines) == 4
    assert sum("decouple=off" in line for line in lines) == 4
    for weight in ("0.0", "0.3", "0.5", "1.0"):
        assert sum(f"triplet_weight={weight} " in line for line in lines) == 2


@pytest.mark.parametrize("step", ["0", "-1e-5", "nan", "inf", "-inf", "1e400"])
def test_grad_check_rejects_a_step_that_is_not_positive_and_finite(capsys, step):
    assert main(["grad-check", f"--step={step}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # rejected before any check runs
    assert captured.err.startswith("error: --step must be positive and finite")


def test_module_runs_as_a_script(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps(
        {"data": {"synthetic": {"num_classes": 2, "dim": 3, "per_class_count": 5,
                                "seed": 0}}}
    ))
    result = subprocess.run(
        [sys.executable, "-m", "knnblend", "gen-data", "--config", str(cfg),
         "--out-train", str(tmp_path / "tr.jsonl"),
         "--out-test", str(tmp_path / "te.jsonl")],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "tr.jsonl").exists()
    assert (tmp_path / "te.jsonl").exists()


# ---------------------------------------------------------------------------
# usage and config failures (exit 1)


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_exits_1(capsys):
    assert main(["build-datastore"]) == 1
    assert "error:" in capsys.readouterr().err


SUBCOMMANDS = ("gen-data", "train", "build-datastore", "predict", "evaluate", "sweep",
               "grad-check")


def subcommand_parsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", [None, *SUBCOMMANDS])
def test_help_text_is_the_full_parsers(command, capsys):
    full = build_parser()
    subs = subcommand_parsers(full)
    assert tuple(subs) == SUBCOMMANDS
    want = (full if command is None else subs[command]).format_help()
    with pytest.raises(SystemExit) as done:
        main(["--help"] if command is None else [command, "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["build-datastore"],
                                  ["predict", "--model", "m.json", "--k", "two"],
                                  ["sweep", "--model", "m.json", "--bogus"]])
def test_usage_errors_are_the_full_parsers(argv, capsys):
    with pytest.raises(ConfigError) as want:
        build_parser().parse_args(argv)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {want.value}\n"


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    try:
        for argv in (["frobnicate"], ["build-datastore"], ["grad-check", "--step", "0"]):
            assert main(argv) == 1
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_invalid_config_json_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_non_object_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2]")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1
    assert "must be a JSON object" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"synthetic": {"num_classes": 2, "dim": 3, "per_class_count": 5}},
        "hyper": {"bogus": 1},
    }))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1
    assert "unknown keys: bogus" in capsys.readouterr().err


def test_out_of_range_hyperparameter_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"synthetic": {"num_classes": 2, "dim": 3, "per_class_count": 5}},
        "hyper": {"triplet_weight": 2.0},
    }))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1
    assert "triplet_weight" in capsys.readouterr().err


# Small synthetic data, so a train case fails on its config, not on data.
_SMALL = '"data": {"synthetic": {"num_classes": 2, "dim": 3, "per_class_count": 5}}'


@pytest.mark.parametrize("command, config", [
    pytest.param("gen-data", '{"data": {"synthetic": {"dim": 1e400}}}', id="synthetic.dim-inf"),
    pytest.param("train", '{%s, "hyper": {"epochs": 1e400}}' % _SMALL, id="hyper.epochs-inf"),
    pytest.param("train", '{%s, "hyper": {"batch_size": 1e400}}' % _SMALL,
                 id="hyper.batch_size-inf"),
    pytest.param("train", '{%s, "model": {"hidden_dim": 1e400}}' % _SMALL,
                 id="model.hidden_dim-inf"),
    pytest.param("grad-check", '{"model": {"hidden_dim": 1e400}}',
                 id="grad-check-model.hidden_dim-inf"),
    pytest.param("train", '{%s, "model": {"input_dim": "abc"}}' % _SMALL,
                 id="model.input_dim-string"),
    pytest.param("train", '{%s, "model": {"input_dim": null}}' % _SMALL,
                 id="model.input_dim-null"),
    pytest.param("train", '{"data": {"train": 5}}', id="data.train-number"),
    pytest.param("sweep", '{"sweep": {"k": [1e400]}}', id="sweep.k-inf"),
    pytest.param("evaluate", '{"hyper": {"k": 1e400}}', id="hyper.k-inf"),
    pytest.param("evaluate", '{"hyper": {"epochs": -1}}', id="evaluate-hyper.epochs-negative"),
    pytest.param("evaluate", '{"data": {"test": 5}}', id="data.test-number"),
    pytest.param("train", '{%s, "model": {"decouple_enabled": "false"}}' % _SMALL,
                 id="model.decouple_enabled-string"),
    pytest.param("evaluate", '{"hyper": {"knn_weight": "0.2"}}', id="hyper.knn_weight-string"),
    pytest.param("train", '{%s, "hyper": {"triplet_weight": "0.5"}}' % _SMALL,
                 id="hyper.triplet_weight-string"),
    pytest.param("train", '{%s, "hyper": {"epochs": true}}' % _SMALL, id="hyper.epochs-bool"),
    pytest.param("sweep", '{"sweep": {"k": "18"}}', id="sweep.k-string"),
    pytest.param("gen-data", '{"data": {"synthetic": {"dim": "16"}}}', id="synthetic.dim-string"),
    pytest.param("gen-data", '{"data": {"synthetic": {"noise_sigma": Infinity}}}',
                 id="synthetic.noise_sigma-inf"),
    pytest.param("train", '{%s, "hyper": {"learning_rate": Infinity}}' % _SMALL,
                 id="hyper.learning_rate-inf"),
    pytest.param("train", '{%s, "hyper": {"margin": Infinity}}' % _SMALL, id="hyper.margin-inf"),
    pytest.param("evaluate", '{"hyper": {"temperature": Infinity}}', id="hyper.temperature-inf"),
    pytest.param("sweep", '{"sweep": {"k": 18}}', id="sweep.k-number"),
    pytest.param("train", '{%s, "model": []}' % _SMALL, id="model-not-an-object"),
])
def test_malformed_config_value_exits_1(pipeline, tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    argv = {
        "gen-data": ["--out-train", str(tmp_path / "tr.jsonl"),
                     "--out-test", str(tmp_path / "te.jsonl")],
        "train": ["--out", str(tmp_path / "m.json")],
        "grad-check": [],
        "sweep": ["--model", str(pipeline["model"]), "--datastore", str(pipeline["store"]),
                  "--data", str(pipeline["test"]), "--out", str(tmp_path / "s.csv")],
        "evaluate": ["--model", str(pipeline["model"]), "--datastore", str(pipeline["store"]),
                     "--data", str(pipeline["test"])],
    }[command]
    assert main([command, "--config", str(cfg), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command, config", [
    pytest.param("gen-data", '{"data": {"synthetic": {"seed": -1}}}', id="gen-data"),
    pytest.param("train", '{%s, "hyper": {"seed": -3}}' % _SMALL, id="train"),
    pytest.param("grad-check", '{}', id="grad-check"),
])
def test_negative_seed_exits_1(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    argv = {
        "gen-data": ["--out-train", str(tmp_path / "tr.jsonl"),
                     "--out-test", str(tmp_path / "te.jsonl")],
        "train": ["--out", str(tmp_path / "m.json")],
        "grad-check": ["--seed", "-1"],
    }[command]
    assert main([command, "--config", str(cfg), *argv]) == 1
    assert "seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, flags, line", [
    pytest.param("gen-data", '{"data": {"synthetic": {"num_classes": 1}}}', [],
                 "invalid synthetic spec: num_classes must be >= 2, got 1", id="data.synthetic"),
    pytest.param("train", '{%s, "model": {"hidden_dim": 0}}' % _SMALL, [],
                 "invalid model config: hidden_dim must be positive, got 0", id="model"),
    pytest.param("train", '{%s, "hyper": {"learning_rate": 0}}' % _SMALL, [],
                 "invalid hyperparameters: learning_rate must be positive, got 0.0", id="hyper"),
    pytest.param("evaluate", "{}", ["--knn-weight", "1.5"],
                 "invalid retrieval parameters: knn_weight must be in [0, 1], got 1.5",
                 id="hyper-flag"),
    pytest.param("sweep", '{"sweep": {"k": [0]}}', [],
                 "invalid sweep spec: k must be >= 1, got 0", id="sweep"),
])
def test_an_out_of_range_config_value_exits_1_with_its_rule(pipeline, tmp_path, capsys, command,
                                                           config, flags, line):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    scoring = ["--model", str(pipeline["model"]), "--datastore", str(pipeline["store"]),
               "--data", str(pipeline["test"])]
    argv = {
        "gen-data": ["--out-train", str(tmp_path / "tr.jsonl"),
                     "--out-test", str(tmp_path / "te.jsonl")],
        "train": ["--out", str(tmp_path / "m.json")],
        "evaluate": scoring,
        "sweep": [*scoring, "--out", str(tmp_path / "s.csv")],
    }[command]
    assert main([command, "--config", str(cfg), *argv, *flags]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not list(tmp_path.glob("*.jsonl")) and not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("m.json*"))


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_overflowing_synthetic_spec_exits_1(tmp_path, capsys, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"data": {"synthetic": {"class_separation": 1e308, "noise_sigma": 1e308}}}')
    argv = {
        "gen-data": ["--out-train", str(tmp_path / "tr.jsonl"),
                     "--out-test", str(tmp_path / "te.jsonl")],
        "train": ["--out", str(tmp_path / "m.json")],
    }[command]
    assert main([command, "--config", str(cfg), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid synthetic spec: class_separation")
    assert "noise_sigma" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.jsonl")) and not list(tmp_path.glob("m.json*"))


def test_config_that_names_a_directory_exits_1(tmp_path, capsys):
    assert main(["gen-data", "--config", str(tmp_path), "--out-train", str(tmp_path / "tr.jsonl"),
                 "--out-test", str(tmp_path / "te.jsonl")]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read config {tmp_path}: ")
    assert not list(tmp_path.glob("*.jsonl"))


def test_gen_data_refuses_an_empty_test_split(tmp_path, capsys):
    # A fifth of 4 rows per class, rounded down, leaves no test row; a file
    # of no records would not load, so neither file is written.
    cfg = tmp_path / "gen.json"
    cfg.write_text('{"data": {"synthetic": {"per_class_count": 4}}}')
    assert main(["gen-data", "--config", str(cfg), "--out-train", str(tmp_path / "tr.jsonl"),
                 "--out-test", str(tmp_path / "te.jsonl")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: per_class_count below 5 leaves the synthetic test split empty\n"
    assert captured.out == "" and not list(tmp_path.glob("*.jsonl"))


def test_train_does_not_read_the_test_file(pipeline, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"train": str(pipeline["train"]), "test": str(tmp_path / "missing.jsonl")},
        "model": {"hidden_dim": 8, "emb_dim": 8},
        "hyper": {"epochs": 1},
    }))
    with redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 0


def test_scoring_without_data_or_data_test_exits_1(pipeline, capsys):
    assert main(["evaluate", "--model", str(pipeline["model"]),
                 "--datastore", str(pipeline["store"])]) == 1
    assert "--data or set data.test" in capsys.readouterr().err


def test_integer_fields_truncate_fractional_values(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text('{"data": {"synthetic": {"dim": 2.5, "per_class_count": 5}}}')
    out_train = tmp_path / "tr.jsonl"
    assert main(["gen-data", "--config", str(cfg), "--out-train", str(out_train),
                 "--out-test", str(tmp_path / "te.jsonl")]) == 0
    assert load_jsonl(out_train).input_dim == 2


def test_model_label_count_conflict_exits_1(pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"train": str(pipeline["train"])},
        "model": {"num_labels": 7},
        "hyper": {"epochs": 1},
    }))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1
    assert "num_labels" in capsys.readouterr().err


def test_both_files_and_synthetic_exits_1(pipeline, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"train": str(pipeline["train"]), "synthetic": {"num_classes": 2}},
    }))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1
    assert "both" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# runtime failures (exit 2)


def test_missing_model_file_exits_2(pipeline, capsys):
    assert main(["predict", "--model", str(pipeline["root"] / "absent.json"),
                 "--data", str(pipeline["test"]), "--knn-weight", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_datastore_exits_2(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOTDS1" + pipeline["store"].read_bytes()[6:])
    assert main(["predict", "--model", str(pipeline["model"]),
                 "--datastore", str(bad),
                 "--data", str(pipeline["test"])]) == 2
    assert "error:" in capsys.readouterr().err


def test_truncated_model_file_exits_2(pipeline, tmp_path, capsys):
    text = pipeline["model"].read_text()
    clipped = tmp_path / "clipped.json"
    clipped.write_text(text[: len(text) // 2])
    assert main(["predict", "--model", str(clipped),
                 "--data", str(pipeline["test"]), "--knn-weight", "0"]) == 2
    assert "error:" in capsys.readouterr().err


# predict, evaluate and sweep report a missing store with one line.
NO_DATASTORE = "error: a datastore is required when knn_weight > 0\n"


def test_predict_positive_weight_without_datastore_exits_2(pipeline, capsys):
    assert main(["predict", "--model", str(pipeline["model"]),
                 "--data", str(pipeline["test"]), "--knn-weight", "0.5"]) == 2
    assert capsys.readouterr().err == NO_DATASTORE


def test_evaluate_positive_weight_without_datastore_exits_2(pipeline, capsys):
    assert main(["evaluate", "--model", str(pipeline["model"]),
                 "--data", str(pipeline["test"]), "--knn-weight", "0.5"]) == 2
    assert capsys.readouterr().err == NO_DATASTORE


def test_sweep_positive_weights_without_datastore_exits_2(pipeline, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(pipeline["cfg"]),
                 "--model", str(pipeline["model"]),
                 "--data", str(pipeline["test"]), "--out", str(out)]) == 2
    assert capsys.readouterr().err == NO_DATASTORE
    assert not out.exists()


def test_diverging_training_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(19)
    tokens = rng.normal(size=(12, 4))
    data_path = tmp_path / "clash.jsonl"
    data_path.write_text("\n".join(
        json.dumps({"label": label, "features": row.tolist()})
        for label in (0, 1)
        for row in tokens
    ) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "data": {"train": str(data_path)},
        "model": {"hidden_dim": 6, "emb_dim": 5},
        "hyper": {"epochs": 10, "batch_size": 8, "learning_rate": 1e25,
                  "triplet_weight": 0.5, "seed": 0},
    }))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 2
    assert "non-finite" in capsys.readouterr().err
