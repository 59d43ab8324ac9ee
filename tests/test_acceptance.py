"""End-to-end acceptance battery.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (visible with ``-s`` or
in captured output) and enforces its stated tolerances and time budgets.
"""

import json
import time
from contextlib import contextmanager, redirect_stdout
from io import StringIO

import numpy as np
import pytest

from knnblend.cli import main
from knnblend.data import Dataset, SyntheticSpec, generate_synthetic
from knnblend.datastore import (
    BadMagicError,
    Datastore,
    NeighborHit,
    TruncatedFileError,
)
from knnblend.evaluate import SweepSpec, evaluate_config, run_sweep
from knnblend.model import Model, ModelConfig, ModelFormatError, ModelLoadError
from knnblend.retrieval import (
    RetrievalParams,
    build_datastore,
    interpolate,
    knn_distribution,
)
from knnblend.training import Hyperparams, grad_check, train

from helpers import full_sort_hits, random_distribution


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL — {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS — {description}")


@pytest.fixture(scope="module")
def experiment():
    """The default synthetic experiment, trained once and shared read-only."""
    started = time.perf_counter()
    train_ds, test_ds = generate_synthetic(SyntheticSpec())
    config = ModelConfig(input_dim=16, hidden_dim=32, emb_dim=32, num_labels=4)
    model, log = train(train_ds.examples, Hyperparams(seed=7), config)
    store = build_datastore(model, train_ds)
    elapsed_s = time.perf_counter() - started
    return {
        "train": train_ds,
        "test": test_ds,
        "model": model,
        "store": store,
        "log": log,
        "elapsed_s": elapsed_s,
    }


def test_criterion_1_search_matches_brute_force():
    with criterion(1, "exact top-k search equals a full sort on random stores"):
        rng = np.random.default_rng(101)
        started = time.perf_counter()
        for _ in range(100):
            count = int(rng.integers(1, 2001))
            dim = int(rng.integers(1, 65))
            num_labels = int(rng.integers(2, 7))
            keys = rng.normal(size=(count, dim)) * float(rng.uniform(0.5, 20.0))
            if count >= 4 and rng.random() < 0.5:
                # plant exact duplicates so tie-breaking is exercised
                dupes = rng.integers(count, size=count // 4)
                keys[dupes] = keys[int(dupes[0])]
            labels = rng.integers(num_labels, size=count)
            store = Datastore(keys=keys, labels=labels, num_labels=num_labels)
            query = rng.normal(size=dim) * float(rng.uniform(0.5, 20.0))
            k = int(rng.integers(1, count + 6))
            hits = store.search(query, k)
            expected = full_sort_hits(store, query, k)
            assert [(h.distance, h.index) for h in hits] == expected
            for h in hits:
                assert h.label == int(store.labels[h.index])
        assert time.perf_counter() - started < 30.0


def test_criterion_2_neighbor_distributions_are_normalized():
    with criterion(2, "neighbor-vote distributions normalize and localize"):
        rng = np.random.default_rng(102)
        for _ in range(1000):
            n = int(rng.integers(1, 21))
            num_labels = int(rng.integers(2, 7))
            hits = [
                NeighborHit(index=i, distance=float(d), label=int(lab))
                for i, (d, lab) in enumerate(
                    zip(rng.uniform(0.0, 100.0, size=n), rng.integers(num_labels, size=n))
                )
            ]
            temperature = float(10.0 ** rng.uniform(-2, 3))
            probs = knn_distribution(hits, temperature, num_labels)
            assert abs(probs.sum() - 1.0) <= 1e-9
        probs = knn_distribution(
            [NeighborHit(0, 1.0, 0), NeighborHit(1, 2.0, 1)], 10.0, 2
        )
        np.testing.assert_allclose(probs, [0.52498, 0.47502], atol=1e-5)
        for _ in range(300):
            label = int(rng.integers(5))
            single = knn_distribution(
                [NeighborHit(0, float(rng.uniform(0, 50)), label)], 3.0, 5
            )
            expected = np.zeros(5)
            expected[label] = 1.0
            np.testing.assert_array_equal(single, expected)


def test_criterion_3_blend_endpoints_are_exact_copies():
    with criterion(3, "blend weights 0 and 1 reproduce their input bit-for-bit"):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            length = int(rng.integers(2, 9))
            p_knn = random_distribution(rng, length)
            p_cls = random_distribution(rng, length)
            np.testing.assert_array_equal(interpolate(p_knn, p_cls, 0.0), p_cls)
            np.testing.assert_array_equal(interpolate(p_knn, p_cls, 1.0), p_knn)


def test_criterion_4_analytic_gradients_match_finite_differences():
    with criterion(4, "analytic gradients agree with central differences"):
        started = time.perf_counter()
        rng = np.random.default_rng(104)
        batch = Dataset(rng.normal(size=(8, 16)), np.ones(8), np.arange(8) % 4, 4, 16).examples
        for decouple in (True, False):
            config = ModelConfig(
                input_dim=16, hidden_dim=32, emb_dim=32, num_labels=4,
                decouple_enabled=decouple,
            )
            for weight in (0.0, 0.3, 0.5, 1.0):
                model = Model.initialize(config, np.random.default_rng(11))
                report = grad_check(
                    model, batch, Hyperparams(triplet_weight=weight, seed=11), step=1e-5,
                )
                assert report.finite, (decouple, weight, report)
                assert report.passed, (decouple, weight, report)
        assert time.perf_counter() - started < 60.0


def test_criterion_5_trained_blend_classifies_held_out_clusters(experiment):
    with criterion(5, "trained model reaches 0.95 held-out accuracy at all blend settings"):
        model = experiment["model"]
        store = experiment["store"]
        test_examples = experiment["test"].examples
        for weight in (0.0, 1.0, 0.2):
            row = evaluate_config(
                model, store, experiment["test"],
                RetrievalParams(k=64, temperature=10.0, knn_weight=weight),
            )
            assert row.accuracy >= 0.95, (weight, row)

        reps = np.stack([model.encode(ex.tokens)[1] for ex in test_examples])
        labels = np.array([ex.label for ex in test_examples])
        diffs = reps[:, None, :] - reps[None, :, :]
        d2 = np.sum(diffs * diffs, axis=-1)
        same = labels[:, None] == labels[None, :]
        off_diag = ~np.eye(len(labels), dtype=bool)
        intra = float(d2[same & off_diag].mean())
        inter = float(d2[~same].mean())
        assert intra < inter, (intra, inter)
        assert experiment["elapsed_s"] < 120.0


def test_retrieval_alone_beats_chance_on_hard_clusters():
    # Every configuration scores 1.0 on the default clusters, so a broken
    # retrieval side only shows on overlapping ones. On this spec seeds 7, 11
    # and 1009 score 0.48-0.59, and 0.11-0.19 with the store's labels permuted.
    train_ds, test_ds = generate_synthetic(SyntheticSpec(
        num_classes=8, dim=16, per_class_count=100, class_separation=2.5,
        noise_sigma=1.5, seed=7,
    ))
    config = ModelConfig(input_dim=16, hidden_dim=32, emb_dim=32, num_labels=8)
    model, _ = train(train_ds.examples, Hyperparams(epochs=20, seed=7), config)
    row = evaluate_config(
        model, build_datastore(model, train_ds), test_ds,
        RetrievalParams(k=64, temperature=10.0, knn_weight=1.0),
    )
    assert row.accuracy > 0.25, row  # twice chance for 8 classes


def test_triplet_training_moves_the_retrieval_head_on_hard_clusters():
    # Retrieval accuracy alone cannot show an untrained head: with the
    # decouple MLP frozen at its initial weights, kNN-only accuracy on this
    # spec still read 0.51-0.56. dec_b2 is left out: the triplet hinge sees
    # only differences of retrieval vectors, so its gradient is zero up to
    # rounding.
    train_ds, _ = generate_synthetic(SyntheticSpec(
        num_classes=8, dim=16, per_class_count=100, class_separation=2.5,
        noise_sigma=1.5, seed=7,
    ))
    config = ModelConfig(input_dim=16, hidden_dim=32, emb_dim=32, num_labels=8)
    assert config.decouple_enabled and config.triplet_enabled
    model, log = train(train_ds.examples, Hyperparams(epochs=20, seed=7), config)
    initial = Model.initialize(config, np.random.default_rng(7)).parameters()
    trained = model.parameters()
    for name in ("dec_w1", "dec_b1", "dec_w2"):
        assert np.all(trained[name] != initial[name]), name
    assert log[-1].mean_triplet < log[0].mean_triplet, (log[0], log[-1])


def test_criterion_6_sweep_grid_is_exact(experiment):
    with criterion(6, "27-cell sweep matches per-cell evaluation and its best row dominates"):
        model = experiment["model"]
        store = experiment["store"]
        test_ds = experiment["test"]
        sweep = SweepSpec(
            k_values=(1, 8, 64),
            temperature_values=(1.0, 10.0, 100.0),
            knn_weight_values=(0.0, 0.5, 1.0),
        )
        report = run_sweep(model, store, test_ds, sweep)
        assert len(report.rows) == 27
        for row in report.rows:
            params = RetrievalParams(
                k=row.k, temperature=row.temperature, knn_weight=row.knn_weight
            )
            assert row == evaluate_config(model, store, test_ds, params)
        for row in report.rows:
            if row.knn_weight == 0.0:
                assert report.best.accuracy >= row.accuracy


def test_criterion_7_artifacts_round_trip_and_reject_corruption(experiment, tmp_path):
    with criterion(7, "model and datastore files round-trip and fail loudly when damaged"):
        store = experiment["store"]
        model = experiment["model"]

        store_path = tmp_path / "store.bin"
        store.save(store_path)
        assert Datastore.load(store_path) == store
        model_path = tmp_path / "model.json"
        model.save(model_path)
        loaded = Model.load(model_path)
        assert loaded.config == model.config
        for name, arr in model.parameters().items():
            np.testing.assert_array_equal(loaded.parameters()[name], arr)

        rng = np.random.default_rng(107)
        store_bytes = store_path.read_bytes()
        for i in range(10):
            bad = bytearray(store_bytes)
            bad[:6] = bytes(rng.integers(64, 127, size=6))
            target = tmp_path / f"badmagic{i}.bin"
            target.write_bytes(bytes(bad))
            with pytest.raises(BadMagicError):
                Datastore.load(target)
        for i in range(10):
            cut = int(rng.integers(0, len(store_bytes)))
            target = tmp_path / f"cut{i}.bin"
            target.write_bytes(store_bytes[:cut])
            with pytest.raises(TruncatedFileError):
                Datastore.load(target)

        model_text = model_path.read_text()
        for i in range(10):
            doc = json.loads(model_text)
            doc["format"] = f"mystery-{i}"
            target = tmp_path / f"badformat{i}.json"
            target.write_text(json.dumps(doc))
            with pytest.raises(ModelFormatError):
                Model.load(target)
        for i in range(10):
            cut = int(rng.integers(1, len(model_text)))
            target = tmp_path / f"clip{i}.json"
            target.write_text(model_text[:cut])
            with pytest.raises(ModelLoadError):
                Model.load(target)


def _run_pipeline(root):
    root.mkdir()
    gen_cfg = root / "gen.json"
    gen_cfg.write_text(json.dumps({
        "data": {"synthetic": {"num_classes": 3, "dim": 8, "per_class_count": 25,
                               "seed": 11}},
    }))
    run_cfg = root / "run.json"
    run_cfg.write_text(json.dumps({
        "data": {"train": str(root / "train.jsonl"), "test": str(root / "test.jsonl")},
        "model": {"hidden_dim": 16, "emb_dim": 16},
        "hyper": {"epochs": 5, "batch_size": 16, "seed": 11},
        "sweep": {"k": [1, 8, 64], "temperature": [1.0, 10.0, 100.0],
                  "knn_weight": [0.0, 0.5, 1.0]},
    }))
    with redirect_stdout(StringIO()):
        assert main(["gen-data", "--config", str(gen_cfg),
                     "--out-train", str(root / "train.jsonl"),
                     "--out-test", str(root / "test.jsonl")]) == 0
        assert main(["train", "--config", str(run_cfg),
                     "--out", str(root / "model.json")]) == 0
        assert main(["build-datastore", "--model", str(root / "model.json"),
                     "--data", str(root / "train.jsonl"),
                     "--out", str(root / "store.bin")]) == 0
        assert main(["sweep", "--config", str(run_cfg),
                     "--model", str(root / "model.json"),
                     "--datastore", str(root / "store.bin"),
                     "--data", str(root / "test.jsonl"),
                     "--out", str(root / "sweep.csv")]) == 0
    return {
        name: (root / name).read_bytes()
        for name in ("train.jsonl", "test.jsonl", "model.json", "store.bin", "sweep.csv")
    }


def test_criterion_8_identical_seeds_give_identical_reports(tmp_path):
    with criterion(8, "two seeded pipeline runs produce byte-identical artifacts"):
        first = _run_pipeline(tmp_path / "a")
        second = _run_pipeline(tmp_path / "b")
        assert first["sweep.csv"] == second["sweep.csv"]
        for name in ("train.jsonl", "test.jsonl", "model.json", "store.bin"):
            assert first[name] == second[name], name
