import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnblend import NonFiniteDistanceError, evaluate, retrieval
from knnblend.data import Dataset
from knnblend.datastore import Datastore, RetrievalUnavailableError
from knnblend.evaluate import (
    CSV_HEADER,
    EvalReport,
    EvalRow,
    SweepSpec,
    _row,
    evaluate_config,
    run_sweep,
    write_report_csv,
)
from knnblend.model import POOLING_MODES, Model, ModelConfig
from knnblend.retrieval import RetrievalParams, build_datastore, predict_batch

from helpers import dataset_of


def toy_setup(n=12, num_labels=3, seed=90):
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(input_dim=4, hidden_dim=6, emb_dim=5, num_labels=num_labels)
    model = Model.initialize(cfg, 7)
    dataset = Dataset(rng.normal(size=(n, 4)) * 2, np.ones(n), np.arange(n) % num_labels,
                      num_labels, 4)
    return model, dataset, build_datastore(model, dataset)


# ---------------------------------------------------------------------------
# the grid itself


def test_sweep_spec_default_has_27_cells():
    assert len(SweepSpec()) == 27


def test_sweep_spec_coerces_to_typed_tuples():
    spec = SweepSpec(
        k_values=[np.int64(2), 5],
        temperature_values=[1, 2.5],
        knn_weight_values=(np.float64(0.25),),
    )
    assert spec.k_values == (2, 5)
    assert all(type(k) is int for k in spec.k_values)
    assert spec.temperature_values == (1.0, 2.5)
    assert all(type(t) is float for t in spec.temperature_values)
    assert spec.knn_weight_values == (0.25,)
    assert len(spec) == 4


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(k_values=())
    with pytest.raises(ValueError):
        SweepSpec(k_values=(0,))
    with pytest.raises(ValueError):
        SweepSpec(temperature_values=(0.0,))
    with pytest.raises(ValueError):
        SweepSpec(knn_weight_values=(1.5,))
    with pytest.raises(ValueError, match="^sweep k must be a list, got 18$"):
        SweepSpec(k_values=18)


# ---------------------------------------------------------------------------
# sweeping


def test_run_sweep_emits_the_grid_in_order():
    model, dataset, store = toy_setup()
    spec = SweepSpec(k_values=(1, 3), temperature_values=(1.0, 10.0),
                     knn_weight_values=(0.0, 0.5, 1.0))
    report = run_sweep(model, store, dataset, spec)
    expected_cells = [
        (k, t, w)
        for k in spec.k_values
        for t in spec.temperature_values
        for w in spec.knn_weight_values
    ]
    assert [(row.k, row.temperature, row.knn_weight) for row in report.rows] == expected_cells
    assert report.wall_ms >= 0.0
    for row in report.rows:
        assert row.n_total == len(dataset)
        assert 0.0 <= row.accuracy <= 1.0
        assert row.accuracy == row.n_correct / row.n_total


def test_run_sweep_rows_match_per_config_evaluation_exactly():
    # The sweep reuses one sorted hit list per query across every k; totally
    # ordered hits make that indistinguishable from evaluating each cell on
    # its own, including a k larger than the store. `predict_batch` composes
    # each cell's vote and blend outside the sweep's loop.
    model, dataset, store = toy_setup()
    spec = SweepSpec(k_values=(1, 4, 100), temperature_values=(0.5, 10.0),
                     knn_weight_values=(0.0, 0.3, 1.0))
    report = run_sweep(model, store, dataset, spec)
    assert len(report.rows) == len(spec)
    gold = dataset.labels()
    for row in report.rows:
        params = RetrievalParams(k=row.k, temperature=row.temperature,
                                 knn_weight=row.knn_weight)
        single = evaluate_config(model, store, dataset, params)
        assert row == single
        labels = predict_batch(model, store, dataset, params).labels
        assert row.n_correct == np.count_nonzero(labels == gold)


@pytest.mark.parametrize("pooling", POOLING_MODES)
def test_run_sweep_cells_match_predict_batch_bit_for_bit(pooling, monkeypatch):
    # Mixed token counts take the pooling step's grouped path; each cell's
    # blended distributions and labels must be those `predict_batch` gives
    # for the same dataset, bit for bit.
    rng = np.random.default_rng(93)
    token_counts = np.array([1, 3, 2, 3, 1, 1, 2, 4, 3, 1], dtype=np.int64)
    dataset = Dataset(rng.normal(size=(int(token_counts.sum()), 4)) * 2, token_counts,
                      np.arange(10) % 3, 3, 4)
    cfg = ModelConfig(input_dim=4, hidden_dim=6, emb_dim=5, num_labels=3, pooling=pooling)
    model = Model.initialize(cfg, 93)
    store = build_datastore(model, dataset)
    # Each blended cell's distributions are the last `interpolate_batch`
    # before its `_row`; a weight-0 cell blends nothing and keeps only labels.
    blends, pending, labels = {}, [], {}
    monkeypatch.setattr(evaluate, "interpolate_batch",
                        lambda *args: pending.append(retrieval.interpolate_batch(*args))
                        or pending[-1])

    def recording_row(k, t, w, predicted, gold):
        blends[k, t, w], labels[k, t, w] = pending.pop() if w > 0.0 else None, predicted
        return _row(k, t, w, predicted, gold)

    monkeypatch.setattr(evaluate, "_row", recording_row)
    spec = SweepSpec(k_values=(1, 4, 100), temperature_values=(0.5, 10.0),
                     knn_weight_values=(0.0, 0.3, 1.0))
    report = run_sweep(model, store, dataset, spec)
    cells = [(row.k, row.temperature, row.knn_weight) for row in report.rows]
    assert sorted(blends) == sorted(labels) == sorted(cells) and len(cells) == len(spec)
    assert pending == []
    for row, cell in zip(report.rows, cells):
        batch = predict_batch(model, store, dataset, RetrievalParams(*cell))
        if blends[cell] is not None:
            assert blends[cell].tobytes() == batch.probs.tobytes()
        assert labels[cell].tobytes() == batch.labels.tobytes()
        assert row.n_correct == np.count_nonzero(batch.labels == dataset.labels())


def test_run_sweep_weighs_once_per_temperature_and_tallies_once_per_cell(monkeypatch):
    # One `_weights` per temperature over the largest k's hits, one `_tally`
    # per (k, temperature) over its prefix, in temperature-major order;
    # either kernel is counted wherever it is reached.
    calls = []

    def counting(name, kernel):
        def wrapper(*args):
            calls.append((name, args[0].shape[1], args[1] if name == "_weights" else None))
            return kernel(*args)
        return wrapper

    for name in ("_weights", "_tally"):
        counter = counting(name, getattr(retrieval, name))
        monkeypatch.setattr(retrieval, name, counter)
        monkeypatch.setattr(evaluate, name, counter)
    model, dataset, store = toy_setup()
    spec = SweepSpec(k_values=(4, 1, 100, 4), temperature_values=(10.0, 0.5, 30.0),
                     knn_weight_values=(0.0, 0.3, 1.0))
    run_sweep(model, store, dataset, spec)
    expected = []
    for t in spec.temperature_values:
        expected.append(("_weights", store.count, t))
        expected.extend(("_tally", min(k, store.count), None) for k in spec.k_values)
    assert calls == expected
    calls.clear()
    run_sweep(model, store, dataset, SweepSpec(knn_weight_values=(0.0,)))
    assert calls == []


def test_run_sweep_blends_only_the_cells_with_a_positive_weight(monkeypatch):
    # Every weight-0 cell is the classifier's argmax, taken once per sweep;
    # only the other cells call the blend.
    calls = []
    monkeypatch.setattr(evaluate, "interpolate_batch",
                        lambda *args: calls.append(args[2]) or retrieval.interpolate_batch(*args))
    model, dataset, store = toy_setup()
    for weights in ((0.0, 0.3, 1.0, 0.0), (0.0,), (0.5,)):
        spec = SweepSpec(k_values=(4, 1, 100), temperature_values=(10.0, 0.5),
                         knn_weight_values=weights)
        calls.clear()
        report = run_sweep(model, store, dataset, spec)
        assert len(calls) == sum(row.knn_weight > 0.0 for row in report.rows)
        assert all(weight > 0.0 for weight in calls)


@settings(max_examples=40, deadline=None)
@given(
    k_values=st.lists(st.sampled_from([1, 2, 5, 12, 13, 40]), min_size=1, max_size=4),
    temperature_values=st.lists(
        st.sampled_from([1e-320, 3e-311, 1e-310, 1e-300, 0.05, 1.0, 30.0])
        | st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=3),
    knn_weight_values=st.lists(st.sampled_from([0.0, 0.3, 1.0])
                               | st.floats(min_value=0.0, max_value=1.0),
                               min_size=1, max_size=3),
)
@example(k_values=[13, 1, 13], temperature_values=[30.0, 3e-311, 1e-320],
         knn_weight_values=[0.0, 0.5])
@example(k_values=[40, 2], temperature_values=[1e-310, 1.0, 1e-310], knn_weight_values=[1.0])
def test_run_sweep_rows_equal_each_cell_scored_alone(k_values, temperature_values,
                                                     knn_weight_values):
    # Unsorted and repeated grid values, k past the store's 12 keys, and tiny
    # temperatures: below the queries' nearest distances (0.001 to 0.015) over
    # 1.8e308, some or every row's scaled distances all overflow and the vote
    # refuses; at 1e-310 only the far hits' overflow, to zero weight. A sweep
    # that refuses its grid names the temperature of the first k-major cell
    # that refuses alone; otherwise each row is its cell's.
    model, _, store = toy_setup()
    queries = toy_setup(n=9, seed=94)[1]
    spec = SweepSpec(k_values, temperature_values, knn_weight_values)
    cells = [RetrievalParams(k, t, w)
             for k in spec.k_values for t in spec.temperature_values
             for w in spec.knn_weight_values]
    refusals = []
    for params in cells:
        try:
            evaluate_config(model, store, queries, params)
        except NonFiniteDistanceError as error:
            refusals.append(str(error))
    if refusals:
        with pytest.raises(NonFiniteDistanceError) as refused:
            run_sweep(model, store, queries, spec)
        assert str(refused.value) == refusals[0]
        return
    report = run_sweep(model, store, queries, spec)
    assert len(report.rows) == len(cells)
    for row, params in zip(report.rows, cells):
        assert row == evaluate_config(model, store, queries, params)
        labels = predict_batch(model, store, queries, params).labels
        assert row.n_correct == np.count_nonzero(labels == queries.labels())


def test_run_sweep_classifier_only_grid_needs_no_store():
    model, dataset, store = toy_setup()
    spec = SweepSpec(k_values=(1,), temperature_values=(1.0,),
                     knn_weight_values=(0.0,))
    without = run_sweep(model, None, dataset, spec)
    with_store = run_sweep(model, store, dataset, spec)
    assert without.rows == with_store.rows


def test_run_sweep_requires_a_store_for_positive_weights():
    model, dataset, _ = toy_setup()
    with pytest.raises(RetrievalUnavailableError):
        run_sweep(model, None, dataset, SweepSpec())


@pytest.mark.parametrize("entry", ["predict_batch", "evaluate_config", "run_sweep"])
def test_a_missing_store_is_one_error_raised_before_encoding(entry, monkeypatch):
    # An empty store is as good as none: both are reported before any encode.
    model, dataset, _ = toy_setup()
    other_store = toy_setup(num_labels=2, seed=91)[2]

    def score(store):
        params = RetrievalParams(k=4, temperature=1.0, knn_weight=0.5)
        if entry == "predict_batch":
            return predict_batch(model, store, dataset, params)
        if entry == "evaluate_config":
            return evaluate_config(model, store, dataset, params)
        return run_sweep(model, store, dataset, SweepSpec())

    def no_encode(self, x_batch):
        raise AssertionError("encoded a batch that cannot be scored")

    monkeypatch.setattr(Model, "features", no_encode)
    with pytest.raises(RetrievalUnavailableError) as missing:
        score(None)
    assert type(missing.value) is RetrievalUnavailableError
    assert str(missing.value) == "a datastore is required when knn_weight > 0"
    with pytest.raises(RetrievalUnavailableError, match="^cannot search an empty datastore$"):
        score(Datastore(np.empty((0, model.config.key_dim)), [], model.config.num_labels))
    with pytest.raises(ValueError, match="labels but the model has"):
        score(other_store)


def test_run_sweep_rejects_label_count_mismatch():
    model, dataset, _ = toy_setup()
    other_model, other_dataset, other_store = toy_setup(num_labels=2, seed=91)
    with pytest.raises(ValueError):
        run_sweep(model, other_store, dataset, SweepSpec())


def test_scoring_refuses_gold_labels_past_the_model():
    # The classifier of a 2-label model never predicts labels 2 and 3, so an
    # accuracy over them would be a silent undercount.
    model = toy_setup(num_labels=2)[0]
    dataset = Dataset(np.zeros((6, 4)), np.ones(6), [0, 1, 2, 3, 2, 3], 4, 4)
    message = "^example 2 label 2 out of range for 2 labels$"
    with pytest.raises(ValueError, match=message):
        evaluate_config(model, None, dataset, RetrievalParams(knn_weight=0.0))
    with pytest.raises(ValueError, match=message):
        run_sweep(model, None, dataset, SweepSpec(knn_weight_values=(0.0,)))


def test_run_sweep_rejects_empty_examples():
    model, _, store = toy_setup()
    empty = dataset_of([], [], num_labels=3, input_dim=4)
    with pytest.raises(ValueError, match="zero examples"):
        run_sweep(model, store, empty, SweepSpec())
    with pytest.raises(ValueError, match="zero examples"):
        evaluate_config(model, store, empty, RetrievalParams())


def test_report_best_takes_highest_accuracy_earliest_tie():
    def row(k, acc):
        return EvalRow(k=k, temperature=1.0, knn_weight=0.5,
                       accuracy=acc, n_correct=int(acc * 10), n_total=10)

    report = EvalReport(rows=(row(1, 0.5), row(2, 0.9), row(3, 0.9)), wall_ms=0.0)
    assert report.best.k == 2
    assert report.accuracy == 0.9
    tie = EvalReport(rows=(row(1, 0.7), row(2, 0.7)), wall_ms=0.0)
    assert tie.best.k == 1


def test_report_never_worse_than_classifier_alone():
    model, dataset, store = toy_setup()
    report = run_sweep(model, store, dataset, SweepSpec())
    for row in report.rows:
        if row.knn_weight == 0.0:
            assert report.best.accuracy >= row.accuracy


# ---------------------------------------------------------------------------
# CSV output


def test_csv_line_round_trips_floats():
    row = EvalRow(k=8, temperature=10.0, knn_weight=0.2,
                  accuracy=11 / 12, n_correct=11, n_total=12)
    parts = row.csv_line().split(",")
    assert parts[0] == "8"
    assert float(parts[1]) == 10.0
    assert float(parts[2]) == 0.2
    assert float(parts[3]) == 11 / 12
    assert parts[4] == "11" and parts[5] == "12"


def test_write_report_csv_layout(tmp_path):
    model, dataset, store = toy_setup()
    spec = SweepSpec(k_values=(1, 2), temperature_values=(1.0,),
                     knn_weight_values=(0.0, 1.0))
    report = run_sweep(model, store, dataset, spec)
    path = tmp_path / "sweep.csv"
    write_report_csv(report.rows, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(report.rows)
    assert text.endswith("\n")
    for line, row in zip(lines[1:], report.rows):
        assert line == row.csv_line()


def test_write_report_csv_is_byte_deterministic(tmp_path):
    model, dataset, store = toy_setup()
    report_a = run_sweep(model, store, dataset, SweepSpec())
    report_b = run_sweep(model, store, dataset, SweepSpec())
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_report_csv(report_a.rows, path_a)
    write_report_csv(report_b.rows, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
