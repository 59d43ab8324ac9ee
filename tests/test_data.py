import copy
import json
import pickle
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnblend.data import (
    Dataset,
    DatasetFormatError,
    SyntheticSpec,
    TrainExample,
    generate_synthetic,
    load_jsonl,
    write_jsonl,
)
from knnblend.model import POOLING_MODES, Model, ModelConfig
from knnblend.retrieval import build_datastore

from helpers import (dataset_of, nearest_centroid_accuracy, per_example_jsonl,
                     per_record_load_jsonl, per_row_synthetic, spy_on_examples)


def write_lines(tmp_path, *lines, name="data.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# loading


def test_load_flat_feature_records(tmp_path):
    path = write_lines(
        tmp_path,
        '{"label": 0, "features": [1.0, 2.0]}',
        '{"label": 1, "features": [3.0, 4.0]}',
        '{"label": 0, "features": [5.0, 6.0]}',
    )
    ds = load_jsonl(path)
    assert len(ds) == 3
    assert ds.num_labels == 2
    assert ds.input_dim == 2
    assert ds.label_names is None
    assert [ex.id for ex in ds.examples] == [0, 1, 2]
    np.testing.assert_array_equal(ds.labels(), [0, 1, 0])
    np.testing.assert_array_equal(ds.examples[1].tokens, [[3.0, 4.0]])


def test_load_label_count_comes_from_max_label(tmp_path):
    path = write_lines(
        tmp_path,
        '{"label": 0, "features": [1.0]}',
        '{"label": 3, "features": [2.0]}',
    )
    assert load_jsonl(path).num_labels == 4


def test_load_header_with_string_labels(tmp_path):
    path = write_lines(
        tmp_path,
        '{"label_names": ["ham", "spam"]}',
        '{"label": "spam", "features": [1.0, 0.0]}',
        '{"label": "ham", "features": [0.0, 1.0]}',
    )
    ds = load_jsonl(path)
    assert ds.label_names == ["ham", "spam"]
    assert ds.num_labels == 2
    np.testing.assert_array_equal(ds.labels(), [1, 0])


def test_load_token_matrix_records(tmp_path):
    path = write_lines(
        tmp_path,
        '{"label": 0, "tokens": [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]}',
        '{"label": 1, "tokens": [[0.0, 0.0]]}',
    )
    ds = load_jsonl(path)
    assert ds.examples[0].tokens.shape == (3, 2)
    assert ds.examples[1].tokens.shape == (1, 2)
    assert ds.input_dim == 2


def test_load_skips_blank_lines(tmp_path):
    path = write_lines(
        tmp_path,
        "",
        '{"label": 0, "features": [1.0]}',
        "   ",
        '{"label": 1, "features": [2.0]}',
        "",
    )
    ds = load_jsonl(path)
    assert len(ds) == 2
    assert [ex.id for ex in ds.examples] == [0, 1]


def test_load_mixed_integer_and_name_labels(tmp_path):
    path = write_lines(
        tmp_path,
        '{"label_names": ["a", "b", "c"]}',
        '{"label": "c", "features": [1.0]}',
        '{"label": 0, "features": [2.0]}',
    )
    np.testing.assert_array_equal(load_jsonl(path).labels(), [2, 0])


# ---------------------------------------------------------------------------
# loading errors


def test_load_reports_dimension_mismatch_with_both_lines(tmp_path):
    path = write_lines(
        tmp_path,
        '{"label": 0, "features": [1.0, 2.0]}',
        '{"label": 0, "features": [3.0, 4.0]}',
        '{"label": 1, "features": [5.0, 6.0, 7.0]}',
    )
    with pytest.raises(DatasetFormatError, match=r"line 3.*line 1"):
        load_jsonl(path)


def test_load_reports_invalid_json_with_line(tmp_path):
    path = write_lines(
        tmp_path,
        '{"label": 0, "features": [1.0]}',
        '{"label": 0, "features": [1.0',
    )
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_jsonl(path)


def test_load_rejects_unknown_label_name(tmp_path):
    path = write_lines(
        tmp_path,
        '{"label_names": ["a", "b"]}',
        '{"label": "z", "features": [1.0]}',
    )
    with pytest.raises(DatasetFormatError, match="line 2.*'z'"):
        load_jsonl(path)


def test_load_rejects_string_label_without_header(tmp_path):
    path = write_lines(tmp_path, '{"label": "spam", "features": [1.0]}')
    with pytest.raises(DatasetFormatError, match="label_names"):
        load_jsonl(path)


def test_load_rejects_bad_label_types(tmp_path):
    for label in ("true", "1.5", "-1", "null"):
        path = write_lines(tmp_path, f'{{"label": {label}, "features": [1.0]}}')
        with pytest.raises(DatasetFormatError):
            load_jsonl(path)


def test_load_rejects_missing_or_duplicate_payload(tmp_path):
    path = write_lines(tmp_path, '{"label": 0}')
    with pytest.raises(DatasetFormatError, match="exactly one"):
        load_jsonl(path)
    path = write_lines(
        tmp_path, '{"label": 0, "features": [1.0], "tokens": [[1.0]]}'
    )
    with pytest.raises(DatasetFormatError, match="exactly one"):
        load_jsonl(path)


def test_load_rejects_malformed_payloads(tmp_path):
    cases = [
        '{"label": 0, "features": []}',
        '{"label": 0, "features": [[1.0]]}',
        '{"label": 0, "features": ["x"]}',
        '{"label": 0, "features": [1.0, Infinity]}',
        '{"label": 0, "tokens": [1.0, 2.0]}',
        '{"label": 0, "tokens": [[1.0], [2.0, 3.0]]}',
        '[1, 2]',
    ]
    for line in cases:
        path = write_lines(tmp_path, line)
        with pytest.raises(DatasetFormatError):
            load_jsonl(path)


@pytest.mark.parametrize("payload", [
    pytest.param('"features": ["x"]', id="non-numeric"),
    pytest.param('"features": [{}]', id="non-numeric-object"),
    pytest.param('"features": []', id="empty-features"),
    pytest.param('"features": [[1.0]]', id="2-d-features"),
    pytest.param('"tokens": [1.0, 2.0]', id="1-d-tokens"),
    pytest.param('"tokens": [[1.0], [2.0, 3.0]]', id="ragged-tokens"),
    pytest.param('"features": [1.0, Infinity]', id="non-finite"),
    pytest.param('"features": [Infinity]', id="non-finite-common-record"),
])
def test_token_rule_violation_names_its_line_and_cause(tmp_path, payload):
    path = write_lines(tmp_path, '{"label": 0, "features": [1.0]}', '{"label": 0, %s}' % payload)
    with pytest.raises(DatasetFormatError, match="^line 2: ") as info:
        load_jsonl(path)
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("value, shown", [('"1.5"', '"1.5"'), ("null", "null")],
                         ids=["string", "null"])
def test_a_string_or_null_token_value_names_its_line(tmp_path, value, shown):
    # numpy would read "1.5" as 1.5, and null as NaN ("non-finite").
    path = write_lines(tmp_path, '{"label": 0, "features": [1.0, 2.0]}',
                       '{"label": 0, "features": [%s, 2.0]}' % value)
    with pytest.raises(DatasetFormatError,
                       match=f"^line 2: token values must be numbers, got {shown}$") as info:
        load_jsonl(path)
    assert isinstance(info.value.__cause__, ValueError)


def test_the_first_faulty_line_is_reported_whatever_the_fault(tmp_path):
    # Finiteness is checked over the whole matrix once, yet a non-finite
    # token still comes before a later line's fault of any other kind.
    good = '{"label": 0, "features": [1.0, 2.0]}'
    for late in ('{"label": 0, "features": [1.0', '{"label": 0, "features": [1.0]}',
                 '{"label": 0, "features": ["x", 1.0]}', '{"label": -1, "features": [1.0, 2.0]}',
                 '{"label": 0, "features": [1.0, NaN]}', good):
        path = write_lines(tmp_path, good, '{"label": 0, "tokens": [[1.0, 2.0], [Infinity, 0.0]]}',
                           good, late)
        with pytest.raises(DatasetFormatError,
                           match="^line 2: tokens contain non-finite entries$") as info:
            load_jsonl(path)
        assert isinstance(info.value.__cause__, ValueError)


def test_load_rejects_empty_input(tmp_path):
    path = write_lines(tmp_path, "")
    with pytest.raises(DatasetFormatError, match="no records"):
        load_jsonl(path)
    path = write_lines(tmp_path, '{"label_names": ["a", "b"]}')
    with pytest.raises(DatasetFormatError, match="no records"):
        load_jsonl(path)


def test_load_rejects_late_or_bad_header(tmp_path):
    path = write_lines(
        tmp_path,
        '{"label": 0, "features": [1.0]}',
        '{"label_names": ["a", "b"]}',
    )
    with pytest.raises(DatasetFormatError, match="line 2"):
        load_jsonl(path)
    path = write_lines(tmp_path, '{"label_names": ["a", "a"]}')
    with pytest.raises(DatasetFormatError, match="distinct"):
        load_jsonl(path)
    path = write_lines(tmp_path, '{"label_names": ["a", "b"]}', '{"label_names": ["c"]}',
                       '{"label": "a", "features": [1.0]}')
    with pytest.raises(DatasetFormatError, match="^line 2: duplicate label_names header$"):
        load_jsonl(path)


def test_load_rejects_integer_label_beyond_declared_names(tmp_path):
    path = write_lines(
        tmp_path,
        '{"label_names": ["a", "b"]}',
        '{"label": 1, "features": [1.0]}',
        '{"label": "a", "features": [1.0]}',
        '{"label": 5, "features": [1.0]}',
    )
    with pytest.raises(DatasetFormatError, match=r"^line 4: label 5 out of range for 2 labels$"):
        load_jsonl(path)


# Kinds of line after the first record: good lines, which may hold
# non-finite values (reported at the end, at their line), and the faults
# each record rule names, at most one a file.
GOOD_LINES = ["common", "common", "tokens", "blank", "padded", "bool-value", "non-finite"]
FAULTS = ["bool-label", "negative-label", "label-2**63", "label-past-names", "string-label",
          "features-and-tokens", "nested-list", "string-value", "null-value",
          "wrong-dimension", "huge-int-value", "not-an-object", "missing-label", "extra-data"]


@st.composite
def jsonl_files(draw):
    """The bytes of a dataset file: an optional label_names header, a good
    first record, then `GOOD_LINES` with at most one of the `FAULTS` among
    them, each line ended by LF or CRLF (the last maybe by neither)."""
    dim = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(GOOD_LINES), max_size=8))
    fault = draw(st.sampled_from([None, *FAULTS]))
    if fault is not None:
        kinds.insert(draw(st.integers(0, len(kinds))), fault)
    names = ["a", "b", "c"] if fault == "label-past-names" or draw(st.booleans()) else None
    value = st.floats(-1e3, 1e3) | st.integers(-5, 5)

    def row(d=dim):
        return draw(st.lists(value, min_size=d, max_size=d))

    def record(features):
        # With a header, most records name their label.
        if names is not None and draw(st.integers(0, 3)) > 0:
            label = draw(st.sampled_from(names))
        else:
            label = draw(st.integers(0, 2 if names else 4))
        if features:
            return {"label": label, "features": row()}
        return {"label": label, "tokens": [row() for _ in range(draw(st.integers(1, 3)))]}

    lines = [] if names is None else [json.dumps({"label_names": names})]
    lines.append(json.dumps(record(draw(st.booleans()))))
    for kind in kinds:
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        # Mostly one-token records, the kind a loader might treat apart.
        rec = record(kind == "common" or (kind != "tokens" and draw(st.integers(0, 3)) > 0))
        values = rec["features"] if "features" in rec else rec["tokens"][-1]
        at = draw(st.integers(0, dim - 1))
        if kind == "bool-label":
            rec["label"] = draw(st.booleans())
        elif kind == "negative-label":
            rec["label"] = -1
        elif kind == "label-2**63":
            rec["label"] = 2**63
        elif kind == "label-past-names":
            rec["label"] = 3
        elif kind == "string-label":
            rec["label"] = "zz"
        elif kind == "features-and-tokens":
            rec["tokens" if "features" in rec else "features"] = [row()]
        elif kind == "nested-list":
            values[at] = [values[at]]
        elif kind == "string-value":
            values[at] = str(values[at])
        elif kind == "null-value":
            values[at] = None
        elif kind == "wrong-dimension":
            values[:] = row(draw(st.sampled_from([d for d in (0, dim - 1, dim + 1) if d != dim])))
        elif kind == "non-finite":
            values[at] = draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
        elif kind == "huge-int-value":
            values[at] = 10**400
        elif kind == "bool-value":
            values[at] = draw(st.booleans())
        elif kind == "not-an-object":
            rec = draw(st.sampled_from([values, None, 3, "text"]))
        elif kind == "missing-label":
            del rec["label"]
        text = json.dumps(rec)
        if kind == "padded":
            text = " " + text + " \t"
        elif kind == "extra-data":  # a value, or space that JSON does not allow
            text += draw(st.sampled_from([" 1", "\x0c", "\u00a0"]))
        lines.append(text)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode("utf-8")


def load_outcome(load, path):
    """What loading `path` gives: the dataset's arrays and fields, or the
    type, message and cause of the ValueError raised."""
    try:
        ds = load(path)
    except ValueError as exc:
        return type(exc).__name__, str(exc), type(exc.__cause__).__name__
    return ("dataset", ds.tokens.shape, ds.tokens.tobytes(), ds.token_counts.tolist(),
            ds.labels().tolist(), ds.num_labels, ds.input_dim, ds.label_names)


@settings(max_examples=400, deadline=None)
@given(content=jsonl_files())
def test_load_jsonl_equals_the_per_record_loader(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_bytes(content)
        got = load_outcome(load_jsonl, path)
        assert got == load_outcome(per_record_load_jsonl, path)
    assert got[0] in ("dataset", "DatasetFormatError")


# ---------------------------------------------------------------------------
# writing


def rand_dataset(rng, with_names=False, multi_token=False):
    n_labels = 3
    seqs = []
    for _ in range(10):
        shape = (int(rng.integers(2, 5)), 4) if multi_token else (1, 4)
        seqs.append(rng.normal(size=shape) * 10)
    names = ["red", "green", "blue"] if with_names else None
    return dataset_of(seqs, [i % n_labels for i in range(10)], num_labels=n_labels,
                      input_dim=4, label_names=names)


def test_write_load_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(44)
    for with_names in (False, True):
        for multi_token in (False, True):
            ds = rand_dataset(rng, with_names, multi_token)
            path = tmp_path / "out.jsonl"
            write_jsonl(ds, path)
            assert load_jsonl(path) == ds


@pytest.mark.parametrize("dataset, message", [
    pytest.param(Dataset(np.zeros((2, 3)), [1, 1], [0, 1], num_labels=4, input_dim=3),
                 "^labels reach only 1 of 4: without label_names the file would reload "
                 "with 2 labels$", id="top-label-unused"),
    pytest.param(Dataset(np.zeros((0, 3)), [], [], num_labels=2, input_dim=3),
                 "^a dataset with no rows would write a file with no records$", id="no-rows"),
])
def test_write_refuses_a_dataset_its_file_cannot_reproduce(tmp_path, dataset, message):
    path = tmp_path / "out.jsonl"
    with pytest.raises(ValueError, match=message):
        write_jsonl(dataset, path)
    assert not path.exists()


def test_write_keeps_an_unused_top_label_by_its_name(tmp_path):
    ds = Dataset(np.zeros((2, 3)), [1, 1], [0, 1], num_labels=4, input_dim=3,
                 label_names=["a", "b", "c", "d"])
    write_jsonl(ds, tmp_path / "out.jsonl")
    assert load_jsonl(tmp_path / "out.jsonl") == ds


def test_write_uses_flat_features_for_single_token_rows(tmp_path):
    ds = rand_dataset(np.random.default_rng(0))
    path = tmp_path / "out.jsonl"
    write_jsonl(ds, path)
    first = json.loads(path.read_text().splitlines()[0])
    assert "features" in first and "tokens" not in first


def test_write_emits_header_before_records(tmp_path):
    ds = rand_dataset(np.random.default_rng(1), with_names=True)
    path = tmp_path / "out.jsonl"
    write_jsonl(ds, path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"label_names": ["red", "green", "blue"]}
    assert json.loads(lines[1])["label"] in ("red", "green", "blue")


@pytest.mark.parametrize("names", [["ham", "spam", "eggs"], None], ids=["named", "numbered"])
def test_write_jsonl_matches_the_per_example_writer_byte_for_byte(tmp_path, monkeypatch, names):
    rng = np.random.default_rng(45)
    counts = [1, 3, 3, 1, 1, 3, 1]
    ds = dataset_of([rng.normal(size=(c, 4)) * 10 for c in counts], [2, 0, 1, 1, 0, 2, 2],
                    num_labels=3, input_dim=4, label_names=names)
    made = spy_on_examples(monkeypatch)
    write_jsonl(ds, tmp_path / "arrays.jsonl")
    assert made == []  # written from the arrays: no example is made
    per_example_jsonl(ds, tmp_path / "examples.jsonl")
    assert (tmp_path / "arrays.jsonl").read_bytes() == (tmp_path / "examples.jsonl").read_bytes()


# ---------------------------------------------------------------------------
# dataset container


def test_dataset_validates_members():
    ok = [np.zeros(3)]
    with pytest.raises(ValueError):
        dataset_of(ok, [0], num_labels=0, input_dim=3)
    with pytest.raises(ValueError):
        dataset_of(ok, [0], num_labels=1, input_dim=2)
    with pytest.raises(ValueError):
        dataset_of(ok, [4], num_labels=2, input_dim=3)
    with pytest.raises(ValueError):
        dataset_of(ok, [0], num_labels=2, input_dim=3, label_names=["only-one"])
    with pytest.raises(ValueError, match="^input_dim must be positive, got 0$"):
        Dataset(np.zeros((1, 0)), [1], [0], num_labels=1, input_dim=0)


@pytest.mark.parametrize("names", [["a", "a"], [1, 2], [], "ab"],
                         ids=["repeated", "numbers", "empty", "string"])
def test_dataset_label_names_follow_the_header_rule(names, tmp_path):
    # The constructor refuses what `load_jsonl` would refuse in a header, so
    # `write_jsonl` never writes a file that cannot be read back.
    with pytest.raises(ValueError, match="^label_names must be a list of distinct strings$"):
        Dataset(np.zeros((2, 3)), [1, 1], [0, 1], 2, 3, label_names=names)
    header = json.dumps({"label_names": names})
    path = write_lines(tmp_path, header, '{"label": 0, "features": [0.0]}')
    with pytest.raises(DatasetFormatError,
                       match="^line 1: label_names must be a list of distinct strings$"):
        load_jsonl(path)


def test_dataset_keeps_a_copy_of_its_label_names(tmp_path):
    names = ["ham", "spam"]
    ds = Dataset(np.zeros((2, 3)), [1, 1], [0, 1], 2, 3, label_names=names)
    names.append("eggs")
    assert ds.label_names == ["ham", "spam"]
    write_jsonl(ds, tmp_path / "named.jsonl")
    assert load_jsonl(tmp_path / "named.jsonl") == ds


def test_dataset_checks_name_the_first_offending_example():
    ones = np.ones(3, dtype=np.int64)
    with pytest.raises(ValueError, match=r"^example 1 label 2 out of range for 2 labels$"):
        Dataset(np.zeros((3, 3)), ones, np.array([0, 2, 5]), 2, 3)
    with pytest.raises(ValueError, match=r"^example 2 label -1 out of range for 2 labels$"):
        Dataset(np.zeros((3, 3)), ones, np.array([0, 1, -1]), 2, 3)
    with pytest.raises(ValueError,
                       match=r"^tokens have shape \(3, 3\), expected \(total_tokens, 4\)$"):
        Dataset(np.zeros((3, 3)), ones, np.array([0, 1, 0]), 2, 4)


@pytest.mark.parametrize("tokens, token_counts, labels", [
    pytest.param(np.zeros(3), [3], [0], id="1-d-tokens"),
    pytest.param(np.zeros((3, 2)), [1, 1], [0, 0], id="counts-short-of-the-rows"),
    pytest.param(np.zeros((3, 2)), [2, 0, 1], [0, 0, 0], id="a-zero-count"),
    pytest.param(np.zeros((3, 2)), [1, 1, 1], [0, 0], id="one-label-short"),
    pytest.param(np.zeros((3, 2)), [[1, 1, 1]], [[0, 0, 0]], id="2-d-counts"),
    pytest.param(np.array([[0.0, np.inf]]), [1], [0], id="non-finite"),
])
def test_dataset_rejects_arrays_that_do_not_fit(tokens, token_counts, labels):
    with pytest.raises(ValueError):
        Dataset(tokens, token_counts, labels, 2, tokens.shape[-1])


def test_dataset_copies_the_arrays_it_is_given():
    base = np.arange(8.0).reshape(4, 2)
    counts, labels = np.ones(4, dtype=np.int64), np.zeros(4, dtype=np.int64)
    for tokens in (base, base[:], np.asfortranarray(base), base.astype(np.float32),
                   base.tolist()):
        ds = Dataset(tokens, counts, labels, 2, 2)
        assert ds.tokens.flags.c_contiguous and not ds.tokens.flags.writeable
        assert not np.shares_memory(ds.tokens, base)
    assert base.flags.writeable and counts.flags.writeable and labels.flags.writeable
    base[0, 0], counts[0], labels[0] = 99.0, 7, 1
    assert ds.tokens[0, 0] == 0.0 and ds.token_counts[0] == 1 and ds.labels()[0] == 0
    # What it shows are read-only views: no one can turn writing back on to
    # put a non-finite token, or a count that no longer sums to the rows, past the checks.
    for arr in (ds.tokens, ds.token_counts):
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    assert ds.tokens[0, 0] == 0.0 and ds.token_counts.tolist() == [1, 1, 1, 1]


def test_generated_and_loaded_arrays_cannot_be_made_writeable(tmp_path):
    # The loaders hand their fresh matrix over uncopied (the memory-per-row
    # tests hold them to that), and still show only read-only views of it.
    train, _ = generate_synthetic(SyntheticSpec(num_classes=2, dim=3, per_class_count=5))
    write_jsonl(train, tmp_path / "train.jsonl")
    for ds in (train, load_jsonl(tmp_path / "train.jsonl")):
        for arr in (ds.tokens, ds.token_counts):
            with pytest.raises(ValueError):
                arr.setflags(write=True)


def test_train_example_cannot_be_constructed():
    # Its rows come only from `Dataset.examples`, over arrays the dataset checked.
    with pytest.raises(TypeError):
        TrainExample(tokens=np.zeros((1, 3)), label=0, id=0)
    [ex] = Dataset(np.zeros((1, 3)), [1], [0], 1, 3).examples
    assert type(ex) is TrainExample


def test_train_example_cannot_be_constructed_without_arguments():
    # An empty call must not make a row with no tokens, label or id.
    with pytest.raises(TypeError):
        TrainExample()


def contract_rows():
    """Two rows of one dataset, one and two tokens, and an equal copy of each."""
    tokens = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    rows = Dataset(tokens, [1, 2], [1, 0], 2, 2).examples
    return rows, Dataset(tokens, [1, 2], [1, 0], 2, 2).examples


def test_train_example_copies_and_pickles_to_equal_rows():
    rows, _ = contract_rows()
    for row in rows:
        for twin in (copy.copy(row), copy.deepcopy(row),
                     *(pickle.loads(pickle.dumps(row, protocol))
                       for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
            assert type(twin) is TrainExample
            assert twin == row and not twin != row
            assert (twin.label, twin.id) == (row.label, row.id)


def test_train_example_compares_by_value_and_is_unhashable():
    (a, b), (a2, b2) = contract_rows()
    # Multi-token rows must not reach an array's ambiguous truth value.
    assert (b == b2) is True and (b != b2) is False
    assert (a == b) is False and (a != b) is True
    assert (a == a2) is True and (a != a2) is False
    assert (a == "row") is False and (a != "row") is True
    for row in (a, b):
        with pytest.raises(TypeError):
            hash(row)


def test_train_example_is_immutable_over_read_only_views():
    (a, b), _ = contract_rows()
    for name in ("tokens", "label", "id"):
        with pytest.raises(AttributeError):
            setattr(b, name, 0)
    for row in (a, b):
        assert not row.tokens.flags.writeable
        with pytest.raises(ValueError):
            row.tokens.setflags(write=True)
        with pytest.raises(ValueError):
            row.tokens[0, 0] = 9.0


def test_train_example_repr():
    (a, b), _ = contract_rows()
    assert repr(a) == "TrainExample(tokens=array([[1., 2.]]), label=1, id=0)"
    assert repr(b) == ("TrainExample(tokens=array([[3., 4.],\n       [5., 6.]]), "
                       "label=0, id=1)")


def test_train_example_inherited_constructors_raise():
    (a, _), _ = contract_rows()
    for make in (lambda: TrainExample(np.zeros((1, 2)), 0, 0),
                 lambda: TrainExample.__new__(TrainExample, np.zeros((1, 2)), 0, 0),
                 lambda: TrainExample._make([np.zeros((1, 2)), 0, 0]),
                 lambda: a._replace(label=0)):
        with pytest.raises(TypeError):
            make()


def test_train_example_is_no_plain_tuple_and_has_no_order():
    # A tuple with a row's entries is not that row: comparing must answer
    # without reaching an array's truth value, in either order.
    (a, b), (a2, b2) = contract_rows()
    for row in (a, b):
        for other in (tuple(row), (row.tokens.copy(), row.label, row.id), (), ("row",)):
            assert (row == other) is False and (other == row) is False
            assert (row != other) is True and (other != row) is True
    for x, y in ((a, b), (b, a), (a, a2), (b, b2), (a, tuple(a)), (tuple(b), b), (a, (1,))):
        for order in (lambda: x < y, lambda: x <= y, lambda: x > y, lambda: x >= y):
            with pytest.raises(TypeError):
                order()


def test_a_label_must_fit_the_int64_label_array(tmp_path):
    [ex] = Dataset(np.zeros((1, 1)), [1], [2**63 - 1], 2**63, 1).examples
    assert ex.label == 2**63 - 1
    with pytest.raises(ValueError, match="^labels must fit in int64"):
        Dataset(np.zeros((1, 1)), [1], [2**63], 2**64, 1)
    path = write_lines(tmp_path, '{"label": 0, "features": [1.0]}',
                       '{"label": %d, "features": [1.0]}' % 2**63)
    with pytest.raises(DatasetFormatError, match=r"^line 2: label must be below 2\*\*63"):
        load_jsonl(path)
    path = write_lines(tmp_path, '{"label": 0, "features": [1.0]}',
                       '{"label": -1, "features": [1.0]}')
    with pytest.raises(DatasetFormatError, match=r"^line 2: label must be non-negative, got -1$"):
        load_jsonl(path)


@pytest.mark.parametrize("token_counts, labels, field", [
    pytest.param([1.9, 1], [0, 1], "token counts", id="fractional-count"),
    pytest.param([1, 1], [0.5, 1.9], "labels", id="fractional-labels"),
    pytest.param([1, 1], [True, False], "labels", id="boolean-labels"),
    pytest.param([1, 1], ["0", "1"], "labels", id="string-labels"),
    pytest.param(np.array([1.0, np.nan]), [0, 1], "token counts", id="nan-count"),
])
def test_dataset_rejects_entries_that_are_not_integers(token_counts, labels, field):
    # np.array(..., dtype=np.int64) would accept all of these, truncating
    # [1.9, 1] to [1, 1] and [0.5, 1.9] to [0, 1].
    with pytest.raises(ValueError, match=f"^{field} must be integers"):
        Dataset(np.zeros((2, 3)), token_counts, labels, 2, 3)


def test_dataset_accepts_whole_floats_as_integers():
    ds = Dataset(np.zeros((2, 3)), np.array([1.0, 1.0]), [1.0, 0], 2, 3)
    assert ds.token_counts.dtype == np.int64 and ds.labels().tolist() == [1, 0]


@pytest.mark.parametrize("token_counts, labels, field", [
    pytest.param([1], [2**63], "labels", id="label-2**63"),
    pytest.param([1], [-2**70], "labels", id="label--2**70"),
    pytest.param([2**63], [0], "token counts", id="count-2**63"),
])
def test_dataset_rejects_integers_beyond_int64_as_value_errors(token_counts, labels, field):
    # A `ValueError` is what the CLI reports as a runtime error (exit 2);
    # numpy's own `OverflowError` would escape it.
    with pytest.raises(ValueError, match=f"^{field} must fit in int64"):
        Dataset(np.zeros((1, 2)), token_counts, labels, num_labels=3, input_dim=2)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    dim=st.integers(1, 4),
    mixed=st.booleans(),
    pooling=st.sampled_from(POOLING_MODES),
)
@example(seed=0, n=6, dim=2, mixed=True, pooling="mean")
@example(seed=1, n=5, dim=3, mixed=False, pooling="max")
def test_a_loaded_dataset_equals_the_written_one(seed, n, dim, mixed, pooling):
    rng = np.random.default_rng(seed)
    if mixed:
        token_counts = rng.integers(1, 4, size=n)
        token_counts[: min(n, 2)] = [1, 3][: min(n, 2)]  # two counts at least, given n > 1
    else:
        token_counts = np.full(n, int(rng.integers(1, 4)))
    labels = rng.integers(0, 3, size=n)
    num_labels = int(labels.max()) + 1  # what a file without a header implies
    tokens = rng.normal(size=(int(token_counts.sum()), dim)) * 10
    written = Dataset(tokens, token_counts, labels, num_labels, dim)
    with tempfile.TemporaryDirectory() as tmp:
        write_jsonl(written, Path(tmp) / "out.jsonl")
        loaded = load_jsonl(Path(tmp) / "out.jsonl")

    for got, want in ((loaded.tokens, tokens), (loaded.token_counts, token_counts),
                      (loaded.labels(), labels)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert not loaded.tokens.flags.writeable
    assert len(loaded) == len(written) == n
    assert loaded == written and written == loaded
    for got, want in zip(loaded.examples, written.examples, strict=True):
        assert got.tokens.shape == want.tokens.shape
        assert got.tokens.tobytes() == want.tokens.tobytes()
        assert (got.label, got.id) == (want.label, want.id)
        assert type(got.label) is int and type(got.id) is int

    model = Model.initialize(ModelConfig(input_dim=dim, hidden_dim=5, emb_dim=4,
                                         num_labels=num_labels, retrieval_dim=3,
                                         pooling=pooling), seed)
    _, r = model.encode_batch(written)  # one unblocked encode
    for ds in (loaded, written):
        store = build_datastore(model, ds)
        assert store.keys.tobytes() == r.astype(np.float32).tobytes()
        assert store.labels.tobytes() == labels.astype(np.int64).tobytes()


def test_synthetic_data_reaches_the_store_without_examples(monkeypatch):
    made = spy_on_examples(monkeypatch)
    train, _ = generate_synthetic(SyntheticSpec(per_class_count=30, seed=3))
    store = build_datastore(Model.initialize(ModelConfig(input_dim=16, num_labels=4), 3), train)
    assert store.count == len(train) == 96
    assert made == []
    first = train.examples
    assert type(first) is list and len(first) == 96
    assert train.examples is first
    assert made == ["views"]


def test_loaded_data_makes_no_examples_until_they_are_read(tmp_path, monkeypatch):
    train, _ = generate_synthetic(SyntheticSpec(per_class_count=10, seed=4))
    write_jsonl(train, tmp_path / "train.jsonl")
    made = spy_on_examples(monkeypatch)
    loaded = load_jsonl(tmp_path / "train.jsonl")
    store = build_datastore(Model.initialize(ModelConfig(input_dim=16, num_labels=4), 4), loaded)
    assert store.count == len(loaded) == 32
    assert made == []
    assert len(loaded.examples) == 32 and loaded.examples is loaded.examples
    assert made == ["views"]


def test_load_jsonl_memory_per_row(tmp_path):
    train, _ = generate_synthetic(SyntheticSpec(num_classes=4, dim=16, per_class_count=625))
    path = tmp_path / "train.jsonl"
    write_jsonl(train, path)  # 2,000 one-token rows of dim 16
    tracemalloc.start()
    try:
        loaded = load_jsonl(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded) == 2000
    # The token matrix holds 128 B/row and the counts and labels 16 more:
    # about 145 B/row in all. A copy of each row kept beside the matrix
    # would hold about 500.
    assert held / len(loaded) < 250
    # Parsing holds each record's rows until the one concatenate, about
    # 440 B/row at the peak. A loader that also held the file's whole text
    # and its list of lines would peak at about 1,040.
    assert peak / len(loaded) < 600


@pytest.mark.parametrize("token_counts", [[2, 2, 2], [1, 2, 3]], ids=["equal", "mixed"])
def test_token_views_cannot_be_made_writeable(token_counts):
    tokens = np.arange(12.0).reshape(6, 2)
    ds = Dataset(tokens, np.array(token_counts), np.array([0, 1, 0]), 2, 2)
    assert not ds.tokens.flags.writeable
    assert [ex.tokens.shape for ex in ds.examples] == [(c, 2) for c in token_counts]
    for ex in ds.examples:
        assert not ex.tokens.flags.writeable
        with pytest.raises(ValueError):
            ex.tokens.setflags(write=True)


# ---------------------------------------------------------------------------
# synthetic generation


def test_generate_synthetic_is_deterministic():
    spec = SyntheticSpec(num_classes=3, dim=5, per_class_count=20, seed=12)
    train_a, test_a = generate_synthetic(spec)
    train_b, test_b = generate_synthetic(spec)
    assert train_a == train_b
    assert test_a == test_b
    other_train, _ = generate_synthetic(
        SyntheticSpec(num_classes=3, dim=5, per_class_count=20, seed=13)
    )
    assert train_a != other_train


def test_generate_synthetic_default_split_counts():
    train, test = generate_synthetic(SyntheticSpec())
    assert len(train) == 400
    assert len(test) == 100
    np.testing.assert_array_equal(np.bincount(train.labels()), [100, 100, 100, 100])
    np.testing.assert_array_equal(np.bincount(test.labels()), [25, 25, 25, 25])
    assert train.input_dim == test.input_dim == 16
    assert train.num_labels == test.num_labels == 4


def test_generate_synthetic_split_is_disjoint_and_exhaustive():
    spec = SyntheticSpec(num_classes=3, dim=6, per_class_count=15, seed=5)
    train, test = generate_synthetic(spec)
    rows = {ex.tokens.tobytes() for ex in train.examples}
    rows |= {ex.tokens.tobytes() for ex in test.examples}
    assert len(rows) == 3 * 15
    assert len(train) + len(test) == 3 * 15


def test_generate_synthetic_ids_are_sequential():
    train, test = generate_synthetic(SyntheticSpec(per_class_count=10, seed=2))
    assert [ex.id for ex in train.examples] == list(range(len(train)))
    assert [ex.id for ex in test.examples] == list(range(len(test)))


def test_generate_synthetic_zero_noise_collapses_classes():
    spec = SyntheticSpec(num_classes=2, dim=4, per_class_count=10, noise_sigma=0.0, seed=3)
    train, _ = generate_synthetic(spec)
    for c in (0, 1):
        rows = {ex.tokens.tobytes() for ex in train.examples if ex.label == c}
        assert len(rows) == 1


def test_generate_synthetic_default_classes_are_separable():
    train, test = generate_synthetic(SyntheticSpec())
    assert nearest_centroid_accuracy(train, test) >= 0.99


def test_generate_synthetic_means_have_unit_direction_and_scale():
    spec = SyntheticSpec(num_classes=3, dim=8, per_class_count=50,
                         noise_sigma=0.0, class_separation=2.5, seed=9)
    train, _ = generate_synthetic(spec)
    for c in range(3):
        mean = next(ex.tokens[0] for ex in train.examples if ex.label == c)
        assert float(np.linalg.norm(mean)) == pytest.approx(2.5, rel=1e-12)


def test_generate_synthetic_more_classes_than_dimensions():
    spec = SyntheticSpec(num_classes=5, dim=3, per_class_count=10, seed=1)
    train, test = generate_synthetic(spec)
    assert train.num_labels == 5
    assert len(train) == 5 * 8
    assert len(test) == 5 * 2


def test_generate_synthetic_tiny_classes_have_empty_test_split():
    train, test = generate_synthetic(
        SyntheticSpec(num_classes=2, dim=3, per_class_count=4, seed=0)
    )
    assert len(train) == 8
    assert len(test) == 0


@settings(max_examples=60, deadline=None)
@given(
    num_classes=st.integers(2, 9),
    dim=st.integers(1, 6),
    per_class_count=st.integers(1, 12),
    class_separation=st.floats(0.1, 20.0),
    noise_sigma=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
    seed=st.integers(0, 2**32),
)
@example(num_classes=7, dim=2, per_class_count=10, class_separation=6.0, noise_sigma=1.0,
         seed=0)  # more classes than dimensions
@example(num_classes=3, dim=4, per_class_count=4, class_separation=6.0, noise_sigma=1.0,
         seed=1)  # an empty test split
@example(num_classes=2, dim=3, per_class_count=9, class_separation=2.5, noise_sigma=0.0,
         seed=2)  # no noise
def test_generate_synthetic_matches_the_per_row_oracle(
    num_classes, dim, per_class_count, class_separation, noise_sigma, seed
):
    spec = SyntheticSpec(num_classes=num_classes, dim=dim, per_class_count=per_class_count,
                         class_separation=class_separation, noise_sigma=noise_sigma, seed=seed)
    for got, want in zip(generate_synthetic(spec), per_row_synthetic(spec)):
        assert got == want
        assert [ex.tokens.tobytes() for ex in got.examples] == [
            ex.tokens.tobytes() for ex in want.examples]
        for ex in got.examples:
            assert type(ex.label) is int and type(ex.id) is int
            assert ex.tokens.dtype == np.float64 and ex.tokens.shape == (1, dim)
            assert not ex.tokens.flags.writeable
            with pytest.raises(ValueError):
                ex.tokens.setflags(write=True)
            assert not hasattr(ex, "__dict__")


def test_generate_synthetic_memory_per_row():
    spec = SyntheticSpec(num_classes=4, per_class_count=5000)  # 20,000 rows of dim 16
    tracemalloc.start()
    try:
        train, test = generate_synthetic(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The two token matrices hold 128 B/row, and one class's working copies of
    # its points add the rest: about 265 B/row. A (1, 16) view and a slotted
    # example made per row at generation, as before examples became lazy,
    # peaked at about 425 B/row; examples that each carried a __dict__ and
    # checked their own row, at about 600-635 B/row.
    assert peak / (len(train) + len(test)) < 300


def test_generate_synthetic_reports_an_overflowing_spec():
    spec = SyntheticSpec(class_separation=1e308, noise_sigma=1e308)
    # The repo's error::RuntimeWarning filter fails the test on an overflow warning.
    with pytest.raises(ValueError, match="class_separation .* noise_sigma") as info:
        generate_synthetic(spec)
    assert "non-finite" in str(info.value)


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(num_classes=1)
    with pytest.raises(ValueError):
        SyntheticSpec(dim=0)
    with pytest.raises(ValueError):
        SyntheticSpec(per_class_count=0)
    with pytest.raises(ValueError):
        SyntheticSpec(class_separation=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(noise_sigma=-0.1)


@pytest.mark.parametrize("field", ["class_separation", "noise_sigma"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_synthetic_spec_rejects_non_finite_scales(field, value):
    with pytest.raises(ValueError, match=field):
        SyntheticSpec(**{field: value})
