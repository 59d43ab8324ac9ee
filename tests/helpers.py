"""Independent oracles for the test suite.

Everything here recomputes results with deliberately different machinery than
the library: pure-Python loops, full sorts instead of heaps, and mpmath
extended precision instead of float64, so agreement is meaningful. The
training oracles keep the library's earlier step: pairs drawn batch by batch,
each gradient accumulated into its own zeroed array, and one update per
weight array; the library must reproduce them bit for bit. So must the
per-row synthetic generator, the `np.add.at` neighbor vote and the JSONL
writer that goes example by example, and the loader must give the datasets
and errors of the earlier one that parses each record and then appends it
(`per_record_load_jsonl`). `Datastore.save` must write the bytes of the
earlier writer that joins the whole file in memory (`concatenated_store_file`).
The gradient check oracle perturbs a copy of the model array by array, one
scalar at a time, and judges each entry as it goes.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from array import array
from pathlib import Path

import mpmath
import numpy as np

from knnblend.core import as_tokens, check_finite_tokens, squared_l2
from knnblend.data import (Dataset, DatasetFormatError, TrainExample, _label_names,
                           _random_orthogonal)
from knnblend.model import ACTIVATIONS, Model, _pool_rows
from knnblend.training import (CE_PROB_FLOOR, GRAD_CHECK_ABS_TOL, GRAD_CHECK_MAX_RESAMPLES,
                               GRAD_CHECK_REL_TOL, GradCheckReport, _flat_buffer, _hinge,
                               _loss, _pair_indices, _term_weights)


def full_sort_hits(store, query, k):
    """Brute-force search oracle: full sort by (distance, index), no heap.

    Uses the library's distance primitive on the same widened keys so the
    selection logic is the only thing under test.
    """
    q = np.asarray(query, dtype=np.float64)
    scored = []
    for i in range(store.count):
        key = store.keys[i].astype(np.float64)
        scored.append((squared_l2(q, key), i))
    scored.sort()
    return scored[: min(int(k), store.count)]


def hits_as_pairs(hits):
    return [(h.distance, h.index) for h in hits]


def oracle_cell_labels(ranked, store_labels, classifier_probs, k, temperature,
                       knn_weight, num_labels):
    """Per-example oracle for one sweep cell, in pure Python.

    `ranked` holds each example's `full_sort_hits` at the grid's largest k;
    the first k of them are the cell's neighbors. The vote, blend and argmax
    use Python floats and `math.exp`, not the library's vectorized path.
    Returns one (label, gap) per example, where gap is the blended top-1
    minus top-2 probability; ties go to the lowest label.
    """
    out = []
    for hits, p_cls in zip(ranked, classifier_probs):
        p_cls = [float(p) for p in p_cls]
        if knn_weight == 0.0:
            blended = p_cls
        else:
            scaled = [-d / temperature for d, _ in hits[:k]]
            peak = max(scaled)
            votes = [0.0] * num_labels
            for s, (_, i) in zip(scaled, hits[:k]):
                votes[int(store_labels[i])] += math.exp(s - peak)
            total = sum(votes)
            p_knn = [v / total for v in votes]
            if knn_weight == 1.0:
                blended = p_knn
            else:
                blended = [knn_weight * a + (1.0 - knn_weight) * b
                           for a, b in zip(p_knn, p_cls)]
        order = sorted(range(num_labels), key=lambda j: (-blended[j], j))
        out.append((order[0], blended[order[0]] - blended[order[1]]))
    return out


def mp_softmax(logits, dps=60):
    """Extended-precision softmax, no max-subtraction trick needed."""
    with mpmath.workdps(dps):
        vals = [mpmath.mpf(float(v)) for v in logits]
        exps = [mpmath.e ** v for v in vals]
        total = mpmath.fsum(exps)
        return [float(e / total) for e in exps]


def mp_neighbor_distribution(distances, labels, temperature, num_labels, dps=60):
    """Extended-precision per-label aggregation of exp(-d/T) weights."""
    with mpmath.workdps(dps):
        t = mpmath.mpf(float(temperature))
        weights = [mpmath.e ** (-mpmath.mpf(float(d)) / t) for d in distances]
        total = mpmath.fsum(weights)
        probs = [mpmath.mpf(0)] * int(num_labels)
        for w, lab in zip(weights, labels):
            probs[int(lab)] += w
        return [float(p / total) for p in probs]


def _scalar_affine(weight_rows, bias, vec):
    out = []
    for i, row in enumerate(weight_rows):
        s = float(bias[i])
        for j, v in enumerate(vec):
            s += float(row[j]) * float(v)
        out.append(s)
    return out


def scalar_forward(model, pooled):
    """Straight-line scalar recomputation of one forward pass.

    Returns a dict with h0, the classifier distribution, and the retrieval
    representation r. Only tanh / identity activations are understood.
    """
    cfg = model.config
    act = math.tanh if cfg.activation == "tanh" else float
    x = [float(v) for v in pooled]
    z1 = _scalar_affine(model.enc_w1.tolist(), model.enc_b1.tolist(), x)
    a1 = [act(v) for v in z1]
    h0 = _scalar_affine(model.enc_w2.tolist(), model.enc_b2.tolist(), a1)
    scores = []
    for row in model.head_w.tolist():
        s = 0.0
        for j, v in enumerate(h0):
            s += float(row[j]) * v
        scores.append(act(s))
    peak = max(scores)
    exps = [math.exp(v - peak) for v in scores]
    total = sum(exps)
    probs = [v / total for v in exps]
    if cfg.decouple_enabled:
        g1 = _scalar_affine(model.dec_w1.tolist(), model.dec_b1.tolist(), h0)
        d1 = [act(v) for v in g1]
        r = _scalar_affine(model.dec_w2.tolist(), model.dec_b2.tolist(), d1)
    else:
        r = list(h0)
    return {"h0": h0, "probs": probs, "r": r}


def affine_forward(model, x):
    """`Model._forward` one expression per layer, `act(x @ W.T + b)`, each
    making its own temporaries: (a1, h0, d1, r), with d1 None and r h0
    without decoupling."""
    act = ACTIVATIONS[model.config.activation].fn
    a1 = act(x @ model.enc_w1.T + model.enc_b1)
    h0 = a1 @ model.enc_w2.T + model.enc_b2
    if not model.config.decouple_enabled:
        return a1, h0, None, h0
    d1 = act(h0 @ model.dec_w1.T + model.dec_b1)
    return a1, h0, d1, d1 @ model.dec_w2.T + model.dec_b2


def scalar_batch_loss(model, batch, pairs, triplet_weight, margin, floor=1e-12):
    """Scalar recomputation of the mixed batch objective (cls pooling).

    Returns (mean_ce, mean_triplet, total) exactly as the library defines
    them, including the plain-CE rule when the hinge term is disabled.
    """
    n = len(batch)
    outs = [scalar_forward(model, ex.tokens[0]) for ex in batch]
    ce = 0.0
    for ex, out in zip(batch, outs):
        ce += -math.log(max(out["probs"][ex.label], floor))
    ce /= n
    trip = 0.0
    for i, (pos, neg) in enumerate(pairs):
        if neg is None:
            continue
        r_i, r_p, r_n = outs[i]["r"], outs[pos]["r"], outs[neg]["r"]
        d_ap = sum((a - b) ** 2 for a, b in zip(r_i, r_p))
        d_an = sum((a - b) ** 2 for a, b in zip(r_i, r_n))
        trip += max(d_ap - d_an + margin, 0.0)
    trip /= n
    if not model.config.triplet_enabled:
        return ce, 0.0, ce
    w = float(triplet_weight)
    if w == 0.0:
        return ce, trip, ce
    if w == 1.0:
        return ce, trip, trip
    return ce, trip, (1.0 - w) * ce + w * trip


def nearest_centroid_accuracy(train_ds, test_ds):
    """Classify test points by the closest train-class mean."""
    centroids = []
    rows = np.stack([ex.tokens[0] for ex in train_ds.examples])
    labels = train_ds.labels()
    for c in range(train_ds.num_labels):
        centroids.append(rows[labels == c].mean(axis=0))
    centroids = np.stack(centroids)
    correct = 0
    for ex in test_ds.examples:
        dists = ((centroids - ex.tokens[0]) ** 2).sum(axis=1)
        if int(np.argmin(dists)) == ex.label:
            correct += 1
    return correct / len(test_ds.examples)


def per_row_synthetic(spec):
    """`generate_synthetic` one row at a time: each class's points drawn in
    their own array, and each split's rows gathered one by one."""
    rng = np.random.default_rng(spec.seed)
    rotation = _random_orthogonal(spec.dim, rng)
    class_points = []
    for c in range(spec.num_classes):
        mean = spec.class_separation * rotation[:, c % spec.dim]
        noise = rng.normal(0.0, spec.noise_sigma, size=(spec.per_class_count, spec.dim))
        class_points.append(mean + noise)
    train_rows, test_rows = [], []
    n_test = spec.per_class_count // 5
    for c, points in enumerate(class_points):
        order = rng.permutation(spec.per_class_count)
        train_rows.extend((points[pos], c) for pos in order[n_test:])
        test_rows.extend((points[pos], c) for pos in order[:n_test])
    return tuple(
        dataset_of([row for row, _ in rows], [label for _, label in rows],
                   num_labels=spec.num_classes, input_dim=spec.dim)
        for rows in (train_rows, test_rows)
    )


def dataset_of(token_seqs, labels, num_labels, input_dim, label_names=None):
    """The `Dataset` of token sequences (a 1-d one is one token) and their
    labels: the sequences concatenated in order, each one's token count, its
    label. Its examples, ids 0..n-1, are the rows a test trains on."""
    seqs = [as_tokens(seq) for seq in token_seqs]
    tokens = np.concatenate(seqs) if seqs else np.empty((0, input_dim))
    return Dataset(tokens, [len(seq) for seq in seqs], labels, num_labels, input_dim,
                   label_names)


def spy_on_examples(monkeypatch):
    """Record each `TrainExample._views` call, the one maker of examples, as "views"."""
    made = []
    views = TrainExample._views
    monkeypatch.setattr(TrainExample, "_views",
                        classmethod(lambda cls, *arrays: made.append("views") or views(*arrays)))
    return made


def pool_examples(examples, mode):
    """Pooled inputs of dataset rows: their token rows stacked in order,
    split by each row's token count, through the library's one pooling step."""
    tokens = np.concatenate([ex.tokens for ex in examples])
    return _pool_rows(tokens, np.array([len(ex.tokens) for ex in examples]), mode)


def per_example_jsonl(dataset, path):
    """`write_jsonl` example by example: each row's tokens turned into Python
    floats on their own, every line joined into one text and written at once."""
    lines = []
    if dataset.label_names is not None:
        lines.append(json.dumps({"label_names": dataset.label_names}))
    for ex in dataset.examples:
        label = (
            dataset.label_names[ex.label] if dataset.label_names is not None else ex.label
        )
        if ex.tokens.shape[0] == 1:
            record = {"label": label, "features": ex.tokens[0].tolist()}
        else:
            record = {"label": label, "tokens": ex.tokens.tolist()}
        lines.append(json.dumps(record))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _oracle_parse_record(obj, label_names):
    """(label, token rows) of a record: the label checked, the rows a list of
    lists whose values the token rule has yet to check."""
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
    elif label >= 2**63:
        raise ValueError(f"label must be below 2**63, got {label}")
    has_features = "features" in obj
    if has_features == ("tokens" in obj):
        raise ValueError("record needs exactly one of \"features\" or \"tokens\"")
    rows = [obj["features"]] if has_features else obj["tokens"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("\"features\" must be an array" if has_features
                         else "\"tokens\" must be an array of arrays")
    return label, rows


def _oracle_record_tokens(rows):
    for row in rows:
        for value in row:
            if value is None or isinstance(value, str):
                raise ValueError(f"token values must be numbers, got {json.dumps(value)}")
    return as_tokens(rows)


class _OracleTokenBuffer:
    """Token values appended record by record, the first record and any
    record with a row of another dimension through the token rule."""

    def __init__(self):
        self.values = array("d")
        self.dim = 0
        self.lines = []
        self.counts = []

    def add(self, line_no, rows):
        mark = len(self.values)
        try:
            if not (self.lines and rows):
                raise ValueError("the first record, or one without rows")
            for row in rows:
                if len(row) != self.dim:
                    raise ValueError("a row of another dimension")
                self.values.extend(row)
        except (TypeError, ValueError, OverflowError):
            del self.values[mark:]
            tokens = _oracle_record_tokens(rows)
            if not self.lines:
                self.dim = tokens.shape[1]
            elif tokens.shape[1] != self.dim:
                raise ValueError(f"dimension {tokens.shape[1]} does not match "
                                 f"dimension {self.dim} from line {self.lines[0]}") from None
            self.values.frombytes(tokens.tobytes())
        self.lines.append(line_no)
        self.counts.append(len(rows))

    def check_finite(self, tokens=None):
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


def per_record_load_jsonl(path):
    """`load_jsonl` as it was before common records took a short path: every
    line through `json.loads`, every record through the whole label and
    structure check (`_oracle_parse_record`) and then into the token buffer."""
    label_names = None
    tokens = _OracleTokenBuffer()
    labels = []
    try:
        with open(path, "rb") as file:
            for line_no, raw in enumerate(file, start=1):
                try:
                    line = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise DatasetFormatError(f"line {line_no}: not UTF-8 text ({exc.reason} "
                                             f"at byte {exc.start} of the line)") from exc
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DatasetFormatError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
                if (not labels and isinstance(obj, dict) and "label_names" in obj
                        and "label" not in obj):
                    if label_names is not None:
                        raise DatasetFormatError(f"line {line_no}: duplicate label_names header")
                    try:
                        label_names = _label_names(obj["label_names"])
                    except ValueError as exc:
                        raise DatasetFormatError(f"line {line_no}: {exc}") from exc
                    continue
                try:
                    label, rows = _oracle_parse_record(obj, label_names)
                    tokens.add(line_no, rows)
                except ValueError as exc:
                    raise DatasetFormatError(f"line {line_no}: {exc}") from exc
                labels.append(label)
    except DatasetFormatError:
        tokens.check_finite()
        raise
    if not labels:
        raise DatasetFormatError("no records found")
    num_labels = len(label_names) if label_names is not None else max(labels) + 1
    matrix = np.frombuffer(tokens.values).reshape(-1, tokens.dim).copy()
    try:
        return Dataset(matrix, np.array(tokens.counts, dtype=np.int64),
                       np.array(labels, dtype=np.int64), num_labels, tokens.dim, label_names)
    except ValueError:
        tokens.check_finite(matrix)
        raise


def concatenated_store_file(store) -> bytes:
    """A store's file as one `bytes`: magic, header, the keys as
    little-endian float32 and the labels as u32, joined, then the crc32 of
    everything before it."""
    body = b"".join([
        b"KNNDS1",
        struct.pack("<HIQI", 1, store.dim, store.count, store.num_labels),
        store.keys.astype("<f4").tobytes(),
        store.labels.astype("<u4").tobytes(),
    ])
    return body + struct.pack("<I", zlib.crc32(body))


def add_at_vote(labels, distances, temperature, num_labels):
    """The neighbor vote with `np.add.at` into a zeroed (B, num_labels) matrix."""
    scaled = -distances / temperature
    weights = np.exp(scaled - scaled.max(axis=1, keepdims=True))
    probs = np.zeros((labels.shape[0], num_labels))
    np.add.at(probs, (np.arange(labels.shape[0])[:, None], labels), weights)
    return probs / probs.sum(axis=1, keepdims=True)


def make_batch(rng, n, dim, num_labels, n_tokens=1):
    """The rows of a random dataset, with labels cycling through the label set."""
    return Dataset(rng.normal(size=(n * n_tokens, dim)), np.full(n, n_tokens),
                   np.arange(n) % num_labels, num_labels, dim).examples


def random_distribution(rng, length):
    """A valid probability vector with no zero entries."""
    x = rng.random(length) + 1e-3
    return x / x.sum()


def batch_pair_indices(labels, rng):
    """(pos, neg) over one batch, drawn with one `rng.integers` call per batch.

    In label-sorted order each candidate set is a span of positions minus one
    gap; a batch of one draws nothing and has no negative (-1).
    """
    n = labels.shape[0]
    if n == 1:
        return np.zeros(1, dtype=np.int64), np.full(1, -1)
    order = np.argsort(labels, kind="stable")
    start = np.searchsorted(labels[order], labels, side="left")
    size = np.searchsorted(labels[order], labels, side="right") - start
    place = np.empty(n, dtype=np.int64)
    place[order] = np.arange(n)
    lonely = size == n
    counts = np.concatenate([size - 1, np.where(lonely, n - 1, n - size)])
    ranks = rng.integers(np.maximum(counts, 1))
    mate = start + ranks[:n]
    mate += mate >= place
    other = ranks[n:]
    other = np.where(lonely, other + (other >= place), other + size * (other >= start))
    return order[np.where(size > 1, mate, place)], order[other]


def batch_loss_and_gradients(model, x, labels, pos, neg, hyper):
    """((total, ce, triplet), gradients) of one batch, each gradient summed
    into a zeroed array and each hinge row scattered by its own np.add.at."""
    cfg = model.config
    if cfg.triplet_enabled:
        ce_weight, trip_weight = 1.0 - hyper.triplet_weight, hyper.triplet_weight
    else:
        ce_weight, trip_weight = 1.0, 0.0
    act = ACTIVATIONS[cfg.activation]
    n = x.shape[0]
    cache = model.features(x)
    head_out = act.fn(cache.h0 @ model.head_w.T)
    shifted = head_out - head_out.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    gold = probs[np.arange(n), labels]
    ce = float(np.mean(-np.log(np.maximum(gold, CE_PROB_FLOOR))))
    trip = 0.0
    if cfg.triplet_enabled:
        anchors = np.flatnonzero(neg >= 0)
        diff_p = cache.r[anchors] - cache.r[pos[anchors]]
        diff_n = cache.r[anchors] - cache.r[neg[anchors]]
        raw = (np.einsum("ij,ij->i", diff_p, diff_p)
               - np.einsum("ij,ij->i", diff_n, diff_n) + hyper.margin)
        trip = float(np.maximum(raw, 0.0).sum()) / n
    if trip_weight == 0.0:
        total = ce_weight * ce
    elif ce_weight == 0.0:
        total = trip_weight * trip
    else:
        total = ce_weight * ce + trip_weight * trip

    grads = {name: np.zeros_like(arr) for name, arr in model.parameters().items()}
    d_h0 = np.zeros_like(cache.h0)
    if ce_weight != 0.0:
        d_scores = probs.copy()
        d_scores[np.arange(n), labels] -= 1.0
        d_scores[gold <= CE_PROB_FLOOR] = 0.0
        d_scores *= ce_weight / n
        d_head_pre = d_scores * act.grad_from_output(head_out)
        grads["head_w"] += d_head_pre.T @ cache.h0
        d_h0 += d_head_pre @ model.head_w
    if trip_weight != 0.0:
        active = raw > 0.0
        a, dp, dn = anchors[active], diff_p[active], diff_n[active]
        scale = trip_weight / n
        d_r = np.zeros_like(cache.r)
        np.add.at(d_r, a, scale * 2.0 * (dp - dn))
        np.add.at(d_r, pos[a], scale * (-2.0) * dp)
        np.add.at(d_r, neg[a], scale * 2.0 * dn)
        if cfg.decouple_enabled:
            grads["dec_w2"] += d_r.T @ cache.d1
            grads["dec_b2"] += d_r.sum(axis=0)
            d_g1 = (d_r @ model.dec_w2) * act.grad_from_output(cache.d1)
            grads["dec_w1"] += d_g1.T @ cache.h0
            grads["dec_b1"] += d_g1.sum(axis=0)
            d_h0 += d_g1 @ model.dec_w1
        else:
            d_h0 += d_r
    grads["enc_w2"] += d_h0.T @ cache.a1
    grads["enc_b2"] += d_h0.sum(axis=0)
    d_z1 = (d_h0 @ model.enc_w2) * act.grad_from_output(cache.a1)
    grads["enc_w1"] += d_z1.T @ cache.x
    grads["enc_b1"] += d_z1.sum(axis=0)
    return (total, ce, trip), grads


def batch_train(data, hyper, model_config):
    """`train` step by step: per-batch pair draws and one update per weight
    array. Returns the model and each epoch's (mean_ce, mean_triplet, mean_total)."""
    all_labels = np.array([ex.label for ex in data], dtype=np.int64)
    rng = np.random.default_rng(hyper.seed)
    model = Model.initialize(model_config, rng)
    params = model.parameters()
    all_x = pool_examples(data, model_config.pooling)
    n = len(data)
    means = []
    for _ in range(hyper.epochs):
        order = rng.permutation(n)
        sums = [0.0, 0.0, 0.0]
        for start in range(0, n, hyper.batch_size):
            rows = order[start : start + hyper.batch_size]
            labels = all_labels[rows]
            pos, neg = batch_pair_indices(labels, rng)
            (total, ce, trip), grads = batch_loss_and_gradients(
                model, all_x[rows], labels, pos, neg, hyper)
            for name, grad in grads.items():
                params[name] -= hyper.learning_rate * grad
            for i, value in enumerate((ce, trip, total)):
                sums[i] += value * rows.shape[0]
        means.append(tuple(value / n for value in sums))
    return model, means


def copy_model(model):
    """A model with copies of `model`'s weights."""
    kwargs = {name: arr.copy() for name, arr in model.parameters().items()}
    return Model(config=model.config, **kwargs)


def scalar_grad_check(model, batch, hyper, step=1e-5):
    """`grad_check` on a model copy, array by array with scalar comparisons.

    Returns the report and, per checked entry, ("name[i]", error, tolerance):
    the relative or absolute error under its criterion, inf where the
    numeric gradient is not finite. Its worst_param follows the scalar rule
    (the last entry to raise either running maximum), not the library's.
    """
    rng = np.random.default_rng(hyper.seed)
    work = copy_model(model)
    x = pool_examples(batch, work.config.pooling)
    labels = np.array([ex.label for ex in batch], dtype=np.int64)
    pos, neg = _pair_indices(labels, labels.shape[0], rng)
    _, trip_weight = _term_weights(work.config, hyper)
    resamples = 0
    if trip_weight != 0.0:
        while True:
            _, _, raw = _hinge(work.features(x).r, pos, neg, hyper.margin)
            if not (np.abs(raw[np.isfinite(raw)]) < 100.0 * step).any():
                break
            if resamples >= GRAD_CHECK_MAX_RESAMPLES:
                return GradCheckReport(
                    passed=False, finite=True, max_rel_error=math.inf,
                    max_abs_error=math.inf, num_checked=0, resample_attempts=resamples,
                    worst_param=None,
                    note="could not move all hinge margins away from the kink",
                ), []
            resamples += 1
            for arr in work.parameters().values():
                arr += rng.normal(0.0, 1e-2, size=arr.shape)

    _, grads = _flat_buffer(work)
    terms = _loss(work, x, labels, pos, neg, hyper, grads)
    if not math.isfinite(terms.total):
        return GradCheckReport(
            passed=False, finite=False, max_rel_error=math.inf, max_abs_error=math.inf,
            num_checked=0, resample_attempts=resamples, worst_param=None,
            note=f"non-finite loss {terms.total}",
        ), []
    max_rel = max_abs = 0.0
    worst, checked, passed, entries = None, 0, True, []
    for name, arr in work.parameters().items():
        flat = arr.reshape(-1)
        grad_flat = grads[name].reshape(-1)
        for j in range(flat.size):
            original = flat[j]
            flat[j] = original + step
            f_plus = _loss(work, x, labels, pos, neg, hyper).total
            flat[j] = original - step
            f_minus = _loss(work, x, labels, pos, neg, hyper).total
            flat[j] = original
            checked += 1
            numeric = (f_plus - f_minus) / (2.0 * step)
            analytic = float(grad_flat[j])
            if not math.isfinite(numeric):
                passed, worst, max_rel = False, f"{name}[{j}]", math.inf
                entries.append((f"{name}[{j}]", math.inf, GRAD_CHECK_REL_TOL))
                continue
            diff = abs(analytic - numeric)
            denom = max(abs(analytic), abs(numeric))
            if denom >= 1e-4:
                rel = diff / denom
                entries.append((f"{name}[{j}]", rel, GRAD_CHECK_REL_TOL))
                if rel > max_rel:
                    max_rel, worst = rel, f"{name}[{j}]"
                if rel > GRAD_CHECK_REL_TOL:
                    passed = False
            else:
                entries.append((f"{name}[{j}]", diff, GRAD_CHECK_ABS_TOL))
                if diff > max_abs:
                    max_abs, worst = diff, f"{name}[{j}]"
                if diff > GRAD_CHECK_ABS_TOL:
                    passed = False
    return GradCheckReport(
        passed=passed, finite=True, max_rel_error=max_rel, max_abs_error=max_abs,
        num_checked=checked, resample_attempts=resamples, worst_param=worst,
    ), entries
