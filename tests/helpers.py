"""Independent oracles for the test suite.

Everything here recomputes results with deliberately different machinery than
the library: pure-Python loops, full sorts instead of heaps, and mpmath
extended precision instead of float64, so agreement is meaningful.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from knnblend.core import squared_l2
from knnblend.training import TrainExample


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


def make_batch(rng, n, dim, num_labels, n_tokens=1):
    """Random labeled examples with labels cycling through the label set."""
    return [
        TrainExample(
            tokens=rng.normal(size=(n_tokens, dim)),
            label=i % num_labels,
            id=i,
        )
        for i in range(n)
    ]


def random_distribution(rng, length):
    """A valid probability vector with no zero entries."""
    x = rng.random(length) + 1e-3
    return x / x.sum()
