"""Blend a classifier's distribution with a vote from retrieved neighbors.

Walks the whole inference path on a small hand-made problem: encode labeled
points into a datastore, retrieve the k nearest for a query, turn their
distances into a label distribution, and mix that with the classifier output
at a few blend weights.

Run:  python3 demos/01_neighbor_blending.py
"""

import numpy as np

from knnblend import (
    Dataset,
    Model,
    ModelConfig,
    RetrievalParams,
    build_datastore,
    knn_distribution_batch,
    predict_batch,
)

rng = np.random.default_rng(42)

# Two noisy clusters in the plane, labels 0 and 1.
points = np.concatenate([
    rng.normal(loc=(-2.0, 0.0), scale=0.6, size=(20, 2)),
    rng.normal(loc=(+2.0, 0.0), scale=0.6, size=(20, 2)),
])
labels = np.repeat([0, 1], 20)
# A dataset is its token matrix, each example's token count and its labels.
dataset = Dataset(points, np.ones(len(points), dtype=np.int64), labels,
                  num_labels=2, input_dim=2)

# An untrained model: its classifier is near-uniform, which makes the effect
# of the neighbor vote easy to see.
config = ModelConfig(input_dim=2, hidden_dim=8, emb_dim=4, num_labels=2)
model = Model.initialize(config, seed=0)
store = build_datastore(model, dataset)
print(f"datastore: {store.count} keys of dimension {store.dim}")

# Every step takes a batch, given as a dataset; this one holds a single query.
query = np.array([-1.5, 0.3])  # clearly in cluster 0 territory
queries = Dataset(query[None, :], [1], [0], num_labels=2, input_dim=2)
h0, r = model.encode_batch(queries)
print(f"\nquery {query} -> retrieval representation {np.round(r[0], 3)}")

indices, distances = store.search_batch(r, k=5)
print("\n5 nearest stored points (squared-L2 in representation space):")
for index, distance in zip(indices[0], distances[0]):
    print(f"  index {index:2d}  label {store.labels[index]}  distance {distance:.4f}")

# With k equal to the whole store, both labels appear among the hits and the
# temperature has something to trade off: T -> 0 approaches a one-hot on the
# single nearest neighbor's label, T -> inf approaches the raw label frequency
# among the hits (here 0.5 / 0.5).
indices, distances = store.search_batch(r, k=store.count)
print("\nneighbor vote over all 40 points at different temperatures:")
for temperature in (0.0001, 0.001, 0.01, 0.1, 1.0):
    vote = knn_distribution_batch(store.labels[indices], distances, temperature, num_labels=2)
    print(f"  T={temperature:<7g} -> {np.round(vote[0], 4)}")

print("\nblending vote and classifier (k=5, T=1):")
for weight in (0.0, 0.2, 0.5, 1.0):
    pred = predict_batch(model, store, queries,
                         RetrievalParams(k=5, temperature=1.0, knn_weight=weight))
    print(
        f"  knn_weight={weight:<4} classifier={np.round(pred.classifier_probs[0], 4)}"
        f"  final={np.round(pred.probs[0], 4)}  label={pred.labels[0]}"
    )

print(
    "\nAt weight 0 the datastore is ignored entirely; at weight 1 the"
    "\nclassifier is ignored. In between, neighbors pull the untrained"
    "\nclassifier's near-uniform output toward the local label evidence."
)
