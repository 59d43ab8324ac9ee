"""Train with and without the decoupled retrieval head, and compare key spaces.

Two models on the same Gaussian-cluster data:

  A: decoupling on  -- a separate MLP maps the encoder output to the retrieval
     key, and a margin hinge over (anchor, positive, negative) triplets is
     mixed into the objective to pull same-label keys together.
  B: decoupling off -- the classifier's own features double as retrieval keys;
     cross-entropy is the whole objective.

The interesting numbers at the end are the mean intra-class and inter-class
squared distances in each model's key space.

Run:  python3 demos/02_decoupled_training.py
"""

import numpy as np

from knnblend import (
    Hyperparams,
    ModelConfig,
    RetrievalParams,
    SyntheticSpec,
    build_datastore,
    evaluate_config,
    generate_synthetic,
    sq_dists,
    train,
)

spec = SyntheticSpec(num_classes=4, dim=8, per_class_count=40,
                     class_separation=4.0, noise_sigma=1.5, seed=3)
train_ds, test_ds = generate_synthetic(spec)
print(f"data: {len(train_ds)} train / {len(test_ds)} test, "
      f"{spec.num_classes} classes in {spec.dim}-d, noise sigma {spec.noise_sigma}")

hyper = Hyperparams(epochs=12, batch_size=16, learning_rate=0.1,
                    triplet_weight=0.5, margin=1.0, seed=0)

configs = {
    "A (decoupled + triplet)": ModelConfig(
        input_dim=spec.dim, hidden_dim=16, emb_dim=16, num_labels=spec.num_classes,
        decouple_enabled=True, triplet_enabled=True,
    ),
    "B (plain cross-entropy)": ModelConfig(
        input_dim=spec.dim, hidden_dim=16, emb_dim=16, num_labels=spec.num_classes,
        decouple_enabled=False, triplet_enabled=False,
    ),
}

models = {}
for name, config in configs.items():
    print(f"\n--- training {name} ---")
    model, stats = train(train_ds.examples, hyper, config)
    models[name] = model
    for s in (stats[0], stats[len(stats) // 2], stats[-1]):
        print(" ", s.format_line())


def class_separation_report(model, dataset):
    """Mean squared distance between keys of same-label vs different-label pairs."""
    keys = model.encode_batch(dataset)[1]
    labels = dataset.labels()
    intra, inter = [], []
    for i in range(len(keys) - 1):
        # Distances from key i to every later key, so each pair counts once.
        d = sq_dists(keys[i + 1 :], keys[i])
        same = labels[i + 1 :] == labels[i]
        intra.append(d[same])
        inter.append(d[~same])
    return float(np.mean(np.concatenate(intra))), float(np.mean(np.concatenate(inter)))


print("\nkey-space geometry on the test set (squared-L2):")
for name, model in models.items():
    intra, inter = class_separation_report(model, test_ds)
    print(f"  {name}: intra-class {intra:.4f}  inter-class {inter:.4f}  "
          f"ratio {inter / intra:.2f}x")

# Does the better-shaped key space show up in accuracy? Evaluate each model
# with its own datastore at a pure-classifier, blended, and pure-kNN setting.
print("\ntest accuracy (k=8, T=10):")
for name, model in models.items():
    store = build_datastore(model, train_ds)
    cells = []
    for weight in (0.0, 0.5, 1.0):
        row = evaluate_config(model, store, test_ds,
                              RetrievalParams(k=8, temperature=10.0, knn_weight=weight))
        cells.append(f"weight {weight}: {row.accuracy:.3f}")
    print(f"  {name}: " + "   ".join(cells))
