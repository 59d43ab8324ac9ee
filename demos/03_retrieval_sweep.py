"""Grid-search the retrieval settings on held-out data.

Trains one model, builds its datastore, then evaluates every combination of
neighbor count k, distance temperature T, and blend weight with run_sweep.
The report is printed as a grid and written out in the same CSV format the
command-line `sweep` subcommand produces.

Run:  python3 demos/03_retrieval_sweep.py
"""

import tempfile
from pathlib import Path

from knnblend import (
    Hyperparams,
    ModelConfig,
    SweepSpec,
    SyntheticSpec,
    build_datastore,
    generate_synthetic,
    run_sweep,
    train,
    write_report_csv,
)

spec = SyntheticSpec(num_classes=4, dim=8, per_class_count=50,
                     class_separation=3.0, noise_sigma=1.5, seed=21)
train_ds, test_ds = generate_synthetic(spec)

config = ModelConfig(input_dim=spec.dim, hidden_dim=16, emb_dim=16,
                     num_labels=spec.num_classes)
hyper = Hyperparams(epochs=10, batch_size=16, learning_rate=0.1,
                    triplet_weight=0.5, seed=4)
model, _ = train(train_ds.examples, hyper, config)
store = build_datastore(model, train_ds)
print(f"trained on {len(train_ds)} examples; store holds {store.count} keys")

sweep = SweepSpec(
    k_values=(1, 8, 32),
    temperature_values=(1.0, 10.0, 100.0),
    knn_weight_values=(0.0, 0.2, 0.5, 1.0),
)
report = run_sweep(model, store, test_ds, sweep)
print(f"evaluated {len(report.rows)} configurations in {report.wall_ms:.0f} ms\n")

# Print one block per k: temperatures down the side, blend weights across.
weights = sweep.knn_weight_values
by_key = {(r.k, r.temperature, r.knn_weight): r.accuracy for r in report.rows}
header = "            " + "".join(f"w={w:<8g}" for w in weights)
for k in sweep.k_values:
    print(f"k={k}")
    print(header)
    for t in sweep.temperature_values:
        cells = "".join(f"{by_key[(k, t, w)]:<10.3f}" for w in weights)
        print(f"  T={t:<8g}{cells}")
    print()

best = report.best
print(f"best row: k={best.k} T={best.temperature} knn_weight={best.knn_weight} "
      f"-> accuracy {best.accuracy:.3f} ({best.n_correct}/{best.n_total})")

# Note the w=0 column repeats within each block: with the blend weight at
# zero, neither k nor T can matter, and those rows are the classifier-only
# baseline the best row should never fall below.

out = Path(tempfile.mkdtemp()) / "sweep.csv"
write_report_csv(report.rows, out)
print(f"\nwrote {out} ({out.stat().st_size} bytes); first lines:")
for line in out.read_text().splitlines()[:4]:
    print(" ", line)
