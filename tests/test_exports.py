"""The package surface: `knnblend` exports what its modules export."""

import knnblend
from knnblend import core, data, datastore, evaluate, model, retrieval, training


def test_package_exports_the_union_of_module_exports():
    modules = (core, data, datastore, evaluate, model, retrieval, training)
    expected = {name for module in modules for name in module.__all__} | {"__version__"}
    assert set(knnblend.__all__) == expected
    assert len(knnblend.__all__) == len(expected)
    assert knnblend.__version__ == "0.1.0"
    for module in modules:
        for name in module.__all__:
            assert getattr(knnblend, name) is getattr(module, name)


def test_scoring_path_types_and_kernels_are_exported():
    from knnblend import (  # noqa: F401
        BatchPrediction,
        interpolate_batch,
        knn_distribution_batch,
        sq_dists,
    )

    assert BatchPrediction is retrieval.BatchPrediction
