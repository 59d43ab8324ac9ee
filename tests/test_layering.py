"""Module layering: lower layers import nothing above them.

`core` imports no package module; `data`, `model` and `datastore` import
`core` only. `retrieval` imports none of `data`, `model`, `training` and
`evaluate`: it reaches the model only through the model object it is given.
`training` imports none of `datastore`, `retrieval` and `evaluate`; and
`evaluate` does not import `training`."""

import dataclasses
import subprocess
import sys

import pytest

from knnblend.training import Hyperparams


MODULES = ("core", "data", "model", "datastore", "retrieval", "training", "evaluate")


def _package(*names):
    return tuple(f"knnblend.{name}" for name in names)


def _all_but(*names):
    return _package(*(name for name in MODULES if name not in names))


@pytest.mark.parametrize(
    "module, absent",
    [
        ("knnblend.data", _all_but("core", "data")),
        ("knnblend.training", _package("datastore", "retrieval", "evaluate")),
        ("knnblend.core", _all_but("core")),
        ("knnblend.model", _all_but("core", "model")),
        ("knnblend.datastore", _all_but("core", "datastore")),
        ("knnblend.retrieval", _package("data", "model", "training", "evaluate")),
        ("knnblend.evaluate", _package("training")),
    ],
)
def test_import_leaves_higher_layers_unloaded(module, absent):
    # A fresh interpreter, because this one has already imported everything.
    # Importing a submodule runs knnblend/__init__.py, which imports every
    # layer, so the package is first registered without running it.
    code = (
        "import importlib.util, sys, types\n"
        "spec = importlib.util.find_spec('knnblend')\n"
        "pkg = types.ModuleType('knnblend')\n"
        "pkg.__path__ = list(spec.submodule_search_locations)\n"
        "sys.modules['knnblend'] = pkg\n"
        f"import {module}\n"
        f"print(sorted(m for m in {list(absent)!r} if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_hyperparams_has_no_retrieval_field():
    names = {field.name for field in dataclasses.fields(Hyperparams)}
    assert "retrieval" not in names
