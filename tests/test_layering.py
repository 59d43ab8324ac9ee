"""Module layering: lower layers import nothing above them."""

import dataclasses
import subprocess
import sys

import pytest

from knnblend.training import Hyperparams


@pytest.mark.parametrize(
    "module, absent",
    [
        ("knnblend.data", ("knnblend.training", "knnblend.retrieval")),
        ("knnblend.training", ("knnblend.retrieval",)),
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
