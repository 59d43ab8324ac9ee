"""The names that the benchmark in `perfbench/` reaches into knnblend for.

The tracer in `perfbench/spans.py` rebinds every `TARGETS` entry by name, and
`perfbench/workloads.py` calls library functions directly. A name retired from
knnblend while the benchmark still uses it fails here, not in a benchmark run.
Both files are only read: `spans.py` is loaded from its path, and
`workloads.py` is parsed, not imported.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Reached by `getattr(training, name)` or on instances, which a parse misses.
INDIRECT = [
    ("training", "combined_loss"),
    ("training", "loss_and_gradients"),
    ("retrieval", "Prediction"),
    ("datastore", "Datastore.search"),
    ("model", "Model.encode"),
]


def _module(name):
    return importlib.import_module(f"knnblend.{name}")


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, _, _ in spans.TARGETS]


def _direct_references():
    """Every `module.attr[.attr]` chain on a knnblend module that workloads.py imports."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "knnblend"
               for alias in node.names}
    found = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in modules:
            found.add((node.id, ".".join(reversed(parts))))
    return sorted(found)


def _resolves(module, dotted) -> bool:
    obj = _module(module)
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_every_traced_target_resolves_as_the_tracer_looks_it_up():
    targets = _tracer_targets()
    assert len(targets) > 20
    missing = []
    for module, attr in targets:
        home = _module(module)
        if "." in attr:  # `Tracer.install` takes a method from the class's own dict
            cls_name, meth = attr.split(".")
            ok = hasattr(home, cls_name) and meth in vars(getattr(home, cls_name))
        else:
            ok = hasattr(home, attr)
        if not ok:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_every_name_the_workloads_call_resolves():
    references = _direct_references() + INDIRECT
    assert ("retrieval", "predict") in references and ("core", "squared_l2") in references
    missing = [f"{module}.{dotted}" for module, dotted in references
               if not _resolves(module, dotted)]
    assert missing == []
