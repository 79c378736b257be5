"""Every name a module exports exists on it, and so does every function
the bench tracer patches."""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil
import sys

import pytest

import issnet

MODULES = sorted(m.name for m in pkgutil.iter_modules(issnet.__path__))
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"issnet.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _tracer_targets():
    """TARGETS of perfbench/tracer.py, loaded from the file as it is."""
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


# a traced function that is renamed or deleted would otherwise only show as
# a nonzero trace.absent_targets in a traced bench run
@pytest.mark.parametrize("target", _tracer_targets(), ids=lambda t: t.name)
def test_bench_tracer_targets_resolve(target):
    owner = importlib.import_module(target.module)
    for part in target.attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{target.module}.{target.attr} is gone"


# the compiled plan's layout is gains' own: other modules ask the plan
# (apply_batch, edges, fixed_point) instead of reading its arrays
_PLAN_LAYOUT = {"coeffs", "cols", "starts", "targets", "other"}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "gains"])
def test_only_gains_reads_the_plan_layout(name):
    path = pathlib.Path(issnet.__file__).parent / f"{name}.py"
    reads = [f"{ast.unparse(node)} (line {node.lineno})"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in _PLAN_LAYOUT
             and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    assert reads == []
