"""Every name a module exports exists on it, and so does every function
the bench tracer patches; modules keep to the layout and imports they
share."""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import pkgutil
import subprocess
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
_PLAN_LAYOUT = {"coeffs", "cols", "starts", "segment", "targets", "other"}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "gains"])
def test_only_gains_reads_the_plan_layout(name):
    path = pathlib.Path(issnet.__file__).parent / f"{name}.py"
    reads = [f"{ast.unparse(node)} (line {node.lineno})"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in _PLAN_LAYOUT
             and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    assert reads == []


@pytest.mark.parametrize("name", [m for m in MODULES
                                  if m not in ("systems", "network")])
def test_only_systems_and_network_name_the_block_size(name):
    # a stepping pass's 32-sample blocks belong to the stepping loop and
    # the pass's block records, which give every position a reader needs
    path = pathlib.Path(issnet.__file__).parent / f"{name}.py"
    names = [f"line {node.lineno}"
             for node in ast.walk(ast.parse(path.read_text()))
             if "_CHUNK" in (getattr(node, "id", None),
                             getattr(node, "attr", None),
                             getattr(node, "name", None))]
    assert names == []


def test_no_module_calls_np_unique():
    # np.unique imports numpy.ma on its first call, which costs a fresh
    # process time and memory; comparison._sorted_unique gives its bits
    calls = []
    for name in MODULES:
        path = pathlib.Path(issnet.__file__).parent / f"{name}.py"
        calls += [f"{name}.py line {node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr == "unique"
                  and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy")]
    assert calls == []


_IMPORT_PROBE = """
import json, os, random, sys, tempfile
from issnet import cli, comparison, gains, smallgain

def run(command, conf):
    out = tempfile.mkdtemp()
    path = os.path.join(out, "config.json")
    with open(path, "w") as fh:
        json.dump(conf, fh)
    assert cli.main([command, "--config", path, "--out", out]) == 0

# a gains-check run and the criterion-6 loop on all-linear graphs
run("gains-check", {"network": "catalog:linear-diffusive-chain",
                    "window": 30, "seed": 3})
draw = random.Random(6)
for trial in range(20):
    n = draw.randint(3, 6)
    labels = tuple(range(n))
    coeffs = {(i, j): draw.uniform(0.05, 0.8 / n) for i in labels
              for j in labels if i != j and draw.random() < 0.5}
    coeffs = coeffs or {(0, 1): 0.5}
    graph = gains.GainGraph(gains.FiniteIndexSet(labels), {
        k: comparison.linear(c) for k, c in coeffs.items()})
    sgc = smallgain.estimate_uniform_sgc(graph, labels, n_random=16,
                                         seed=trial)
    keep = labels[:draw.randint(1, n - 1)]
    shrunk = gains.GainGraph(gains.FiniteIndexSet(labels), {
        k: comparison.linear(0.5 * c) for k, c in coeffs.items()})
    for g, w in ((graph, labels), (gains.restrict(graph, keep), keep),
                 (shrunk, labels)):
        assert smallgain.falsify_mbi(g, w, sgc.xi_hat, budget=2000,
                                     seed=trial) is None
random_after_gains = "numpy.random" in sys.modules

run("certify", {"network": "catalog:counterexample-chain", "window": 6,
                "ensemble": {"horizon": 20.0, "dt": 0.1, "n_random": 1},
                "radii": [0.5, 1.0, 2.0], "depth": 3, "seed": 12})
run("trace-theorem1", {"network": "catalog:nonuniform-discrete-chain",
                       "window": 8, "ensemble": {"horizon": 200,
                                                 "n_random": 1},
                       "radii": [0.5, 1.0], "bands": [1, 2],
                       "xi": {"kind": "linear", "params": {"a": 2.0},
                              "class": "Kinf"}, "seed": 4})
print(json.dumps([random_after_gains, "numpy.ma" in sys.modules]))
"""


def test_runs_leave_numpy_random_and_numpy_ma_unimported(tmp_path):
    # all-linear gain checks draw nothing, so they never build a generator;
    # no run sorts through np.unique
    src = pathlib.Path(issnet.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                         cwd=tmp_path, check=True, capture_output=True,
                         text=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [False, False]
