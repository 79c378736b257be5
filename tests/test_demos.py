"""Every demo script and the README quick start run to completion against
the current API, and each demo prints exactly its pinned output."""

import hashlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"

# sha256 of each demo's standard output: a change to the library that
# moves a printed digit shows here, like the CLI's golden digests
STDOUT_SHA256 = {
    "01_comparison_curves.py":
        "d4031350f76c10457c553714e0bc41cc5e438e61492c2e9f99ade79345802088",
    "02_gain_operators.py":
        "b6b0144a5bd349129953fe91659196a441b5ebf391d6057dfe306153b83beba2",
    "03_simulating_networks.py":
        "bbc5b36142f5c84c7a7a1e87a0241cf16203a28209df4d67d4e0c1c7e0b0cc4b",
    "04_certifying_stability.py":
        "e9744b0f9561cb8408571f5660085e9ee0899aec5caa12332e118fe63fa45b0c",
    "05_trace_and_subnetworks.py":
        "01ee1cf5bc76db85e0133108518b0acecdd53f6467049ef97400e66542927717",
}


def test_every_demo_has_a_pinned_output():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # the suite's warning filters (pyproject.toml) hold in the demos too
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-W", "error::DeprecationWarning",
                           str(DEMOS / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256.get(script), proc.stdout[-2000:]


def test_readme_quick_start_runs(tmp_path):
    # the first python block of the README, under the same filters
    readme = (DEMOS.parent / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-W", "error::DeprecationWarning", "-c", code],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "True 0.0625"
