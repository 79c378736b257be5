"""Every demo script and the README quick start run to completion against
the current API."""

import os
import pathlib
import re
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


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
