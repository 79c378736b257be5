"""Every name a module exports exists on it."""

import importlib
import pkgutil

import pytest

import issnet

MODULES = sorted(m.name for m in pkgutil.iter_modules(issnet.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"issnet.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
