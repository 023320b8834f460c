"""Every name a module exports resolves."""

import importlib

import pytest

MODULES = ["spinstab", "spinstab.cli", "spinstab.controller",
           "spinstab.dynamics", "spinstab.montecarlo", "spinstab.quantum"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
