"""Every name a module exports resolves, and README's examples run."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"

MODULES = ["spinstab", "spinstab.cli", "spinstab.controller",
           "spinstab.dynamics", "spinstab.montecarlo", "spinstab.quantum"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_readme_python_examples_run():
    """README's ```python blocks run in order, in one namespace, as a reader
    would paste them."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README has no python example"
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
