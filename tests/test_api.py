"""Every name a module exports resolves, the package exports each module's
names once, and README's examples run."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spinstab
from spinstab import controller, dynamics, montecarlo, quantum

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

MODULES = ["spinstab", "spinstab.cli", "spinstab.controller",
           "spinstab.dynamics", "spinstab.montecarlo", "spinstab.quantum"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_package_exports_each_modules_names_once():
    joined = [name for module in (controller, dynamics, montecarlo, quantum)
              for name in module.__all__]
    assert spinstab.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_sme_diffusion_is_a_module_function_only():
    # the tracer and the tests' oracles reach it through ``dynamics``
    assert "sme_diffusion" not in spinstab.__all__
    assert not hasattr(spinstab, "sme_diffusion")
    assert callable(dynamics.sme_diffusion)


def test_import_does_not_load_the_process_pool():
    # the pool is imported where a run starts one, not with the package
    code = ("import sys, spinstab, spinstab.cli\n"
            "sys.exit('multiprocessing' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert res.returncode == 0


def test_readme_python_examples_run():
    """README's ```python blocks run in order, in one namespace, as a reader
    would paste them."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    assert blocks, "README has no python example"
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
