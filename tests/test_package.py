"""Every library name has one import path, its module: each module's
``__all__`` must resolve, and the package root holds only
``__version__``.  No check in the package is an ``assert``."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import fhgames

LIBRARY_MODULES = ("numeric", "game", "solver", "counter", "gadgets", "oracle", "verify", "jsonout")


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_star_import_resolves_every_listed_name(name):
    module = importlib.import_module(f"fhgames.{name}")
    assert len(set(module.__all__)) == len(module.__all__), "a name is listed twice"
    namespace = {}
    exec(f"from fhgames.{name} import *", namespace)
    missing = [n for n in module.__all__ if n not in namespace]
    assert not missing, missing


def test_package_root_imports_no_submodule():
    src = os.path.dirname(os.path.dirname(fhgames.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, fhgames; "
        "print(sorted(m for m in sys.modules if m.startswith('fhgames.')), fhgames.__version__)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out == f"[] {fhgames.__version__}\n"
    version = subprocess.run(
        [sys.executable, "-m", "fhgames", "--version"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert version == f"{fhgames.__version__}\n"


def test_no_assert_statements():
    # python -O strips asserts, so a check written as one would vanish
    package = os.path.dirname(fhgames.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                tree = ast.parse(f.read(), name)
            found += [f"{name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
