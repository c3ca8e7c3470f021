"""Every library name has one import path, its module: each module's
``__all__`` must resolve, and the package root holds only
``__version__``.  No check in the package is an ``assert``.  Every
library name README.md gives resolves."""

import ast
import importlib
import os
import re
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


def test_readme_names_resolve():
    # `module.name` (optionally `fhgames.module.name`) for a library
    # module, and `Class.attr` for a class defined in one
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    modules = {name: importlib.import_module(f"fhgames.{name}") for name in LIBRARY_MODULES}
    classes = {
        name: value
        for module in modules.values()
        for name, value in vars(module).items()
        if isinstance(value, type) and value.__module__.startswith("fhgames.")
    }
    named, stale = set(), []
    for owner, attr in re.findall(r"`(?:fhgames\.)?(\w+)\.(\w+)`", readme):
        if owner in modules:
            target = modules[owner]
        elif owner[:1].isupper():
            target = classes.get(owner)
        else:
            continue  # a file name or another package's name
        named.add(f"{owner}.{attr}")
        fields = getattr(target, "__dataclass_fields__", ())
        if target is None or not (hasattr(target, attr) or attr in fields):
            stale.append(f"{owner}.{attr}")
    assert "solver.counter_bound" in named and "Game.fix" in named
    assert stale == []
