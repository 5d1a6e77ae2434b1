"""Every public name of the package resolves.

A name left in a module's __all__ after its definition moved, or imported by
orbitfix/__init__.py from a module that no longer holds it, fails here by
name rather than as an ImportError at the first user's import.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import orbitfix

MODULES = sorted(info.name for info in pkgutil.iter_modules(orbitfix.__path__)
                 if info.name != "__main__")  # importing __main__ runs the CLI


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"orbitfix.{name}")
    assert module.__all__, f"orbitfix.{name} has an empty __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"orbitfix.{name}.__all__ names what it lacks: {missing}"


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(orbitfix.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        source = importlib.import_module(f"orbitfix.{node.module}")
        for alias in node.names:
            assert hasattr(source, alias.name), f"orbitfix.{node.module} lacks {alias.name}"
            assert hasattr(orbitfix, alias.asname or alias.name)
