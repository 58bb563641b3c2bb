"""Every exported name resolves: the names in each module's ``__all__`` and
the names the package imports from its modules."""
import ast
import importlib
from pathlib import Path

import pytest

import skorokhod_sde

PACKAGE = Path(skorokhod_sde.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"skorokhod_sde.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_package_imports_are_public_names_of_their_modules():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"skorokhod_sde.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(skorokhod_sde, alias.asname or alias.name) is getattr(
                module, alias.name
            )


# no command calls these; each duplicates a path the commands run, and
# only perfbench's tracer still reads them
UNEXPORTED = ("simulate_paths", "sample_compound_poisson", "sample_ou_path")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_omits_the_duplicate_paths(name):
    module = importlib.import_module(f"skorokhod_sde.{name}")
    assert set(UNEXPORTED).isdisjoint(getattr(module, "__all__", ()))


def test_package_namespace_omits_the_duplicate_paths():
    assert [n for n in UNEXPORTED if hasattr(skorokhod_sde, n)] == []
