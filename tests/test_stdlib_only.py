"""The runtime depends on the standard library alone, and each public
name is declared once, in its module's __all__."""

import ast
import inspect
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_package_imports_only_the_standard_library():
    for path in sorted((ROOT / "src" / "modhadamard").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, (path.name, name)
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r"^dependencies = \[\]$", pyproject, re.M)


def test_public_names_are_the_modules_all():
    import modhadamard
    from modhadamard import constructions, existence, matrices, numtheory, search

    modules = (constructions, existence, matrices, numtheory, search)
    assert modhadamard.__all__ == [name for mod in modules for name in mod.__all__]
    assert len(set(modhadamard.__all__)) == len(modhadamard.__all__)
    for mod in modules:
        defined = {
            name
            for name, value in vars(mod).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == mod.__name__
        }
        assert defined <= set(mod.__all__), (mod.__name__, defined - set(mod.__all__))
        for name in mod.__all__:
            assert getattr(modhadamard, name) is getattr(mod, name)
