import ast
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import hplap


def _modules():
    return [importlib.import_module(f"hplap.{info.name}") for info in pkgutil.iter_modules(hplap.__path__)]


def test_module_exports_resolve():
    for mod in _modules():
        missing = [name for name in mod.__all__ if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ lists undefined names {missing}"


def test_package_exports_come_from_module_all():
    exported = {name for mod in _modules() for name in mod.__all__}
    public = {name for name, val in vars(hplap).items() if not name.startswith("_") and not inspect.ismodule(val)}
    assert public and public <= exported, f"hplap exports names no module lists in __all__: {sorted(public - exported)}"


def test_library_imports_only_numpy_and_the_stdlib():
    # scipy and other packages may be installed where the tests run, so an
    # accidental import would pass every other test; numpy is the only dependency
    allowed = set(sys.stdlib_module_names) | {"numpy", "hplap"}
    for path in sorted(Path(hplap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside = {name.split(".")[0] for name in names} - allowed
            assert not outside, f"{path.name} imports {sorted(outside)}"
