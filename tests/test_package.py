import importlib
import inspect
import pkgutil

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
