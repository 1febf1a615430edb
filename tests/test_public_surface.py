import importlib
import inspect
import pkgutil

import dirichlet_roots


def _modules():
    return [importlib.import_module(f"dirichlet_roots.{info.name}")
            for info in pkgutil.iter_modules(dirichlet_roots.__path__)]


def test_every_all_name_exists():
    # perfbench traces the functions named in each module's __all__ and skips
    # a missing name silently, so a stale entry would drop a traced layer
    for mod in _modules():
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names missing objects: {missing}"


def test_package_reexports_resolve():
    # every public name the package re-exports is its defining module's own
    # object and listed in that module's __all__
    exported = {name: obj for name, obj in vars(dirichlet_roots).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert "count_roots" in exported and "run_trials" in exported
    for name, obj in exported.items():
        home = importlib.import_module(obj.__module__)
        assert getattr(home, name) is obj, name
        assert name in home.__all__, f"{name} is not in {home.__name__}.__all__"
