import importlib
import pkgutil

import bubblespec


def test_every_public_name_resolves():
    # A name left in __all__ after its definition is deleted only fails at `import *`.
    modules = [importlib.import_module(f"bubblespec.{m.name}") for m in pkgutil.iter_modules(bubblespec.__path__)]
    assert len(modules) >= 7
    dangling = [f"{mod.__name__}.{n}" for mod in modules for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert dangling == []
