"""Every name the package exports resolves, so `from xtcs.<module> import *` works."""

import importlib
import pkgutil

import xtcs


def test_every_exported_name_resolves():
    modules = [xtcs] + [importlib.import_module(f"xtcs.{info.name}")
                        for info in pkgutil.iter_modules(xtcs.__path__)]
    missing = [(module.__name__, name) for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert len(modules) > 1 and missing == []
