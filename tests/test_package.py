"""Package surface: every exported name of every fatkit module resolves."""

import importlib
import pkgutil

import fatkit


def test_every_export_resolves():
    stale = []
    for info in pkgutil.iter_modules(fatkit.__path__):
        module = importlib.import_module(f"fatkit.{info.name}")
        stale += [f"{info.name}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert stale == []
