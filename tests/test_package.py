"""Package surface: every exported name of every fatkit module resolves,
and the CLI writes no file of its own."""

import ast
import importlib
import pkgutil
from pathlib import Path

import fatkit


def test_every_export_resolves():
    stale = []
    for info in pkgutil.iter_modules(fatkit.__path__):
        module = importlib.import_module(f"fatkit.{info.name}")
        stale += [f"{info.name}.{name}" for name in module.__all__ if not hasattr(module, name)]
    assert stale == []


def test_cli_opens_moves_and_removes_no_file():
    # every byte a command writes goes through data.write_all, which checks
    # each target, so the CLI keeps no file writer or output check of its own
    import fatkit.cli

    tree = ast.parse(Path(fatkit.cli.__file__).read_text())
    calls = [f"line {node.lineno}: {ast.unparse(node.func)}" for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and ast.unparse(node.func) in ("open", "os.replace", "os.rename", "os.remove")]
    assert calls == []
