"""The documentation's references name objects that exist.

A name that moves or goes leaves its mentions behind; these tests find them:
every dotted ``cyins.`` name in README.md, and every Sphinx cross-reference
(``:func:``, ``:class:``, ``:mod:`` and the like) in a ``cyins`` docstring.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import cyins

ROOT = Path(__file__).resolve().parent.parent
MODULES = {
    info.name: importlib.import_module(f"cyins.{info.name}")
    for info in pkgutil.iter_modules(cyins.__path__)
    if info.name != "__main__"
}


def _resolve(module, target: str):
    """The object ``target`` names, read as the docstrings of ``module`` use it.

    A name that starts with ``cyins`` is absolute; any other is looked up in
    ``module``.  A leading ``~`` only shortens the rendered text.
    """
    head, *rest = target.lstrip("~").split(".")
    obj = cyins if head == "cyins" else getattr(module, head)
    for part in rest:
        obj = getattr(obj, part)
    return obj


def _unresolved(module, targets) -> list[str]:
    missing = []
    for target in targets:
        try:
            _resolve(module, target)
        except AttributeError:
            missing.append(target)
    return missing


def test_readme_names_resolve():
    names = sorted(set(re.findall(r"cyins\.[A-Za-z_][\w.]*", (ROOT / "README.md").read_text())))
    assert len(names) >= 10
    assert _unresolved(cyins, [name.rstrip(".") for name in names]) == []


def test_docstring_cross_references_resolve():
    found, missing = 0, []
    for name, module in {"__init__": cyins, **MODULES}.items():
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            targets = re.findall(r":\w+:`([^`]+)`", ast.get_docstring(node, clean=False) or "")
            found += len(targets)
            missing += [f"{name}: {target}" for target in _unresolved(module, targets)]
    assert found >= 50
    assert missing == []
