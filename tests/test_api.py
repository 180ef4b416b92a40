"""Every exported function and class has a caller in the package.

A name in a module's ``__all__`` (or the package's) that only tests reach is
a second spelling of a primitive; the tests call the primitive instead.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pimsner_lab

SRC = Path(pimsner_lab.__file__).parent


def _references(trees: dict) -> dict:
    """name -> the modules in which it is used: loaded as a name, or read as
    an attribute, outside its own definition.  Imports, ``__all__`` entries
    (strings) and definitions are not uses."""
    used: dict = {}
    for module, tree in trees.items():
        # names read inside a definition of the same name (recursion, a
        # class naming itself) do not count as a use of it
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                skip |= {id(sub) for sub in ast.walk(node)
                         if getattr(sub, "id", getattr(sub, "attr", None)) == node.name}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.setdefault(node.id, set()).add(module)
            elif isinstance(node, ast.Attribute):
                used.setdefault(node.attr, set()).add(module)
    return used


def _exported(module) -> list:
    """The functions and classes in the module's ``__all__``."""
    return [name for name in module.__all__
            if inspect.isfunction(getattr(module, name))
            or inspect.isclass(getattr(module, name))]


def test_every_exported_name_has_a_caller_in_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = _references(trees)
    modules = [pimsner_lab] + [importlib.import_module(f"pimsner_lab.{stem}")
                               for stem in trees if stem != "__init__"]
    unused = sorted({f"{getattr(module, name).__module__}.{name}"
                     for module in modules for name in _exported(module)
                     if name not in used})
    assert not unused, f"exported but never called in src/: {unused}"
