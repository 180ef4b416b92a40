"""Every exported function and class, and every public method and property
of an exported class, has a caller in the package.

A name in a module's ``__all__`` (or the package's) that only tests reach is
a second spelling of a primitive; the tests call the primitive instead.
Methods are matched by attribute name, and the benchmark harness
(``perfbench/*.py``) counts as a caller of them.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pimsner_lab

SRC = Path(pimsner_lab.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def _modules_and_uses():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    modules = [pimsner_lab] + [importlib.import_module(f"pimsner_lab.{stem}")
                               for stem in trees if stem != "__init__"]
    return modules, _references(trees)


def _methods(cls) -> list:
    """The public methods, class and static methods and properties that the
    class defines itself (dataclass fields and dunders excluded)."""
    return [name for name, raw in vars(cls).items() if not name.startswith("_") and (
        inspect.isfunction(raw) or isinstance(raw, (property, classmethod, staticmethod)))]


def test_every_exported_name_has_a_caller_in_the_package():
    modules, used = _modules_and_uses()
    unused = sorted({f"{getattr(module, name).__module__}.{name}"
                     for module in modules for name in _exported(module)
                     if name not in used})
    assert not unused, f"exported but never called in src/: {unused}"


def test_every_public_method_has_a_caller():
    modules, used = _modules_and_uses()
    bench = {p.stem: ast.parse(p.read_text()) for p in sorted(PERFBENCH.glob("*.py"))}
    used_by_bench = _references(bench)
    classes = {getattr(module, name) for module in modules for name in _exported(module)
               if inspect.isclass(getattr(module, name))}
    unused = sorted(f"{cls.__name__}.{name}" for cls in classes for name in _methods(cls)
                    if name not in used and name not in used_by_bench)
    assert not unused, f"public methods never called in src/ or perfbench/: {unused}"
