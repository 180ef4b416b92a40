"""One tolerance record: every check reads ``DEFAULT_TOL`` where it applies
it, so no public function, method or dataclass takes a tolerance of its
own, and certificates embed that record."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import pimsner_lab
from pimsner_lab.fock import FockWindow
from pimsner_lab.lift import cpap_certificate
from pimsner_lab.presets import PRESETS, build_preset
from pimsner_lab.star_core import DEFAULT_TOL

TOLERANCE_NAMES = {"tol", "tolerances"}


def _public_members():
    """(qualified name, object) for every public function and class defined
    in a module of the package, and every public method (and ``__init__``)
    of those classes."""
    for info in pkgutil.iter_modules(pimsner_lab.__path__):
        mod = importlib.import_module(f"pimsner_lab.{info.name}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = getattr(member, "__func__", member)  # class/static methods
                    if inspect.isfunction(fn) and (attr == "__init__"
                                                   or not attr.startswith("_")):
                        yield f"{info.name}.{name}.{attr}", fn


def test_no_public_callable_or_dataclass_takes_a_tolerance():
    found = []
    for qualname, obj in _public_members():
        if inspect.isclass(obj):
            if dataclasses.is_dataclass(obj):
                found += [f"{qualname} field {f.name}" for f in dataclasses.fields(obj)
                          if f.name in TOLERANCE_NAMES]
        elif callable(obj):
            found += [f"{qualname}({p})" for p in inspect.signature(obj).parameters
                      if p in TOLERANCE_NAMES]
    assert not found, found


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_tolerances_are_the_default_record(name):
    assert build_preset(name).tol is DEFAULT_TOL


def test_certificate_embeds_the_default_record():
    cert = cpap_certificate(build_preset("cuntz2"), 2, [(1, 0)],
                            FockWindow.one_sided(4), seed=0)
    assert cert.to_dict()["tolerances"] == {
        f.name: getattr(DEFAULT_TOL, f.name) for f in dataclasses.fields(DEFAULT_TOL)}
