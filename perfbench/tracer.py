"""Outside-in span tracer for the pimsner_lab package.

The tracer wraps the package's public functions and methods from outside,
so the program's own source is untouched.  Every module namespace that
holds a wrapped function gets the wrapper (``lift`` and ``cli`` import
``fock``/``lift`` names directly; a call through an unwrapped name would
escape its span).  Methods are patched on their class, which every module
shares.

Spans are kept in memory as flat arrays (name id, parent index, start,
end, raised flag) and turned into per-name totals only at the end, so tracing
does no I/O while the workload runs.  Hot tiny methods are counted rather
than spanned: a span costs about a microsecond, which on a method called a
few hundred thousand times per round would distort the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

# Span names (module.Class.method) that are counted, not spanned: each is
# called tens of thousands of times per round and does microseconds of work.
COUNTED = frozenset({
    "hilbert_mod.AMatrix.max_abs",
    "hilbert_mod.AMatrix.from_flat",
    "hilbert_mod.AMatrix.entry",
    "hilbert_mod.AMatrix.set_entry",
    "hilbert_mod.AMatrix.submatrix",
    "hilbert_mod.AMatrix.zeros",
    "hilbert_mod.AMatrix.flatten_block",
    "hilbert_mod.AMatrix.adjoint",
    "hilbert_mod.AMatrix.__mul__",
    "hilbert_mod.AMatrix.__rmul__",
    "hilbert_mod.AMatrix.__add__",
    "hilbert_mod.AMatrix.__sub__",
    "star_core.AElement.__add__",
    "star_core.AElement.__mul__",
    "star_core.AElement.__rmul__",
    "star_core.AlgebraSpec.zero",
    "correspondence.CorrespondenceSpec.fiber_dim",
    "fock.FockWindow.degrees",
    "fock.GradedOperator.set_block",
    "fock.GradedOperator.add_block",
    "fock.GradedOperator.block",
    "fock.compress",
})

# Operator dunders are part of the public API (x @ y, x + y, ...).
PUBLIC_DUNDERS = frozenset({"__matmul__", "__add__", "__sub__", "__mul__",
                            "__rmul__", "__neg__"})

MODULES = ("star_core", "hilbert_mod", "correspondence", "fock",
           "expectation", "lift", "presets", "cli")

# The name under which eigen-solves made inside hilbert_mod are spanned.
EIGEN_SPAN = "hilbert_mod.eigvalsh"


class Tracer:
    """In-memory span store plus counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_raised = array("b")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.eigen_side3 = 0
        self.choi_side_max = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn, on_call=None, on_return=None):
        """Wrap ``fn`` so each call records one span named ``name``."""
        nid = self.name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, raised = self.span_start, self.span_end, self.span_raised
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            raised.append(1)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
                raised[idx] = 0
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, self.name_id(name))

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, returned calls, self seconds and outermost
        inclusive seconds.  Self time is a span's duration minus the
        durations of its direct children."""
        n = len(self.span_start)
        nnames = len(self.names)
        if n == 0:
            return {}
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        ok = np.frombuffer(self.span_raised, dtype=np.int8) == 0
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=n)
        self_s = dur - child_sum
        calls = np.bincount(name, minlength=nnames)
        returned = np.bincount(name[ok], minlength=nnames)
        selft = np.bincount(name, weights=self_s, minlength=nnames)
        outer = self._outermost_totals(name, parent, dur, nnames)
        return {self.names[i]: {"calls": int(calls[i]),
                                "returned": int(returned[i]),
                                "self_s": float(selft[i]),
                                "s": float(outer[i])}
                for i in range(nnames) if calls[i]}

    @staticmethod
    def _outermost_totals(name, parent, dur, nnames):
        """Inclusive time per name, skipping spans nested in a span of the
        same name so recursion is not counted twice."""
        out = np.zeros(nnames)
        for i in range(len(name)):
            p = parent[i]
            while p >= 0 and name[p] != name[i]:
                p = parent[p]
            if p < 0:
                out[name[i]] += dur[i]
        return out

    def root_seconds(self) -> float:
        """Summed duration of the spans that have no parent."""
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        return float(dur[parent < 0].sum())


class _Span:
    __slots__ = ("tracer", "nid", "idx")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid
        self.idx = -1

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.span_start)
        t.span_name.append(self.nid)
        t.span_parent.append(t.stack[-1])
        t.span_end.append(0.0)
        t.span_raised.append(1)
        t.stack.append(self.idx)
        t.span_start.append(time.perf_counter())
        return self

    def __exit__(self, exc_type, exc, tb):
        t = self.tracer
        t.span_end[self.idx] = time.perf_counter()
        t.span_raised[self.idx] = 0 if exc_type is None else 1
        t.stack.pop()
        return False


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------

def _is_public(attr: str) -> bool:
    return not attr.startswith("_") or attr in PUBLIC_DUNDERS


def _numpy_view(tracer: Tracer):
    """A stand-in for ``numpy`` inside hilbert_mod whose ``linalg.eigvalsh``
    is spanned; every other attribute is numpy's own."""
    def on_eig(args, kwargs):
        side = int(np.shape(args[0])[-1])
        tracer.eigen_side3 += side ** 3

    linalg = types.ModuleType("numpy.linalg")
    linalg.__dict__.update(np.linalg.__dict__)
    linalg.eigvalsh = tracer.spanned(EIGEN_SPAN, np.linalg.eigvalsh, on_call=on_eig)
    view = types.ModuleType("numpy")
    view.__dict__.update(np.__dict__)
    view.linalg = linalg
    return view


def install(tracer: Tracer, package):
    """Wrap every public function and method of the package's modules.

    Returns a function that restores the originals."""
    mods = [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
    namespaces = [package] + mods
    undo = []

    def wrap(name, fn, **hooks):
        if name in COUNTED:
            return tracer.counted(name, fn)
        return tracer.spanned(name, fn, **hooks)

    span_hooks = {"hilbert_mod.choi_cp_check": {"on_return": _record_choi_side(tracer)}}

    replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for mod in mods:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__ or not _is_public(attr):
                continue
            if inspect.isfunction(obj):
                name = f"{short}.{attr}"
                replaced[id(obj)] = (obj, wrap(name, obj, **span_hooks.get(name, {})))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_class(obj, f"{short}.{attr}", wrap, undo)
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])
                undo.append((ns, attr, obj))

    hm = sys.modules[f"{package.__name__}.hilbert_mod"]
    undo.append((hm, "np", hm.np))
    hm.np = _numpy_view(tracer)

    def restore():
        for ns, attr, obj in reversed(undo):
            setattr(ns, attr, obj)

    return restore


def _wrap_class(cls, prefix, wrap, undo):
    for attr, raw in list(vars(cls).items()):
        if not _is_public(attr):
            continue
        name = f"{prefix}.{attr}"
        if isinstance(raw, classmethod):
            new = classmethod(wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(wrap(name, raw.__func__))
        elif inspect.isfunction(raw):
            new = wrap(name, raw)
        else:
            continue  # properties and plain attributes stay as they are
        setattr(cls, attr, new)
        undo.append((cls, attr, raw))


def _record_choi_side(tracer: Tracer):
    """After a completed Choi check, record the largest Choi side it built."""
    def on_return(args, kwargs, report):
        table = args[0]
        side = max(table.domain_sides) * table.codomain_dim
        tracer.choi_side_max = max(tracer.choi_side_max, side)
    return on_return
