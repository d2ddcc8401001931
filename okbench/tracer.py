"""Span tracing of okselect's layers, from outside the library.

:class:`Tracer` wraps every public function and public method of the layer
modules for the duration of a ``with`` block. A module-level function is
patched at every lookup site: each okselect module that bound it with
``from .kernels import ...`` holds its own reference, so patching the
defining module alone would time nothing. Methods are patched on their
class. On exit, including exit by an exception, every original object is
put back.

Each call records one span: the function's name, start and end in
nanoseconds, the enclosing span, the round index the harness set, and a
work count (kernel values computed, for the kernel primitives). Spans are
kept in flat integer arrays in memory, so a traced pass over a full stream
stays small.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

__all__ = ["LAYERS", "Tracer", "SpanTotals", "patch_sites"]

# The okselect modules timed as layers. ``bench`` stands for the
# benchmark's own loop and ``cli`` is not timed.
LAYERS = (
    "kernels", "rkhs", "reservoir", "hedge", "losses",
    "hinge_learner", "smooth_learner", "raker", "data",
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# Kernel values computed per call, for the primitives that compute them.
_WORK = {
    "kernels.kernel_eval": lambda a, kw: 1,
    "kernels.kernel_column": lambda a, kw: len(_arg(a, kw, 1, "X")),
    "kernels.kernel_gram": lambda a, kw: len(_arg(a, kw, 1, "X")) ** 2,
    "kernels.kernel_cross": lambda a, kw: len(_arg(a, kw, 1, "X1")) * len(_arg(a, kw, 3, "X2")),
}


def patch_sites():
    """(span name, owner, attribute, original) for every lookup site.

    Span names are ``layer.function`` or ``layer.Class.method``.
    """
    okselect_modules = [
        m for name, m in list(sys.modules.items())
        if name == "okselect" or name.startswith("okselect.")
    ]
    sites = []
    for layer in LAYERS:
        mod = importlib.import_module(f"okselect.{layer}")
        for public in mod.__all__:
            obj = getattr(mod, public)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        sites.append((f"{layer}.{obj.__name__}.{attr}", obj, attr, fn))
            elif inspect.isfunction(obj):
                for m in okselect_modules:
                    for attr, val in list(vars(m).items()):
                        if val is obj:
                            sites.append((f"{layer}.{public}", m, attr, obj))
    return sites


class Tracer:
    """Context manager that records a span per call into the layers."""

    def __init__(self):
        self.round = -1  # set by the harness; -1 marks set-up
        self.names: list[str] = []
        self._name = array("q")
        self._parent = array("q")
        self._round = array("q")
        self._start = array("q")
        self._end = array("q")
        self._work = array("q")
        self._stack = [-1]
        self._patched = []

    def __len__(self) -> int:
        return len(self._name)

    def _wrap(self, fn, span_name):
        name_id = len(self.names)
        self.names.append(span_name)
        work = _WORK.get(span_name)
        names, parents, rounds = self._name, self._parent, self._round
        starts, ends, works, stack = self._start, self._end, self._work, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            w = work(args, kwargs) if work is not None else 0
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            rounds.append(tracer.round)
            works.append(w)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def __enter__(self):
        wrappers = {}
        try:
            for span_name, owner, attr, fn in patch_sites():
                if span_name not in wrappers:
                    wrappers[span_name] = self._wrap(fn, span_name)
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrappers[span_name])
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def totals(self, setup: bool = False) -> "SpanTotals":
        """Per-name totals over round spans, or over set-up spans."""
        n = len(self._name)
        name, parent, rnd = (np.array(c, dtype=np.int64) for c in (self._name, self._parent, self._round))
        dur = (np.array(self._end, dtype=np.int64) - np.array(self._start, dtype=np.int64)).astype(float)
        work = np.array(self._work, dtype=float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        keep = rnd < 0 if setup else rnd >= 0
        k = len(self.names)
        return SpanTotals(
            names=list(self.names),
            calls=np.bincount(name[keep], minlength=k),
            incl_ns=np.bincount(name[keep], weights=dur[keep], minlength=k),
            self_ns=np.bincount(name[keep], weights=(dur - child)[keep], minlength=k),
            work=np.bincount(name[keep], weights=work[keep], minlength=k),
        )


@dataclass
class SpanTotals:
    """Calls, inclusive time, self time and work, summed per span name."""

    names: list
    calls: np.ndarray
    incl_ns: np.ndarray
    self_ns: np.ndarray
    work: np.ndarray

    def _select(self, prefix):
        return [i for i, n in enumerate(self.names) if n == prefix or n.startswith(prefix + ".")]

    def count(self, prefix: str) -> int:
        """Calls of one function, or of every function under a layer or class."""
        return int(sum(self.calls[i] for i in self._select(prefix)))

    def inclusive_ns(self, prefix: str) -> float:
        return float(sum(self.incl_ns[i] for i in self._select(prefix)))

    def self_time_ns(self, prefix: str) -> float:
        return float(sum(self.self_ns[i] for i in self._select(prefix)))

    def work_done(self, prefix: str) -> float:
        return float(sum(self.work[i] for i in self._select(prefix)))
