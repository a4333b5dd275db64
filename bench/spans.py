"""Tracing from outside the package: wrappers around module attributes.

``Tracer.install`` replaces the public functions of the layer modules,
at every module attribute that refers to them, with wrappers that record
one span per call: name (defining module and function), call site (the
module whose attribute was called), start, end, parent span and
operation id.  The numpy.linalg entry points and the ``solve_triangular``
that the estimator imports are wrapped the same way and counted as
"tall" (more rows than columns) or "square" calls against every open
span.  Spans stay in memory; ``runner.py`` writes them out when the run
ends.  Nothing here is installed in an untraced run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

import numpy

LAYERS = ("cli", "data_model", "kernels", "discontinuities", "estimator", "montecarlo")
# cli has no __all__; these are its entry points.
CLI_ENTRIES = ("main", "estimate_cmd", "diagnose_cmd", "simulate_cmd", "write_series")
LINALG = (
    "cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd",
)


class Span:
    __slots__ = ("index", "name", "site", "parent", "op", "start", "end", "tall", "square")

    def __init__(self, index, name, site, parent, op):
        self.index = index
        self.name = name
        self.site = site
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.tall = self.square = 0

    def to_dict(self, origin: float) -> dict:
        return {
            "name": self.name,
            "site": self.site,
            "start": self.start - origin,
            "end": self.end - origin,
            "parent": self.parent,
            "op": self.op,
            "tall": self.tall,
            "square": self.square,
        }


def _is_tall(a) -> bool:
    shape = getattr(a, "shape", None)
    if shape is None:
        shape = numpy.shape(a)
    return len(shape) == 2 and shape[0] > shape[1]


class Tracer:
    """Records spans for the calls made while installed; ``op`` tags each span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, site: str, fn, linalg: bool = False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = Span(next(tracer._ids), name, site, stack[-1].index if stack else None, tracer.op)
            if linalg:
                kind = "tall" if args and _is_tall(args[0]) else "square"
                setattr(span, kind, 1)
                for open_span in stack:
                    setattr(open_span, kind, getattr(open_span, kind) + 1)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = {layer: sys.modules[f"multirdd.{layer}"] for layer in LAYERS}
        names = {}
        for layer, mod in modules.items():
            for attr in CLI_ENTRIES if layer == "cli" else mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    names[fn] = f"{layer}.{attr}"
        for layer, mod in modules.items():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in names:
                    self._patch(mod, attr, self._wrap(names[value], layer, value))
            if "solve_triangular" in vars(mod):
                fn = mod.solve_triangular
                self._patch(mod, "solve_triangular", self._wrap("linalg.solve_triangular", layer, fn, True))
        for attr in LINALG:
            fn = getattr(numpy.linalg, attr)
            self._patch(numpy.linalg, attr, self._wrap(f"linalg.{attr}", "numpy", fn, True))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _entry_codes() -> set:
    import scipy.linalg

    codes = set()
    for attr in LINALG:
        fn = getattr(numpy.linalg, attr)
        codes.add(getattr(fn, "_implementation", fn).__code__)
    codes.add(scipy.linalg.solve_triangular.__code__)
    return codes


def _first_argument(frame):
    code = frame.f_code
    if code.co_argcount:
        return frame.f_locals.get(code.co_varnames[0])
    if code.co_flags & inspect.CO_VARARGS:
        args = frame.f_locals.get(code.co_varnames[code.co_kwonlyargcount])
        return args[0] if args else None
    return None


def profile_linalg_calls(package_dir: str, fn, *args, **kwargs) -> dict:
    """Count linear-algebra calls made directly from package code, without wrappers.

    An independent check on the tracer's counter: ``sys.setprofile``
    sees every Python-level call, and a call counts when it enters a
    numpy.linalg or solve_triangular entry point from a frame whose file
    lies under ``package_dir``.
    """
    codes = _entry_codes()
    counts = {"tall": 0, "square": 0}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            caller = frame.f_back
            if caller is not None and caller.f_code.co_filename.startswith(package_dir):
                counts["tall" if _is_tall(_first_argument(frame)) else "square"] += 1

    sys.setprofile(hook)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(None)
    return counts


def self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the part of the span's interval that its children cover."""
    covered = 0.0
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, cursor), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (span.end - span.start) - covered
