"""In-memory call tracer for the traced benchmark run.

The tracer wraps, from outside the package, every public function of each
``vnalg`` module in the module that defines it and in every ``vnalg`` module
that imported it by name, plus ``Element``/``FdAlgebra``/``LinMap``
construction and the numpy/scipy eigen and SVD entry points.  Each wrapped
call is a span; the tracer keeps per-function count, self time and busy time
(time with at least one activation on the stack) and, for the functions named
in ``DUP_TRACKED``, how many calls repeat the byte-identical arguments of an
earlier call in the same unit.  Nothing is written until the run ends.

This module imports only the standard library at import time, so that a
process can time ``import vnalg.cli`` before loading it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import time

LAYERS = ("algebra", "spectral", "projections", "division", "maps",
          "measurement", "tensor", "structure", "sampling", "jsonio", "cli",
          "suite")

# Class methods wrapped as spans of the layer that defines the class.
METHODS = (("algebra", "Element", ("__init__", "coords")),
           ("algebra", "FdAlgebra", ("element", "zero", "unit", "scalar",
                                     "basis", "from_coords")),
           ("maps", "LinMap", ("__init__",)))

NUMPY_LINALG = ("svd", "eigh", "eigvalsh", "eig", "eigvals", "pinv", "lstsq",
                "qr", "inv")
SCIPY_LINALG = ("schur",)

DUP_TRACKED = ("measurement.seq_product", "spectral.sqrt")

# Busy-time groups: time with any member active, counted once.
GROUPS = {
    "jsonio.parse": ("jsonio.loads", "jsonio.algebra_from_json",
                     "jsonio.element_from_json", "jsonio.map_from_json"),
    "jsonio.emit": ("jsonio.dumps", "jsonio.algebra_to_json",
                    "jsonio.element_to_json", "jsonio.map_to_json"),
}


def _digest(args, kwargs) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for value in list(args) + sorted(kwargs.items()):
        blocks = getattr(value, "blocks", None)
        if blocks is not None:
            h.update(repr(value.algebra.dims).encode())
            for b in blocks:
                h.update(b.tobytes())
        else:
            h.update(repr(value).encode())
        h.update(b"|")
    return h.digest()


class Tracer:
    """Span accounting for wrapped calls, on between begin_unit and end_unit."""

    def __init__(self):
        self.on = False
        self.stats: dict[str, list] = {}   # name -> [calls, self_s, busy_s]
        self.dup_hits: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._seen: dict[str, set] = {}
        self._group_of = {m: g for g, members in GROUPS.items() for m in members}
        self._patches: list[tuple[object, str, object]] = []

    # -- accounting -------------------------------------------------------

    def begin_unit(self) -> None:
        self._seen = {name: set() for name in DUP_TRACKED}
        self._stack = [[0.0]]
        self._t_unit = time.perf_counter()
        self.on = True

    def end_unit(self) -> float:
        """Stop the unit span; return its wall time and book its self time."""
        self.on = False
        wall = time.perf_counter() - self._t_unit
        self._book("harness.unit", wall - self._stack[0][0], wall)
        self._stack = []
        return wall

    def _book(self, name: str, self_s: float, busy_s: float, calls: int = 1):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += calls
        st[1] += self_s
        st[2] += busy_s

    def _enter(self, name: str) -> int:
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        return depth

    def _call(self, name, fn, args, kwargs):
        if name in self._seen:
            seen = self._seen[name]
            key = _digest(args, kwargs)
            if key in seen:
                self.dup_hits[name] = self.dup_hits.get(name, 0) + 1
            seen.add(key)
        group = self._group_of.get(name)
        depth = self._enter(name)
        gdepth = self._enter(group) if group else 0
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self._stack[-1][0] += dt
            self._depth[name] = depth
            self._book(name, dt - frame[0], dt if depth == 0 else 0.0)
            if group:
                self._depth[group] = gdepth
                if gdepth == 0:
                    self._book(group, 0.0, dt, calls=0)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            return tracer._call(name, fn, args, kwargs)
        return traced

    def merge(self, stats: dict, dup_hits: dict) -> None:
        """Add the counters of another process's tracer."""
        for name, (calls, self_s, busy_s) in stats.items():
            self._book(name, self_s, busy_s, calls)
        for name, hits in dup_hits.items():
            self.dup_hits[name] = self.dup_hits.get(name, 0) + hits

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the package's public functions and the linalg entry points."""
        import numpy as np
        import scipy.linalg

        modules = [importlib.import_module("vnalg")]
        modules += [importlib.import_module(f"vnalg.{layer}") for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for layer, mod in zip(LAYERS, modules[1:]):
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, name, wrapped[id(obj)])
        for layer, cls_name, methods in METHODS:
            cls = getattr(importlib.import_module(f"vnalg.{layer}"), cls_name)
            for meth in methods:
                label = cls_name if meth == "__init__" else f"{cls_name}.{meth}"
                self._patch(cls, meth, self.wrap(f"{layer}.{label}",
                                                 vars(cls)[meth]))
        for name in NUMPY_LINALG:
            self._patch(np.linalg, name,
                        self.wrap(f"linalg.{name}", getattr(np.linalg, name)))
        for name in SCIPY_LINALG:
            self._patch(scipy.linalg, name,
                        self.wrap(f"linalg.{name}", getattr(scipy.linalg, name)))
        # norm(x, 2) of a matrix is a full SVD; other norms are cheap sums.
        norm = np.linalg.norm
        norm2 = self.wrap("linalg.norm2", norm)
        norm_other = self.wrap("linalg.norm", norm)

        def traced_norm(x, ord=None, *args, **kwargs):
            if ord == 2 and np.ndim(x) == 2:
                return norm2(x, ord, *args, **kwargs)
            return norm_other(x, ord, *args, **kwargs)
        self._patch(np.linalg, "norm", traced_norm)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
