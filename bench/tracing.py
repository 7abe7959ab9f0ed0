"""Span recorder for the traced benchmark run.

``Tracer.install()`` replaces the public functions of each halfelastica
module (the names in its ``__all__``) by timing wrappers, in the defining
module and in every module that bound the name with ``from .x import name``.
It also wraps scipy's ``solve_ivp`` (layer ``ode``) and ``brentq`` (layer
``root``) as bound in the library modules.  ``uninstall()`` restores every
binding.  Nothing in ``src/`` is edited.

Each call becomes a span: function id, parent span, item id, start and end.
Spans are kept in flat in-memory arrays and written once, by ``save()``,
when the run ends.  A layer's self time is the time inside its spans minus
the time covered by their child spans, so every instant is charged to the
innermost layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

LAYERS = ("ellint", "moduli", "dynamics", "curvegen", "periodmap", "cli")
ODE_BINDINGS = ("dynamics", "curvegen")
ROOT_BINDINGS = ("moduli", "dynamics", "curvegen", "periodmap")
CURVE_BUILDERS = ("bl_curve", "bs_curve", "bt_curve")


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # function id -> (layer, name)
        self.calls: list[int] = []
        self.inclusive: list[float] = []
        self.self_time: list[float] = []
        # one entry per span
        self.span_fid = array("i")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span id, function id, start, child time]
        self.item = -1
        self.ode_rhs_evals = 0
        self.root_f_evals = 0
        self.curve_samples = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _fid(self, layer: str, name: str) -> int:
        self.names.append((layer, name))
        self.calls.append(0)
        self.inclusive.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def _enter(self, fid: int) -> None:
        sid = len(self.span_fid)
        self.span_fid.append(fid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_item.append(self.item)
        self.span_end.append(0.0)
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([sid, fid, start, 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, fid, start, child = self._stack.pop()
        self.span_end[sid] = end
        duration = end - start
        self.calls[fid] += 1
        self.inclusive[fid] += duration
        self.self_time[fid] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    # -- wrappers ---------------------------------------------------------

    def _plain(self, fid: int, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(fid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def _curve_builder(self, fid: int, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(fid)
            try:
                curve = fn(*args, **kwargs)
                self.curve_samples += len(curve.s)
                return curve
            finally:
                self._exit()
        return traced

    def _ode(self, fid: int, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(fid)
            try:
                result = fn(*args, **kwargs)
                self.ode_rhs_evals += int(result.nfev)
                return result
            finally:
                self._exit()
        return traced

    def _root(self, fid: int, fn):
        @functools.wraps(fn)
        def traced(f, a, b, *args, **kwargs):
            caller_wants_full = kwargs.pop("full_output", False)
            self._enter(fid)
            try:
                try:
                    root, info = fn(f, a, b, *args, full_output=True, **kwargs)
                except ValueError:
                    # scipy evaluates f(a) and f(b) before rejecting a bracket
                    # whose ends share a sign
                    self.root_f_evals += 2
                    raise
                self.root_f_evals += int(info.function_calls)
                return (root, info) if caller_wants_full else root
            finally:
                self._exit()
        return traced

    # -- installation -----------------------------------------------------

    def _rebind(self, module, name: str, new) -> None:
        self._restore.append((module, name, getattr(module, name)))
        setattr(module, name, new)

    def install(self) -> None:
        pkg = importlib.import_module("halfelastica")
        modules = {layer: importlib.import_module(f"halfelastica.{layer}")
                   for layer in LAYERS}
        wrapped = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for name in module.__all__:
                fn = getattr(module, name)
                if not callable(fn) or isinstance(fn, type):
                    continue
                fid = self._fid(layer, name)
                make = self._curve_builder if name in CURVE_BUILDERS else self._plain
                wrapped[id(fn)] = make(fid, fn)
        for module in [pkg, *modules.values()]:
            for name, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._rebind(module, name, wrapped[id(value)])
        for layer in ODE_BINDINGS:
            module = modules[layer]
            fid = self._fid("ode", f"solve_ivp@{layer}")
            self._rebind(module, "solve_ivp", self._ode(fid, module.solve_ivp))
        for layer in ROOT_BINDINGS:
            module = modules[layer]
            fid = self._fid("root", f"brentq@{layer}")
            self._rebind(module, "brentq", self._root(fid, module.brentq))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._restore):
            setattr(module, name, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Calls and self seconds of every layer."""
        out: dict[str, dict[str, float]] = {}
        for fid, (layer, _) in enumerate(self.names):
            agg = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            agg["calls"] += self.calls[fid]
            agg["self_s"] += self.self_time[fid]
        return out

    def function(self, layer: str, name: str) -> tuple[int, float]:
        """(calls, inclusive seconds) of one wrapped function."""
        fid = self.names.index((layer, name))
        return self.calls[fid], self.inclusive[fid]

    def child_calls(self, parents: list[tuple[str, str]],
                    child: tuple[str, str]) -> int:
        """Spans of ``child`` whose parent span is one of ``parents``."""
        import numpy as np

        fid = np.frombuffer(self.span_fid, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        mine = (fid == self.names.index(child)) & (parent >= 0)
        parent_fid = fid[parent[mine]]
        return int(np.isin(parent_fid, [self.names.index(p) for p in parents]).sum())

    def save(self, path: str) -> None:
        """Write every span and the function table as one .npz file."""
        import numpy as np

        np.savez(
            path,
            functions=np.array([f"{layer}.{name}" for layer, name in self.names]),
            fid=np.frombuffer(self.span_fid, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            item=np.frombuffer(self.span_item, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
