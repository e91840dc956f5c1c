"""Per-layer tracing of qfoundry, applied from outside the package.

:func:`install` wraps every public module-level function of the eight
layer modules, rebinds each alias of it held by another qfoundry module
(``from .report import render_json`` and the like), and rebuilds
``verify.CORE_CHECKS``, whose entries hold the check functions directly.
``inequalities.minimize`` gets a counting hook for the Nelder-Mead
evaluation count. :meth:`Tracer.remove` puts every original object back.

The report module's per-value helpers (``HELPERS``) stay unwrapped inside
that module: ``render_json`` recurses and ``format_number`` runs once per
number, some 80k calls for a 9001-row table, so wrapping those calls would
time the tracer rather than the rendering. Other modules' aliases of them
are wrapped.

Each wrapped call is a span. Per function the tracer keeps the number of
calls, the exceptions raised and the time of the outermost calls; per layer
it keeps calls, errors, self time (span time minus the time of nested
wrapped spans), the time while the layer is on the stack, and the size of
the strings the layer returned at its outermost level. :func:`layer_metrics`
turns these raw sums into per-op metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import Counter
from time import perf_counter_ns

LAYERS = ("qcore", "hvmodels", "inequalities", "fock", "popper", "report", "verify", "cli")

# functions with metrics of their own: calls and time of outermost calls
COUNTED = (
    "popper.conditional_uncertainties",
    "hvmodels.leggett_expectations",
    "inequalities.chsh_optimize",
    "inequalities.tlm_check",
)
TIMED = ("inequalities.hardy_probabilities", "inequalities.leggett_violation_scan", "cli.main")
HELPERS = ("report.render_json", "report.format_number")


def empty_stats() -> dict:
    return {
        "functions": {},
        "layers": {layer: {"calls": 0, "errors": 0, "ns": 0, "self_ns": 0, "bytes": 0} for layer in LAYERS},
        "checks": {},
        "nfev": 0,
    }


def merge_stats(total: dict, part: dict) -> dict:
    """Add the raw sums of ``part`` into ``total`` (used across cli processes)."""
    for key, stats in part["functions"].items():
        total["functions"].setdefault(key, Counter()).update(stats)
    for layer, stats in part["layers"].items():
        for field, value in stats.items():
            total["layers"][layer][field] += value
    total["checks"].update(part["checks"])
    total["nfev"] += part["nfev"]
    return total


class _Frames(threading.local):
    """One thread's open spans: their child-time cells and the depth per layer and function."""

    def __init__(self):
        self.stack = []
        self.depth = Counter()


class Tracer:
    """Holds the wrappers of one installation and the raw sums they record."""

    def __init__(self):
        self.stats = empty_stats()
        self._lock = threading.Lock()
        self._frames = _Frames()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, count=None):
        key = f"{layer}.{fn.__name__}"
        fstats = self.stats["functions"].setdefault(key, Counter())
        lstats = self.stats["layers"][layer]
        frames = self._frames

        def traced(*args, **kwargs):
            stack, depth = frames.stack, frames.depth
            fn_outer = depth[key] == 0
            layer_outer = depth[layer] == 0
            depth[key] += 1
            depth[layer] += 1
            child_ns = [0]
            stack.append(child_ns)
            failed = True
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                depth[key] -= 1
                depth[layer] -= 1
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    fstats["calls"] += 1
                    fstats["errors"] += failed
                    lstats["calls"] += 1
                    lstats["errors"] += failed
                    lstats["self_ns"] += elapsed - child_ns[0]
                    if fn_outer:
                        fstats["ns"] += elapsed
                    if layer_outer:
                        lstats["ns"] += elapsed
            if layer_outer and isinstance(result, str):
                with self._lock:
                    lstats["bytes"] += len(result.encode("utf-8"))
            if count is not None:
                with self._lock:
                    count(fstats, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def _count_nfev(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            with self._lock:
                self.stats["nfev"] += int(result.nfev)
            return result

        return functools.wraps(fn)(counted)

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"qfoundry.{layer}") for layer in LAYERS}
        counters = {
            ("popper", "conditional_uncertainties"): _count_grid_points,
            ("hvmodels", "leggett_expectations"): _count_samples,
        }
        replacement = {}  # id(original) -> (original, wrapper)
        for layer, module in modules.items():
            for name, value in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                replacement[id(value)] = (value, self.wrap(layer, value, counters.get((layer, name))))
        minimize = modules["inequalities"].minimize
        replacement[id(minimize)] = (minimize, self._count_nfev(minimize))

        def replaced(value):
            original, wrapper = replacement.get(id(value), (None, None))
            return wrapper if original is value else value

        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "qfoundry" or module_name.startswith("qfoundry.")):
                continue
            for name, value in list(vars(module).items()):
                if f"{module_name.removeprefix('qfoundry.')}.{name}" in HELPERS:
                    continue  # the helper's binding in its own module
                wrapper = replaced(value)
                if wrapper is not value:
                    self._restore.append((module, name, value))
                    setattr(module, name, wrapper)

        verify = modules["verify"]
        checks = verify.CORE_CHECKS
        self._restore.append((verify, "CORE_CHECKS", checks))
        verify.CORE_CHECKS = tuple((criterion, name, replaced(fn)) for criterion, name, fn in checks)
        self.stats["checks"] = {name: f"verify.{fn.__name__}" for _, name, fn in checks}
        return self

    def remove(self) -> None:
        while self._restore:
            module, name, value = self._restore.pop()
            setattr(module, name, value)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def _count_grid_points(fstats, args, kwargs, result) -> None:
    grid = kwargs["grid"] if "grid" in kwargs else args[2]
    fstats["grid_points"] += int(grid.points)


def _count_samples(fstats, args, kwargs, result) -> None:
    fstats["samples"] += int(result.n_samples)


def layer_metrics(stats: dict, ops: int, extra: dict) -> dict:
    """Per-op values of the per-layer metrics from raw tracer sums.

    ``extra`` supplies the metrics measured outside the tracer: the import
    and interpreter probes and ``trace.overhead_pct``.
    """
    functions = stats["functions"]
    layers = stats["layers"]

    def fn(key: str, field: str) -> float:
        return functions.get(key, {}).get(field, 0)

    def per_op(value: float) -> float:
        return value / ops

    values = {}
    for check, key in stats["checks"].items():
        values[f"verify.{check}.ms"] = per_op(fn(key, "ns")) / 1e6
    for key in COUNTED:
        values[f"{key}.calls"] = per_op(fn(key, "calls"))
    for key in (*COUNTED, *TIMED):
        values[f"{key}.ms"] = per_op(fn(key, "ns")) / 1e6
    values["popper.grid_points"] = per_op(fn("popper.conditional_uncertainties", "grid_points"))
    values["hvmodels.samples"] = per_op(fn("hvmodels.leggett_expectations", "samples"))
    chsh_calls = fn("inequalities.chsh_optimize", "calls")
    values["inequalities.chsh_optimize.nfev"] = stats["nfev"] / chsh_calls if chsh_calls else 0.0
    values["qcore.calls"] = per_op(layers["qcore"]["calls"])
    values["qcore.ms"] = per_op(layers["qcore"]["self_ns"]) / 1e6
    values["fock.ms"] = per_op(layers["fock"]["self_ns"]) / 1e6
    values["report.render.ms"] = per_op(layers["report"]["ns"]) / 1e6
    values["report.bytes"] = per_op(layers["report"]["bytes"])
    for layer in LAYERS:
        values[f"{layer}.errors"] = per_op(layers[layer]["errors"])
    values.update(extra)
    return values
