"""Per-layer tracing of the incentive_games package, installed from outside.

The package binds names with ``from module import name``, so a function is
reachable through several module namespaces. ``Tracer.install`` replaces the
function in every ``incentive_games`` namespace that binds it, the defining
module included, so calls the package makes internally are counted too.
``Tracer.uninstall`` puts the originals back.

A wrapper records one span per call on a stack: the span's duration goes to
the caller's child time, and the call's self time is its duration minus its
own child time. While ``Tracer.enabled`` is false a wrapper only forwards the
call, so the benchmark's output checks run untraced.

The traced layers are the functions of each module that the package
namespace re-exports, plus ``matrix_games._pair_profiles`` (the vertex-profile
cache) and ``cli.main``. Time spent in a function that is not traced counts as
self time of the traced caller, so a module roll-up ``<module>.self_s`` holds
all time spent in its traced functions' bodies, including private helpers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

MODULES = (
    "lp_kernel",
    "matrix_games",
    "belief_engine",
    "qg_games",
    "oracle",
    "scenarios",
    "cli",
)
# Traced besides the package's exports.
EXTRA = {"matrix_games": ("_pair_profiles",), "cli": ("main",)}
# Reported together as matrix_games.value_curves.
VALUE_CURVES = ("principal_value_curve", "agent_value_curve", "value_curves")


def _candidate_bases(polytope) -> int:
    """Bases the combinatorial enumerator examines for this polytope:
    C(inequality rows, dim - equality rows), with finite bounds counted as
    inequality rows. Computed from the argument, not read from the program."""
    bounds = polytope.bounds
    rows = polytope.constraint_matrix.shape[0]
    rows += sum(math.isfinite(lo) for lo, _ in bounds)
    rows += sum(math.isfinite(hi) for _, hi in bounds)
    k = max(0, polytope.dim - polytope.equality_matrix.shape[0])
    return math.comb(rows, k) if k <= rows else 0


def _argument(fn, name, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _counters(name, fn):
    """(before, after) hooks for the layers that carry counters besides calls
    and self time. `before()` takes a snapshot before the call; `after(snap,
    result, args, kwargs)` returns counter increments. `after` runs on a
    failed call only when `before` is set, with result None."""
    if name == "solve_lp":
        return None, lambda snap, result, args, kwargs: {result.status.value: 1}
    if name == "enumerate_vertices":
        # An empty polytope returns before any basis is examined.
        return None, lambda snap, result, args, kwargs: {
            "candidate_bases": _candidate_bases(_argument(fn, "p", args, kwargs)) if result else 0,
            "vertices": len(result),
        }
    if name == "_pair_profiles":
        def after(snap, result, args, kwargs):
            info = fn.cache_info()
            return {"hits": info.hits - snap.hits, "misses": info.misses - snap.misses}
        return fn.cache_info, after
    if name in VALUE_CURVES:
        return None, lambda snap, result, args, kwargs: {
            "points": _argument(fn, "grid_size", args, kwargs)
        }
    if name == "lower_hull_indices":
        return None, lambda snap, result, args, kwargs: {
            "points": len(_argument(fn, "xs", args, kwargs)),
            "hull_points": len(result),
        }
    if name == "oracle_qg_montecarlo":
        return None, lambda snap, result, args, kwargs: {
            "samples": _argument(fn, "n_samples", args, kwargs)
        }
    return None, None


class Tracer:
    def __init__(self):
        self.enabled = False
        self.totals: dict[str, float] = defaultdict(float)
        self.traced: dict[str, tuple[str, ...]] = {}   # module -> traced names
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        before, after = _counters(key.rsplit(".", 1)[1], fn)
        totals = self.totals
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            snap = before() if before else None
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                totals[key + ".errors"] += 1
                if before:      # a cache counts the miss of a failed call too
                    self._add(key, after(snap, None, args, kwargs))
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals[key + ".calls"] += 1
                totals[key + ".self_s"] += elapsed - frame[0]
            if after:
                self._add(key, after(snap, result, args, kwargs))
            return result

        return traced

    def _add(self, key: str, counters: dict) -> None:
        for counter, value in counters.items():
            self.totals[f"{key}.{counter}"] += value

    def install(self) -> None:
        """Wrap every traced function in every namespace that binds it."""
        package = importlib.import_module("incentive_games")
        modules = {short: importlib.import_module(f"incentive_games.{short}") for short in MODULES}
        exported = {name for name in vars(package) if not name.startswith("_")}
        namespaces = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "incentive_games" or name.startswith("incentive_games."))
        ]
        for short in MODULES:
            module = modules[short]
            names = []
            for name, obj in sorted(vars(module).items()):
                if not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if name in exported or name in EXTRA.get(short, ()):
                    names.append(name)
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._undo.append((ns, attr, original))
            self.traced[short] = tuple(names)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._undo):
            setattr(ns, attr, original)
        self._undo.clear()
        self.enabled = False

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def module_calls(self, short: str) -> float:
        return sum(self.totals[f"{short}.{name}.calls"] for name in self.traced.get(short, ()))

    def module_self_s(self, short: str) -> float:
        return sum(self.totals[f"{short}.{name}.self_s"] for name in self.traced.get(short, ()))

    def layer_metrics(self) -> dict[str, float]:
        """Totals plus the derived metrics: module roll-ups, the merged value
        curves and the enumeration yield."""
        out = {k: v for k, v in self.totals.items()}
        for short in MODULES:
            out[f"{short}.self_s"] = self.module_self_s(short)
        for quantity in ("calls", "points", "self_s"):
            out[f"matrix_games.value_curves.{quantity}"] = sum(
                self.totals[f"matrix_games.{name}.{quantity}"] for name in VALUE_CURVES
            )
        bases = self.totals["lp_kernel.enumerate_vertices.candidate_bases"]
        vertices = self.totals["lp_kernel.enumerate_vertices.vertices"]
        out["lp_kernel.enumerate_vertices.yield"] = vertices / bases if bases else 0.0
        return out
