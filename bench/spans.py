"""Outside-in span recorder for the traced benchmark run.

The program under test has no tracing of its own, so the benchmark wraps
the public functions of each floer_workbench module from the outside and
records a span per call: name, start, end and parent span id.  Spans and
counters stay in memory; the caller reads them after the run.

Every binding of a wrapped function is replaced, not only the defining
module's attribute: `cli` binds `graded_homology`, `cycle_basis` and
`boundary_basis` by name, `homology` and `connect_sum` bind `kernel_basis`
and `LinearSolver`, the package `__init__` re-exports everything, and
`cli._HANDLERS` holds the command handlers in a dict.  Modules are loaded
through importlib because the package attribute `floer_workbench.homology`
is the function of that name, not the module.

Per-element helpers are counted but not timed: timing them cost 20-33% of
the wall time of `eta w0^3` and of the k=8 self-sum in a prototype.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import threading
import time
from collections import Counter

PACKAGE = "floer_workbench"
LAYERS = ("cli", "fixtures", "complexes", "linalg", "homology", "connect_sum",
          "invariants", "lattice", "polyid")
# layer -> names counted per call without a span
COUNTED_ONLY = {"lattice": ("is_member", "require_member"),
                "linalg": ("dot", "rational")}
# wrapped classes; besides public methods, these operators get spans
CLASSES = {"linalg": ("RatMatrix", "LinearSolver")}
OPERATORS = ("__matmul__", "__add__", "__sub__", "__neg__", "__eq__")
ELIMINATION = ("linalg.rank", "linalg.kernel_basis", "linalg.image_basis",
               "linalg.rref_rows", "linalg.LinearSolver.add",
               "linalg.LinearSolver.express", "linalg.LinearSolver.contains")


def _nnz(value) -> int:
    entries = getattr(value, "entries", None)
    if isinstance(entries, dict):
        return len(entries)
    if isinstance(value, dict):
        return len(value)
    return 0


class Recorder:
    """Spans as [name, start_ns, end_ns, parent_id]; ids are list indices."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._main = threading.get_ident()

    def open(self, name: str) -> list:
        rec = [name, time.perf_counter_ns(), 0,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.perf_counter_ns()
        self._stack.pop()

    def timed(self, name: str, fn):
        counts = self.counts
        main = self._main
        after = _RESULT_HOOKS.get(name)
        before = _ARG_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # enumeration worker threads never enter public functions; a
            # span opened there would corrupt the main thread's stack
            if threading.get_ident() != main:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(counts, args)
            counts[name] += 1
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(counts, result)
            return result
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _nnz_first(counts, args):
    counts["linalg.elim_nnz_in"] += _nnz(args[0])
    return args


def _nnz_method(counts, args):
    counts["linalg.elim_nnz_in"] += _nnz(args[1])
    return args


def _nnz_rows(counts, args):
    # rref_rows takes any iterable; read it once and pass the list on
    rows = list(args[0])
    counts["linalg.elim_nnz_in"] += sum(len(r) for r in rows)
    return (rows,) + tuple(args[1:])


def _solver_kept(counts, result):
    if result is not None:
        counts["linalg.solver_kept"] += 1


def _generators(counts, result):
    counts["connect_sum.generators_built"] += result.total.size


def _accepted(counts, result):
    counts["connect_sum.sign_accepted"] += len(result)


def _vectors(counts, result):
    counts["lattice.vectors_out"] += len(result)


_ARG_HOOKS = {"linalg.rank": _nnz_first, "linalg.kernel_basis": _nnz_first,
              "linalg.image_basis": _nnz_first, "linalg.rref_rows": _nnz_rows,
              "linalg.LinearSolver.add": _nnz_method,
              "linalg.LinearSolver.express": _nnz_method,
              "linalg.LinearSolver.contains": _nnz_method}
_RESULT_HOOKS = {"linalg.LinearSolver.add": _solver_kept,
                 "connect_sum.connected_sum_complex": _generators,
                 "connect_sum.disjoint_union_complex": _generators,
                 "connect_sum.sign_search": _accepted,
                 "lattice.congruent_vectors": _vectors}


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield name, obj


class Instrumentation:
    """Installs wrappers on enter and restores every original on exit."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.wrapped = []   # span or counter names, for the self-check
        self._undo = []

    def _set(self, owner, name, value):
        # vars() keeps a classmethod as its descriptor, which getattr unwraps
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def __enter__(self):
        rec = self.recorder
        modules = {layer: importlib.import_module("%s.%s" % (PACKAGE, layer))
                   for layer in LAYERS}
        replacement = {}
        for layer, mod in modules.items():
            counted = COUNTED_ONLY.get(layer, ())
            for name, fn in _public_functions(mod):
                full = "%s.%s" % (layer, name)
                wrap = rec.counted if name in counted else rec.timed
                replacement[fn] = wrap(full, fn)
                self.wrapped.append(full)
            for cls_name in CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_") and name not in OPERATORS:
                        continue
                    full = "%s.%s.%s" % (layer, cls_name, name)
                    if isinstance(attr, classmethod):
                        self._set(cls, name, classmethod(rec.timed(full, attr.__func__)))
                    elif inspect.isfunction(attr):
                        self._set(cls, name, rec.timed(full, attr))
                    else:
                        continue
                    self.wrapped.append(full)
        # argparse does the CLI's parsing; its time belongs to cli.parse_ms
        self._set(argparse.ArgumentParser, "parse_args",
                  rec.timed("cli.parse_args", argparse.ArgumentParser.parse_args))
        self.wrapped.append("cli.parse_args")

        package = importlib.import_module(PACKAGE)
        for mod in [package] + list(modules.values()):
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacement:
                    self._set(mod, name, replacement[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in replacement:
                            self._undo.append((value, key, item))
                            value[key] = replacement[item]
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)
        self._undo.clear()
        return False


def self_times(spans: list) -> list:
    """Self time in ns per span: its duration minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
