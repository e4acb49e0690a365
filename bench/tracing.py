"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each phispec module from outside the
package: every module namespace that holds a reference to the function gets
the wrapper, so calls made through `from .graphs import build_family` are
seen as well as calls through the module attribute.  Each wrapped call records
one span (stage, start, end, parent span, question id) in memory; a call whose
stage equals the enclosing span's stage folds into that span, so spans sit at
layer boundaries.  The evaluators of the weight catalog are wrapped with a
bare counter, because they run once per edge and a span each would swamp the
measurement.

Nothing is patched until `install` is called, and `uninstall` restores every
original object, so untraced answers run the unmodified program.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "graphs", "weights", "matrices", "spectra", "perturbation",
          "closedforms", "exact")

# Functions that get a stage of their own; every other public function is
# traced under its module's name.
STAGES = {
    "parse_family": "graphs.parse",
    "read_edge_list": "graphs.parse",
    "build_family": "graphs.build",
    "delete_edge": "graphs.edit",
    "add_edge": "graphs.edit",
    "is_connected": "graphs.connectivity",
    "assemble": "matrices.assemble",
    "assemble_exact": "matrices.assemble",
    "eigenvalues_sym": "spectra.eigensolve",
    "group": "spectra.group",
    "jacobi_eigen": "exact.jacobi",
    "char_poly_exact": "exact.charpoly",
}


def _count_edges(counts: Counter, result) -> None:
    counts["graphs.edges"] += result.m


def _count_bytes(counts: Counter, result) -> None:
    counts["matrices.bytes_out"] += result.nbytes


def _count_solve(counts: Counter, result) -> None:
    counts["spectra.solve_order_sum"] += len(result)


def _count_jacobi(counts: Counter, result) -> None:
    counts["exact.jacobi_order_sum"] += len(result)


# Work counters read off a function's result.
COUNTERS = {
    "build_family": _count_edges,
    "read_edge_list": _count_edges,
    "delete_edge": _count_edges,
    "add_edge": _count_edges,
    "assemble": _count_bytes,
    "eigenvalues_sym": _count_solve,
    "jacobi_eigen": _count_jacobi,
}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        # one list per span: [stage, start, end, parent index or -1, question id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.question: int | None = None
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, object]] = []
        self._weights: list[tuple[object, object, object]] = []

    def _open(self, stage: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([stage, time.perf_counter(), None, parent, self.question])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, stage: str):
        index = self._open(stage)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, stage: str, fn, counter):
        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == stage:
                return fn(*args, **kwargs)
            index = self._open(stage)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                counter(self.counts, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def prepare(self, package: str = "phispec") -> None:
        """Find every public function of the package's layer modules and every
        module namespace that refers to it; builds the wrappers once."""
        modules = [importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        originals = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                stage = STAGES.get(name, layer)
                originals[id(obj)] = (obj, self._wrap(stage, obj, COUNTERS.get(name)))
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if namespace is None:
                continue
            for name, obj in list(namespace.items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._sites.append((mod, name, obj, hit[1]))
        weights = importlib.import_module(f"{package}.weights")
        for w in weights.catalog():
            self._weights.append((w, w.eval, self._count_phi(w.eval)))

    def _count_phi(self, fn):
        counts = self.counts

        def counted(x, y):
            counts["weights.phi_evals"] += 1
            return fn(x, y)

        return counted

    def install(self) -> None:
        for mod, name, _, wrapper in self._sites:
            setattr(mod, name, wrapper)
        # WeightFunction is a frozen dataclass; its evaluator is swapped in place
        for w, _, counted in self._weights:
            object.__setattr__(w, "eval", counted)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._sites:
            setattr(mod, name, original)
        for w, original, _ in self._weights:
            object.__setattr__(w, "eval", original)

    def stage_times(self) -> tuple[dict[str, float], Counter]:
        """Self time and span count per stage.  A span's self time is its
        duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for stage, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time: dict[str, float] = {}
        calls: Counter = Counter()
        for i, (stage, start, end, _, _) in enumerate(self.spans):
            self_time[stage] = self_time.get(stage, 0.0) + (end - start - child[i])
            calls[stage] += 1
        return self_time, calls

