"""Span tracing of the ``tbhl`` layers from outside the package.

``Tracer.install`` wraps the public functions of every ``tbhl`` module, plus a
few methods, and rebinds every module namespace that holds them, so calls
within a layer and calls between layers are both recorded.  Each call of a
wrapped function is one span: its name, start, end and parent span.  Spans
stay in memory, in flat arrays, until ``Tracer.dump`` writes them out.
Generator functions get no span (their body runs while the caller iterates);
they are counted by the items they yield.

``span_totals`` turns a span table into per-name call counts, inclusive time
and self time; it is plain arithmetic, so the benchmark's tests check it on
synthetic spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = (
    "cli_verify",
    "shifted_domino",
    "hecke_clifford",
    "exact_algebra",
    "signed_permutations",
    "hecke_engine",
    "qsym_typeb",
    "domino_tableaux",
    "special_families",
)

# Leaf helpers that do O(1) or O(n^2) work per call and run millions of times
# per audit (``weakly_above_diagonal`` 3.1M calls, ``length`` 17 calls per
# ``right_inversions``).  A span would cost more than the call it times, so
# their time stays in the caller's span, which is in the same layer.
UNTRACED = frozenset(
    {
        "shifted_domino.weakly_above_diagonal",
        "shifted_domino.entry_is_primed",
        "shifted_domino.entry_index",
        "shifted_domino.encode_entry",
        "signed_permutations.length",
        "signed_permutations.simple_reflection",
        "signed_permutations.generator_indices",
        "signed_permutations.braid_exponent",
        "signed_permutations.identity",
        "hecke_clifford.clifford_normalize",
        "hecke_clifford.mult_subsets",
        "hecke_clifford.pi_commute",
        "hecke_clifford.k_factor",
    }
)

# Methods traced besides the public functions: sparse matrix arithmetic, and
# the monomial of a semistandard tableau, which ``verify_stand_theorem`` calls
# once per tableau whose standardization matches (a matched fibre member).
METHODS = {
    "exact_algebra": {
        "SparseMatrix": ("__matmul__", "__add__", "scale", "is_invertible"),
    },
    "shifted_domino": {"ShiftedSemistandardTableau": ("monomial",)},
}


# The audit builders of ``tbhl verify all``; each returns its list of cases.
AUDIT_SECTIONS = (
    "cases_family_relations",
    "cases_random_convex",
    "cases_arc",
    "cases_unimodal",
    "cases_domino",
    "cases_shifted",
    "cases_clifford",
    "clifford_audit_cases",
    "cases_morphisms",
    "cases_induction",
    "cases_qsym",
)


def _nnz(result) -> int:
    return len(result.entries)


# Work counted from a call's result: span name -> (counter suffix, measure).
RESULT_COUNTERS = {
    "exact_algebra.SparseMatrix.__matmul__": ("nnz", _nnz),
    **{f"cli_verify.{section}": ("cases", len) for section in AUDIT_SECTIONS},
}


def _is_traceable(value, module_name: str) -> bool:
    if getattr(value, "__module__", None) != module_name:
        return False
    return inspect.isfunction(value) or hasattr(value, "cache_info")


class Tracer:
    """Records spans of wrapped ``tbhl`` calls in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, int] = {}
        self.cached: dict[str, object] = {}
        self._stack = [-1]

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, func, measure=None):
        name_id = len(self.names)
        self.names.append(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter
        if measure is not None:
            counter, count = measure
            counter = f"{name}.{counter}"
            self.counters[counter] = 0
        counters = self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if measure is not None:
                counters[counter] += count(result)
            return result

        return traced

    def _generator(self, name: str, func):
        counter = f"{name}.yielded"
        self.counters[counter] = 0
        counters = self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            inner = func(*args, **kwargs)
            try:
                for item in inner:
                    counters[counter] += 1
                    yield item
            finally:
                inner.close()

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every traced callable and rebind it in every ``tbhl`` module."""
        modules = {
            layer: importlib.import_module(f"tbhl.{layer}") for layer in LAYERS
        }
        replaced = {}
        for layer, module in modules.items():
            for attr, value in sorted(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNTRACED or id(value) in replaced:
                    continue
                if not _is_traceable(value, module.__name__):
                    continue
                if inspect.isgeneratorfunction(value):
                    replaced[id(value)] = self._generator(name, value)
                else:
                    if hasattr(value, "cache_info"):
                        self.cached[name] = value
                    replaced[id(value)] = self._span(
                        name, value, RESULT_COUNTERS.get(name)
                    )
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
        for layer, classes in METHODS.items():
            for class_name, methods in classes.items():
                cls = getattr(modules[layer], class_name)
                for method in methods:
                    name = f"{layer}.{class_name}.{method}"
                    setattr(
                        cls,
                        method,
                        self._span(
                            name, vars(cls)[method], RESULT_COUNTERS.get(name)
                        ),
                    )

    # -- output ---------------------------------------------------------

    def cache_info(self) -> dict[str, dict[str, int]]:
        return {
            name: {"hits": info.hits, "misses": info.misses}
            for name, func in self.cached.items()
            for info in [func.cache_info()]
        }

    def dump(self, path: str) -> None:
        """Write the span table and counters: a JSON header line, then arrays."""
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "counters": self.counters,
            "cache": self.cache_info(),
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(out)


def load(path: str) -> tuple[dict, list, list, list, list]:
    """Read a file written by ``Tracer.dump``."""
    with open(path, "rb") as source:
        header = json.loads(source.readline())
        columns = []
        for typecode in ("i", "i", "d", "d"):
            column = array(typecode)
            column.fromfile(source, header["spans"])
            columns.append(column)
    return (header, *columns)


def span_totals(names, name_ids, parents, starts, ends) -> dict[str, dict]:
    """Calls, inclusive time and self time per span name.

    Spans are listed in the order they started, so a parent precedes its
    children.  A span's self time is its duration minus the part of it that
    its child spans cover.  Inclusive time counts only the outermost span of
    each name, so recursion is not counted twice.
    """
    count = len(starts)
    covered: list[list[tuple[float, float]]] = [[] for _ in range(count)]
    for index in range(count):
        parent = parents[index]
        if parent >= 0:
            covered[parent].append((starts[index], ends[index]))
    totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in names}
    for index in range(count):
        name = names[name_ids[index]]
        start, end = starts[index], ends[index]
        busy = 0.0
        reach = start
        for child_start, child_end in sorted(covered[index]):
            child_start = max(child_start, reach)
            child_end = min(child_end, end)
            if child_end > child_start:
                busy += child_end - child_start
                reach = child_end
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - busy
        ancestor = parents[index]
        while ancestor >= 0 and name_ids[ancestor] != name_ids[index]:
            ancestor = parents[ancestor]
        if ancestor < 0:
            entry["s"] += end - start
    return totals


def child_calls(names, name_ids, parents, child: str, parent: str) -> int:
    """Number of spans named ``child`` whose parent span is named ``parent``."""
    child_id, parent_id = names.index(child), names.index(parent)
    return sum(
        1
        for index in range(len(parents))
        if name_ids[index] == child_id
        and parents[index] >= 0
        and name_ids[parents[index]] == parent_id
    )
