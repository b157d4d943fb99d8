"""Span recorder for the traced run, built only on the standard library.

It wraps isfkit's public functions from outside the package: every
module-level function whose name does not start with "_", plus
``IntPolynomial.__mul__``.  A function is rebound at every name that holds
it, because simplicial and patterns import names from graphcore and the
package re-exports polycore's.  Each call becomes a span (name, start, end,
parent, instance) kept in flat in-memory arrays and written out when the run
ends.  A span's self time is its duration minus the time its child spans
take, the recorder's own bookkeeping for those children included, so the
recorder's cost is charged to no layer.
"""

from __future__ import annotations

import contextvars
import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter
from math import factorial
from pathlib import Path

# report and errors count as part of cli
MODULE_LAYER = {
    "polycore": "polycore",
    "graphcore": "graphcore",
    "simplicial": "simplicial",
    "arrangement": "arrangement",
    "patterns": "patterns",
    "cli": "cli",
    "report": "cli",
    "errors": "cli",
}
METHODS = {"polycore": ("IntPolynomial.__mul__",)}


def _permutation_rank(perm) -> int:
    """Position of perm in itertools.permutations(sorted(perm)) order."""
    rest = sorted(perm)
    rank = 0
    for i, v in enumerate(perm):
        idx = rest.index(v)
        rank += idx * factorial(len(perm) - 1 - i)
        rest.pop(idx)
    return rank


def _orderings_tried(args, report) -> int:
    ordering = report.witnesses.get("ordering")
    if ordering is None:
        return factorial(args["G"].n)
    return _permutation_rank(ordering) + 1


def _matrix_cells(args) -> int:
    kept = args["upsilon"].kept_facets
    ridges = {f[:i] + f[i + 1:] for f in kept for i in range(len(f))}
    return len(ridges) * len(kept)


# Work counts taken from the inputs and the output at the call boundary:
# name -> (args, result) -> {stat: increment}
COUNT_HOOKS = {
    "graphcore.count_proper_colorings": lambda a, r: {
        "assignments": a["colors"] ** a["G"].n},
    "graphcore.acyclic_orientation_count": lambda a, r: (
        {"orientations": 2 ** len(a["G"].edges), "acyclic": r}
        if len(a["G"].edges) <= a["orientation_budget"] else {}),
    "graphcore.isf_set_list": lambda a, r: {"sets": len(r)},
    "graphcore.nbc_set_list": lambda a, r: {"sets": len(r)},
    "graphcore.simple_cycles": lambda a, r: {"cycles": len(r)},
    "simplicial.top_homology_rank": lambda a, r: {"matrix_cells": _matrix_cells(a)},
    "simplicial.enumerate_cage_free": lambda a, r: {
        "subsets": 2 ** len(a["delta"].facets), "cage_free": sum(r.values())},
    "simplicial.cage_free_subcomplexes": lambda a, r: {"subcomplexes": len(r)},
    "arrangement.intersection_lattice": lambda a, r: {"elements": r.size},
    "arrangement.is_supersolvable": lambda a, r: {"pairs": a["L"].size ** 2},
    "arrangement.lattice_nbc_sets": lambda a, r: {"sets": len(r)},
    "arrangement.multigraph_isf_polynomial": lambda a, r: (
        {"subsets": 2 ** len(a["G"].edge_list())}
        if len(a["G"].edge_list()) <= a["cross_check_budget"] else {}),
    "arrangement.signed_chromatic_count": lambda a, r: {
        "assignments": (2 * a["s"] + 1) ** a["G"].n},
    "patterns.tf_set_list": lambda a, r: {"forests": len(r)},
    "patterns.tf_integer_roots_classification": lambda a, r: {
        "orderings": _orderings_tried(a, r)},
}

# ratio stat -> (numerator stat, denominator stat)
RATIOS = {
    "acyclic_ratio": ("acyclic", "orientations"),
    "cage_free_ratio": ("cage_free", "subsets"),
}


class Tracer:
    def __init__(self):
        self.instance = -1
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_child = array("d")
        self.span_outer = array("d")
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.name_id: dict[str, int] = {}
        self.stats: dict[str, Counter] = {}
        self.errors: Counter = Counter()
        self.hook_failures: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- installing and removing the wrappers --------------------------------

    def install(self) -> None:
        package = "isfkit"
        wrappers: dict[int, tuple[object, object]] = {}
        for modname, layer in MODULE_LAYER.items():
            mod = sys.modules[f"{package}.{modname}"]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{modname}.{name}", layer, obj))
            for path in METHODS.get(modname, ()):
                cls_name, attr = path.split(".")
                obj = vars(getattr(mod, cls_name))[attr]
                wrappers[id(obj)] = (obj, self._wrap(f"{modname}.{path}", layer, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            spaces = [mod] + [
                v for v in vars(mod).values()
                if isinstance(v, type) and v.__module__ == modname
            ]
            for space in spaces:
                for name, obj in list(vars(space).items()):
                    hit = wrappers.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        setattr(space, name, hit[1])
                        self._restore.append((space, name, obj))

    def uninstall(self) -> None:
        for space, name, obj in reversed(self._restore):
            setattr(space, name, obj)
        self._restore.clear()

    def _wrap(self, qualname: str, layer: str, func):
        nid = len(self.names)
        self.names.append(qualname)
        self.name_layer.append(layer)
        self.name_id[qualname] = nid
        self.calls.append(0)
        self.self_s.append(0.0)
        hook = COUNT_HOOKS.get(qualname)
        signature = inspect.signature(func) if hook else None
        stats = self.stats.setdefault(qualname, Counter())
        current = self._current
        perf = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def span(*args, **kwargs):
            enter = perf()
            parent = current.get()
            sid = tracer._open(nid, parent)
            token = current.set(sid)
            start = perf()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                end = perf()
                current.reset(token)
                tracer._close(sid, nid, start, end)
                if parent < 0 or tracer.name_layer[tracer.span_name[parent]] != layer:
                    tracer.errors[layer] += 1
                tracer._finish(sid, parent, enter)
                raise
            end = perf()
            current.reset(token)
            tracer._close(sid, nid, start, end)
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    stats.update(hook(bound.arguments, result))
                except (AttributeError, KeyError, TypeError):
                    # the function's signature or result changed shape
                    tracer.hook_failures[qualname] += 1
            tracer._finish(sid, parent, enter)
            return result

        return span

    def _open(self, nid: int, parent: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_instance.append(self.instance)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_child.append(0.0)
        self.span_outer.append(0.0)
        return sid

    def _close(self, sid: int, nid: int, start: float, end: float) -> None:
        self.span_start[sid] = start
        self.span_end[sid] = end
        self.calls[nid] += 1
        self.self_s[nid] += end - start - self.span_child[sid]

    def _finish(self, sid: int, parent: int, enter: float) -> None:
        outer = time.perf_counter() - enter
        self.span_outer[sid] = outer
        if parent >= 0:
            self.span_child[parent] += outer

    # -- results -------------------------------------------------------------

    def metric(self, qualname: str, stat: str):
        nid = self.name_id.get(qualname)
        if stat == "calls":
            return 0 if nid is None else self.calls[nid]
        if stat == "self_s":
            return 0.0 if nid is None else self.self_s[nid]
        stats = self.stats.get(qualname, Counter())
        if stat in RATIOS:
            num, den = RATIOS[stat]
            return stats[num] / stats[den] if stats[den] else 0.0
        return stats[stat]

    def by_instance(self) -> tuple[dict[int, float], dict[int, float]]:
        """Per instance: summed span self time, and the recorder's own time
        (each span's bookkeeping outside its start..end interval)."""
        own: dict[int, float] = {}
        recorder: dict[int, float] = {}
        for sid in range(len(self.span_name)):
            inst = self.span_instance[sid]
            inner = self.span_end[sid] - self.span_start[sid]
            own[inst] = own.get(inst, 0.0) + inner - self.span_child[sid]
            recorder[inst] = recorder.get(inst, 0.0) + self.span_outer[sid] - inner
        return own, recorder

    def write_spans(self, path: Path) -> None:
        """One CSV line per span: id, name, start, end, parent, instance."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,name,start_s,end_s,parent,instance\n")
            for sid in range(len(self.span_name)):
                fh.write(
                    f"{sid},{self.names[self.span_name[sid]]},"
                    f"{self.span_start[sid]:.9f},{self.span_end[sid]:.9f},"
                    f"{self.span_parent[sid]},{self.span_instance[sid]}\n"
                )
