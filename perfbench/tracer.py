"""In-memory span tracer that wraps matbisim's functions from outside.

Each wrapped call records a span (layer name, start, end, parent span).
Wrappers replace a function at every import site: every ``matbisim.*``
module attribute bound to the original object is rebound, so ``lts`` using
its own ``rt_closure`` and ``cli`` using its own ``coarsest_partition`` are
both traced.  A target name the program no longer has is listed in
``absent``; it is never an error.

A layer's self time is its spans' durations minus the time covered by their
child spans.  A call counts once per outermost span of its layer, so
``check_lts`` calling ``check_weak_lts`` is one ``lts.check`` call.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _cells(args, kwargs) -> dict:
    a, b = args[0], args[1]
    return {"algebra.matmul.cells": a.rows * a.cols * b.cols}


def _pairs(args, kwargs) -> dict:
    return {"mrc.cluster_keys.pairs": sum(len(b) * (len(b) - 1) // 2 for b in args[0].blocks)}


#: (module, attribute, layer, counter).  ``Class.method`` names a method.
#: Layers ending in ``.signatures`` wrap a factory and the closures it returns.
TARGETS = [
    ("algebra", "ActionMatrix.__matmul__", "algebra.matmul", _cells),
    ("algebra", "rt_closure", "algebra.rt_closure", None),
    ("algebra", "solve_linear", "algebra.solve_linear", None),
    ("partition", "refinement_fixpoint", "partition.refine", None),
    ("partition", "split_by_keys", "partition.split", None),
    ("partition", "Partition.collector_bool", "partition.collector", None),
    ("partition", "Partition.collector_real", "partition.collector", None),
    ("partition", "brute_force_coarsest", "partition.oracle", None),
    ("lts", "check_lts", "lts.check", None),
    ("lts", "check_strong_lts", "lts.check", None),
    ("lts", "check_weak_lts", "lts.check", None),
    ("lts", "check_branching_lts", "lts.check", None),
    ("lts", "refinement_signatures", "lts.signatures", None),
    ("mrc", "ergodic_projection", "mrc.ergodic_projection", None),
    ("mrc", "_cluster_keys", "mrc.cluster_keys", _pairs),
    ("mrc", "transition_matrix", "mrc.transition_matrix", None),
    ("mrc", "default_tau_distributor", "mrc.distributor", None),
    ("mrc", "tau_distributor_residuals", "mrc.distributor", None),
    ("mrc", "check_mrc", "mrc.check", None),
    ("mrc", "check_strong_mrc", "mrc.check", None),
    ("mrc", "check_weak_mrc", "mrc.check", None),
    ("mrc", "check_branching_mrc", "mrc.check", None),
    ("mrc", "refinement_signatures", "mrc.signatures", None),
    ("cli", "_load_model", "cli.parse", None),
    ("cli", "_load_partition", "cli.parse", None),
    ("cli", "_emit", "cli.format", None),
    ("cli", "_format_model", "cli.format", None),
    ("cli", "_digest", "cli.digest", None),
    ("cli", "main", "cli.main", None),
]

#: Generators whose yields are counted (no span): (module, attribute, counter).
COUNTED_YIELDS = [("partition", "enumerate_partitions", "partition.oracle.candidates")]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def layer_id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.names)
            self.names.append(layer)
        return self._ids[layer]

    def wrap(self, fn, layer: str, counter=None):
        lid = self.layer_id(layer)
        name_id, parent, start, end, stack, clock = (
            self.name_id, self.parent, self.start, self.end, self._stack, self.clock)
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                for key, value in counter(args, kwargs).items():
                    counts[key] += value
            idx = len(start)
            name_id.append(lid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def wrap_factory(self, fn, layer: str):
        """Trace a function that returns a callable, and that callable too."""
        traced_factory = self.wrap(fn, layer)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self.wrap(traced_factory(*args, **kwargs), layer)

        return factory

    def count_yields(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return counted

    # -- installing ------------------------------------------------------

    def install(self, package: str = "matbisim") -> None:
        """Wrap every target; names missing from the program go to ``absent``."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        plan = TARGETS + [(mod, attr, key, "yields") for mod, attr, key in COUNTED_YIELDS]
        for mod, attr, layer, counter in plan:
            module = sys.modules.get(f"{package}.{mod}")
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{mod}.{attr}")
                continue
            if counter == "yields":
                wrapped = self.count_yields(original, layer)
            elif layer.endswith(".signatures"):
                wrapped = self.wrap_factory(original, layer)
            else:
                wrapped = self.wrap(original, layer, counter)
            if owner_name:
                self._rebind(owner, member, wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._rebind(m, name, wrapped)

    def _rebind(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- summaries -------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per layer: ``calls`` (outermost spans) and ``self_s``."""
        n = len(self.start)
        out = {name: {"calls": 0.0, "self_s": 0.0} for name in self.names}
        if n == 0:
            return out
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        covered = np.zeros(n)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_s = dur - covered
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)], -1)
        outer = parent_name != names
        k = len(self.names)
        calls = np.bincount(names[outer], minlength=k)
        self_by = np.bincount(names, weights=self_s, minlength=k)
        for i, name in enumerate(self.names):
            out[name] = {"calls": float(calls[i]), "self_s": float(self_by[i])}
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
