"""Per-layer tracing from outside the package.

The package binds its collaborators with ``from .x import y``, so each layer
boundary is patched where it is looked up: the module attribute the caller
resolves at call time.  A wrapper records calls, busy time and self time
(busy time minus the time of nested traced calls) under a span name whose
first dotted part is the layer.  ``Tracer.installed()`` patches for the
duration of a ``with`` block and restores the originals afterwards.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _count_tableau(tracer: "Tracer", args, result) -> None:
    lp = args[0]
    tracer.counts["ratlp.tableau_cells"] += len(lp.constraints) * lp.variable_count


def _count_infeasible(tracer: "Tracer", args, result) -> None:
    if result is None:
        tracer.counts["configlp.cover_lp.infeasible"] += 1


# (module, attribute, span name, hook(tracer, args, result) run after the call)
HOOKS = [
    ("santaclaus.configlp", "solve_lp", "ratlp.solve_lp", _count_tableau),
    ("santaclaus.ratlp", "solve_lp", "ratlp.solve_lp", _count_tableau),
    ("santaclaus.rounding", "solve_feasibility", "ratlp.solve_feasibility", None),
    ("santaclaus.eap", "solve_feasibility", "ratlp.solve_feasibility", None),
    ("santaclaus.configlp", "price_min_knapsack", "configlp.pricing", None),
    ("santaclaus.configlp", "solve_cover_lp", "configlp.cover_lp", _count_infeasible),
    ("santaclaus.pipeline", "find_T_with_seeds", "configlp.find_T", None),
    ("santaclaus.pipeline", "machine_pools", "configlp.machine_pools", None),
    ("santaclaus.pipeline", "clp_to_alp", "configlp.clp_to_alp", None),
    ("santaclaus.pipeline", "check_mclp", "configlp.check_mclp", None),
    ("santaclaus.pipeline", "build_gap_instance", "gapclasses.build", None),
    ("santaclaus.pipeline", "classify_jobs", "gapclasses.classify_jobs", None),
    ("santaclaus.pipeline", "classify_machines", "gapclasses.classify_machines", None),
    ("santaclaus.pipeline", "build_big_graph", "clustering.build_big_graph", None),
    ("santaclaus.pipeline", "eliminate_cycles", "clustering.eliminate_cycles", None),
    ("santaclaus.pipeline", "extract_clusters", "clustering.extract_clusters", None),
    ("santaclaus.pipeline", "bipartite_match", "clustering.bipartite_match", None),
    ("santaclaus.pipeline", "find_perfect_matching", "matching.find_perfect_matching", None),
    ("santaclaus.pipeline", "eap_from_matching", "eap.from_matching", None),
    ("santaclaus.pipeline", "check_eap", "eap.check", None),
    ("santaclaus.pipeline", "restrict_eap", "eap.restrict", None),
    ("santaclaus.pipeline", "select_by_enumeration", "eap.select_by_enumeration", None),
    ("santaclaus.pipeline", "round_assignment", "rounding.round_assignment", None),
    ("santaclaus.pipeline", "verify_allocation", "instances.verify", None),
    ("santaclaus.pipeline", "_solve_no_upper", "pipeline.branch", None),
    ("santaclaus.pipeline", "_solve_clustered", "pipeline.branch", None),
]


class Tracer:
    def __init__(self) -> None:
        # span name -> [calls, busy seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counts: Counter[str] = Counter()
        self._child_time: list[float] = []

    def call(self, name: str, fn, *args, **kwargs):
        self._child_time.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            busy = perf_counter() - t0
            children = self._child_time.pop()
            if self._child_time:
                self._child_time[-1] += busy
            span = self.spans.setdefault(name, [0, 0.0, 0.0])
            span[0] += 1
            span[1] += busy
            span[2] += busy - children
        return result

    def _wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, name, hook in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def busy(self, prefix: str) -> float:
        return sum(s[1] for n, s in self.spans.items() if n == prefix or n.startswith(prefix + "."))

    def self_time(self, prefix: str) -> float:
        return sum(s[2] for n, s in self.spans.items() if n == prefix or n.startswith(prefix + "."))

    def layer_self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, span in self.spans.items():
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + span[2]
        return out
