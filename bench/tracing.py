"""Per-layer tracing for the benchmark, done from outside the program.

The tracer wraps public functions and methods of the ``floerdisk`` modules.
A *span* wrapper records (name, parent span, start, end) for each call; a
*count* wrapper only counts calls, for functions that run tens of thousands
of times per op.  Spans are kept in memory and written out when the run
ends.  A module-level function is rebound in every ``floerdisk.*`` module
that holds it, because ``cli``, ``criterion``, ``invariants``, ``scenario``
and ``potential`` bind names with ``from ... import``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter, defaultdict
from math import gcd

PACKAGE = "floerdisk"
SPAN, COUNT = "span", "count"

# Modules that bind names of other floerdisk modules with ``from ... import``.
FROM_IMPORTERS = ("cli", "criterion", "invariants", "scenario", "potential")

# (module, attribute path, kind, metric prefix)
TARGETS = (
    ("cli", "main", SPAN, "cli.main"),
    ("scenario", "load_scenario", SPAN, "scenario.load_scenario"),
    ("scenario", "builtin_scenario", SPAN, "scenario.builtin_scenario"),
    ("scenario", "combine", SPAN, "scenario.combine"),
    ("scenario", "Scenario.digest", SPAN, "scenario.Scenario.digest"),
    ("scenario", "AffineSubspace.contains", COUNT,
     "scenario.AffineSubspace.contains"),
    ("scenario", "AffineSubspace.coset_key", COUNT,
     "scenario.AffineSubspace.coset_key"),
    ("abelian", "smith_normal_form", SPAN, "abelian.smith_normal_form"),
    ("abelian", "solve_linear", SPAN, "abelian.solve_linear"),
    ("abelian", "kernel_basis", COUNT, "abelian.kernel_basis"),
    ("abelian", "pair", COUNT, "abelian.pair"),
    ("invariants", "oc_low", SPAN, "invariants.oc_low"),
    ("invariants", "boundary_sum", COUNT, "invariants.boundary_sum"),
    ("invariants", "grouped_cancellation", COUNT,
     "invariants.grouped_cancellation"),
    ("invariants", "cancellation_threshold", COUNT,
     "invariants.cancellation_threshold"),
    ("criterion", "evaluate_pair", SPAN, "criterion.evaluate_pair"),
    ("potential", "residue_critical_points", SPAN,
     "potential.residue_critical_points"),
    ("potential", "unit_critical_analysis", SPAN,
     "potential.unit_critical_analysis"),
    ("potential", "evaluate_partials_at", COUNT,
     "potential.evaluate_partials_at"),
    ("potential", "partial_derivative", COUNT, "potential.partial_derivative"),
    ("rings", "reduce", COUNT, "rings.reduce"),
    ("rings", "units_of", COUNT, "rings.units_of"),
    ("rings", "RingElement.__pow__", COUNT, "rings.RingElement.__pow__"),
    ("probes", "search_probes", SPAN, "probes.search_probes"),
    ("probes", "Polytope2.facets", COUNT, "probes.Polytope2.facets"),
    ("probes", "make_probe", COUNT, "probes.make_probe"),
    ("probes", "probe_segment", COUNT, "probes.probe_segment"),
)

# Which layers report calls, total time and self time.  bench/README.md maps
# each layer metric to the end-to-end metric it should move.
CALLS = [prefix + ".calls" for _, _, _, prefix in TARGETS
         if prefix not in ("scenario.Scenario.digest",
                           "potential.unit_critical_analysis")]
TIMED = ("potential.residue_critical_points",
         "potential.unit_critical_analysis",
         "scenario.builtin_scenario", "scenario.combine",
         "abelian.smith_normal_form", "abelian.solve_linear",
         "invariants.oc_low", "criterion.evaluate_pair",
         "probes.search_probes", "cli.main", "scenario.load_scenario",
         "scenario.Scenario.digest")
SELF_TIMED = ("potential.residue_critical_points", "invariants.oc_low",
              "criterion.evaluate_pair", "probes.search_probes", "cli.main")


@functools.lru_cache(maxsize=None)
def primitive_direction_count(bound: int) -> int:
    return sum(1 for dx in range(-bound, bound + 1)
               for dy in range(-bound, bound + 1)
               if (dx, dy) != (0, 0) and gcd(abs(dx), abs(dy)) == 1)


class Tracer:
    """Installs and removes the wrappers, and turns spans into metrics."""

    def __init__(self):
        self.spans = []          # (name, parent index, start, end)
        self.stack = []
        self.counts = Counter()
        self.max_cells = 0
        self.restore = []        # (owner, attribute, original)
        self.rebound = defaultdict(list)   # prefix -> modules rebound
        self.defining = {}                 # prefix -> defining module

    # --- wrappers ------------------------------------------------------------

    def _span(self, prefix, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = self._observers().get(prefix)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (prefix, parent, start, end)
            if observe is not None:
                observe(args, kwargs, result)
            return result
        return wrapper

    def _count(self, prefix, fn):
        counts = self.counts
        key = prefix + ".calls"
        if prefix == "probes.make_probe":
            from floerdisk.errors import InvalidProbe

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[key] += 1
                try:
                    return fn(*args, **kwargs)
                except InvalidProbe:
                    counts["probes.make_probe.rejected"] += 1
                    raise
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _observers(self):
        counts = self.counts

        def snf(args, kwargs, result):
            m = args[0] if args else kwargs["m"]
            rows = len(m)
            cells = rows * (len(m[0]) if rows else 0)
            self.max_cells = max(self.max_cells, cells)

        def residue(args, kwargs, result):
            counts["potential.residue.hits"] += len(result)

        def probes(args, kwargs, result):
            bound = args[2] if len(args) > 2 else kwargs["direction_bound"]
            counts["probes.directions"] += primitive_direction_count(bound)
            counts["probes.hits"] += len(result)

        return {"abelian.smith_normal_form": snf,
                "potential.residue_critical_points": residue,
                "probes.search_probes": probes}

    # --- install / remove ----------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]

    def install(self):
        for module_name, path, kind, prefix in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            make = self._span if kind == SPAN else self._count
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                if isinstance(original, property):
                    wrapped = property(make(prefix, original.fget))
                else:
                    wrapped = make(prefix, original)
                setattr(owner, attr, wrapped)
                self.restore.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapped = make(prefix, original)
            self.defining[prefix] = module.__name__
            for holder in self._modules():
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapped)
                        self.restore.append((holder, name, original))
                        self.rebound[prefix].append(holder.__name__)

    def uninstall(self):
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()

    def rebinding_errors(self) -> list:
        """Module names still bound to an unwrapped original, and modules
        known to bind names with ``from ... import`` where none was rebound."""
        originals = {id(orig) for owner, _, orig in self.restore
                     if isinstance(owner, types.ModuleType)}
        errors = [f"{holder.__name__}.{name}" for holder in self._modules()
                  for name, value in vars(holder).items()
                  if id(value) in originals]
        importers = {module for prefix, modules in self.rebound.items()
                     for module in modules if module != self.defining[prefix]}
        for module in FROM_IMPORTERS:
            if f"{PACKAGE}.{module}" not in importers:
                errors.append(f"{PACKAGE}.{module}: nothing rebound")
        return errors

    # --- metrics -------------------------------------------------------------

    def metrics(self, ops: int, points: int, traced_s: float,
                untraced_s: float) -> dict:
        """Per-layer metrics per op, as {name: {"value": v, "unit": u}}."""
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = Counter()
        child = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name, parent, start, end) in enumerate(self.spans):
            total[name] += end - start
            self_time[name] += end - start - child[index]
            calls[name] += 1
        counts = Counter(self.counts)
        counts.update({f"{name}.calls": n for name, n in calls.items()})

        def per_op(x):
            return x / ops

        def ratio(num, den):
            return num / den if den else 0.0

        out = {key: (per_op(counts[key]), "count")
               for key in CALLS + ["probes.make_probe.rejected"]}
        for name in TIMED:
            out[f"{name}.ms"] = (per_op(total[name]) * 1e3, "ms")
        for name in SELF_TIMED:
            out[f"{name}.self_ms"] = (per_op(self_time[name]) * 1e3, "ms")
        out["abelian.smith_normal_form.max_cells"] = (self.max_cells, "count")
        out["potential.residue.hit_ratio"] = (ratio(
            counts["potential.residue.hits"],
            counts["potential.evaluate_partials_at.calls"]), "ratio")
        out["probes.hit_ratio"] = (ratio(
            counts["probes.hits"], counts["probes.directions"]), "ratio")
        out["criterion.evaluate_pair.calls_per_point"] = (ratio(
            counts["criterion.evaluate_pair.calls"], points), "ratio")
        out["trace.overhead"] = (ratio(traced_s, untraced_s), "ratio")
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in out.items()}

    def write_spans(self, path):
        with open(path, "w") as handle:
            for name, parent, start, end in self.spans:
                handle.write(json.dumps([name, parent, round(start, 7),
                                         round(end - start, 7)]) + "\n")
            handle.write(json.dumps({"counts": dict(self.counts),
                                     "max_cells": self.max_cells}) + "\n")
