"""Exact-arithmetic toolkit for holomorphic-disk ledgers.

Given the combinatorial data of a Lagrangian surface -- its homology
presentation, connecting maps, intersection form and the finite ledger of
Maslov-index-2 disk families with areas and signed counts -- this package
computes least-area string invariants over a chosen coefficient ring,
evaluates non-displaceability criteria with their area gates, analyses
Landau-Ginzburg superpotentials over the Novikov ring, and decides
moment-polytope probe displaceability.  All arithmetic is exact.

The public names below, and the submodules themselves, load on first
access (PEP 562), so a process imports only the modules it uses.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "rings": ("Ring", "RingElement", "reduce", "units_of"),
    "abelian": ("FgAbelianGroup", "GroupHom", "IntersectionForm", "pair",
                "smith_normal_form", "solve_linear"),
    "scenario": ("AffineSubspace", "BUILTIN_NAMES", "DiskClass", "DiskLedger",
                 "LagrangianSide", "Scenario", "builtin_scenario", "combine",
                 "load_scenario", "sphere_pair"),
    "invariants": ("AreaSpectrum", "StringInvariantClass", "area_progression",
                   "area_spectrum", "boundary_sum", "cancellation_threshold",
                   "grouped_cancellation", "least_area", "next_area",
                   "oc_low"),
    "criterion": ("Verdict", "evaluate_pair", "gate_reason"),
    "potential": ("NovikovPolynomial", "NovikovTerm", "newton_valuations",
                  "partial_derivative", "potential_from_ledger",
                  "residue_critical_points", "truncate_to_level",
                  "unit_critical_analysis"),
    "probes": ("Polytope2", "Probe", "builtin_polytope", "make_probe",
               "probe_displaces", "probe_segment", "search_probes"),
    "errors": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
