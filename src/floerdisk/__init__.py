"""Exact-arithmetic toolkit for holomorphic-disk ledgers.

Given the combinatorial data of a Lagrangian surface -- its homology
presentation, connecting maps, intersection form and the finite ledger of
Maslov-index-2 disk families with areas and signed counts -- this package
computes least-area string invariants over a chosen coefficient ring,
evaluates non-displaceability criteria with their area gates, analyses
Landau-Ginzburg superpotentials over the Novikov ring, and decides
moment-polytope probe displaceability.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .rings import Ring, RingElement, reduce, units_of
from .abelian import (FgAbelianGroup, GroupHom, IntersectionForm, pair,
                      smith_normal_form, solve_linear)
from .scenario import (AffineSubspace, BUILTIN_NAMES, DiskClass, DiskLedger,
                       LagrangianSide, Scenario, builtin_scenario, combine,
                       load_scenario, sphere_pair)
from .invariants import (AreaSpectrum, StringInvariantClass, area_progression,
                         area_spectrum, boundary_sum, cancellation_threshold,
                         grouped_cancellation, least_area, next_area, oc_low)
from .criterion import Verdict, evaluate_pair, gate_reason
from .potential import (NovikovPolynomial, NovikovTerm, newton_valuations,
                        partial_derivative, potential_from_ledger,
                        residue_critical_points, truncate_to_level,
                        unit_critical_analysis)
from .probes import (Polytope2, Probe, builtin_polytope, make_probe,
                     probe_displaces, probe_segment, search_probes)
