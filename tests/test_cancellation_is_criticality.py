"""Cancellation is criticality: the invariant's hypothesis checked against
the residue search.

With a local system rho on H1(L) = Z^2, the weighted boundary sum of the
least-area disks is sum n_beta rho^(d beta) d beta.  Its i-th coordinate is
z_i dW/dz_i at rho, where W is the superpotential truncated to the least
area level and z_1, z_2 = z, w.  The z_i are units, so the sum vanishes
exactly when rho is a critical point of W: the low-area form of the
critical-point criterion for torus fibres (Cho-Oh, arXiv:math/0308225).

So two paths that share no code must agree on every unit pair (z, w):
``invariants.oc_low`` raises CancellationFails for the local system (z, w)
exactly when ``potential.residue_critical_points`` leaves (z, w) out.  A
NoLift, or an invariant, means the boundary sum cancelled.  Disks with
zero boundary drop out of both: the selection rule skips them and their
monomials are constants.
"""

from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from floerdisk.errors import CancellationFails, NoLift
from floerdisk.invariants import least_area, oc_low
from floerdisk.potential import (potential_from_ledger,
                                 residue_critical_points, truncate_to_level)
from floerdisk.rings import Ring, _is_prime
from floerdisk.scenario import (A_INTERVALS, BUILTIN_NAMES, DiskClass,
                                DiskLedger, builtin_scenario)

BUILTIN_RINGS = ("Z/8", "F7", "Z/9", "F13", "Z/16", "Z/15")
RANDOM_RINGS = ([Ring.integers_mod(n) for n in range(2, 65)]
                + [Ring.prime_field(p) for p in range(100) if _is_prime(p)])


def _units(ring):
    n = ring.modulus
    return [u for u in range(1, n) if gcd(u, n) == 1]


def _critical_points(side, ring):
    potential = truncate_to_level(potential_from_ledger(side), least_area(side))
    return set(residue_critical_points(potential, ring))


def _cancels(side, ring, z, w):
    """Does oc_low find the boundary sum zero under the local system (z, w)?"""
    z_label, w_label = side.h1.generator_labels
    try:
        oc_low(replace(side, local_system={z_label: z, w_label: w}), ring)
    except CancellationFails:
        return False
    except NoLift:
        pass
    return True


def _agree_on_every_unit_pair(side, ring):
    critical = _critical_points(side, ring)
    units = _units(ring)
    for z in units:
        for w in units:
            assert _cancels(side, ring, z, w) == ((z, w) in critical), (z, w)


BUILTIN_SIDES = [side for name in BUILTIN_NAMES
                 for side in builtin_scenario(
                     name, {"a": Fraction(1, 5)} if name in A_INTERVALS
                     else None).sides
                 if side.ledger.disks]


def test_every_builtin_ledger_is_checked():
    assert {side.name for side in BUILTIN_SIDES} == {
        "T_a", "T_Cl", "That_a", "That_Cl", "Tbar_a", "Lhat_a", "L_a"}


@pytest.mark.parametrize("ring_name", BUILTIN_RINGS)
@pytest.mark.parametrize("side", BUILTIN_SIDES, ids=lambda side: side.name)
def test_builtin_cancellation_is_criticality(side, ring_name):
    _agree_on_every_unit_pair(side, Ring.parse(ring_name))


# One level, boundaries in [-4, 4]^2 and counts 1-3, on the Clifford torus
# of CP^2: H2(X, L) = <H, b1, b2> with boundary map (h, x, y) -> (x, y), so
# the relative class (0, x, y) has boundary (x, y) and the ledger stays
# monotone at area 1/3.
CLIFFORD = builtin_scenario("cp2_clifford").side


def _one_level_side(disks):
    """The Clifford side with a ledger of ((x, y), count) disks."""
    return replace(CLIFFORD, ledger=DiskLedger(tuple(
        DiskClass(f"d{i}", (0, x, y), (x, y), 2, Fraction(1, 3), count)
        for i, ((x, y), count) in enumerate(disks)), None))


# Ledgers whose roots mod p lift in several z groups with unequal w lists,
# while a partial's row of w coefficients repeats across those groups.
# Only about one in 600 random ledgers of 1-4 disks over Z/p^k, p^k <= 64,
# is like this, too few for the random cases below to meet.
LIFTED = [("Z/9", [((-3, -1), 2), ((0, 4), 2), ((1, -2), 3)]),
          ("Z/9", [((0, 3), 2), ((1, 0), 2), ((2, 3), 1)]),
          ("Z/16", [((-4, -1), 2), ((-1, 0), 3), ((1, 2), 3)])]


@pytest.mark.parametrize("ring_name, disks", LIFTED)
def test_lifted_roots_cancellation_is_criticality(ring_name, disks):
    _agree_on_every_unit_pair(_one_level_side(disks), Ring.parse(ring_name))


@st.composite
def ledger_ring_and_pairs(draw):
    boundaries = draw(st.lists(st.tuples(st.integers(-4, 4),
                                         st.integers(-4, 4)),
                               min_size=1, max_size=6))
    side = _one_level_side([(xy, draw(st.integers(1, 3)))
                            for xy in boundaries])
    ring = draw(st.sampled_from(RANDOM_RINGS))
    units = st.sampled_from(_units(ring))
    pairs = draw(st.lists(st.tuples(units, units), min_size=1, max_size=8))
    return side, ring, pairs


@settings(max_examples=150)
@given(ledger_ring_and_pairs())
def test_random_ledger_cancellation_is_criticality(case):
    side, ring, pairs = case
    critical = _critical_points(side, ring)
    # the drawn pairs, which are mostly not critical, and about 16 of the
    # critical ones, spread over the sorted list, which must all cancel
    spread = sorted(critical)[::len(critical) // 16 + 1]
    for z, w in pairs + spread:
        assert _cancels(side, ring, z, w) == ((z, w) in critical), (z, w)
