"""Edge-path coverage: torsion targets in the lift, coset equality with a
nonzero fundamental class, larger prime fields, and integer solving against
constructed witnesses."""

import random
from fractions import Fraction

import pytest

from floerdisk.abelian import (FgAbelianGroup, GroupElement, GroupHom,
                               mat_vec, solve_linear)
from floerdisk.invariants import oc_low
from floerdisk.rings import Ring
from floerdisk.scenario import (AffineSubspace, DiskClass, DiskLedger,
                                LagrangianSide)

F = Fraction
Z = Ring.integers()


def test_solve_linear_integer_witnesses():
    rng = random.Random(7070)
    for _ in range(300):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = tuple(tuple(rng.randint(-6, 6) for _ in range(cols))
                  for _ in range(rows))
        x0 = tuple(rng.randint(-5, 5) for _ in range(cols))
        b = mat_vec(m, x0)
        x = solve_linear(m, b, Z)
        assert x is not None
        assert mat_vec(m, x) == b


def test_solve_linear_scaled_unsolvable():
    rng = random.Random(7171)
    for _ in range(100):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = tuple(tuple(2 * rng.randint(-4, 4) for _ in range(cols))
                  for _ in range(rows))
        b = tuple(2 * rng.randint(-5, 5) + 1 for _ in range(rows))
        # even matrix, odd rhs: no integer solution can exist
        assert solve_linear(m, b, Z) is None


def test_affine_subspace_larger_fields():
    f5 = Ring.prime_field(5)
    sub = AffineSubspace(f5, (1, 2), ((1, 1),))
    assert sub.contains((1, 2))
    assert sub.contains((3, 4))       # (1,2) + 2*(1,1)
    assert sub.contains((-4, -3))     # same, read mod 5
    assert not sub.contains((1, 3))
    # coset keys agree exactly on parallel translates
    assert sub.coset_key((1, 3)) == sub.coset_key((2, 4))
    assert sub.coset_key((1, 3)) != sub.coset_key((1, 2))


def test_subspace_zero_span_is_a_point():
    f2 = Ring.prime_field(2)
    point = AffineSubspace(f2, (1, 0), ())
    assert point.contains((1, 0))
    assert point.contains((3, 2))
    assert not point.contains((0, 0))


def _torsion_target_side():
    # H2(X) = Z<g>, H2(X,L) = <u, b | 4u = 0-ish torsion on a spare
    # generator>: the lift must be solved modulo the relation lattice
    h2x = FgAbelianGroup(("g",))
    h1 = FgAbelianGroup(("x", "y"))
    h2_rel = FgAbelianGroup(("u", "bx", "by", "t"), ((0, 0, 0, 4),))
    j = GroupHom(h2x, h2_rel, ((1,), (0,), (0,), (0,)))
    bd = GroupHom(h2_rel, h1, ((0, 1, 0, 0), (0, 0, 1, 0)))
    disks = (
        # rel classes differ by the torsion generator: 2u + 4t ~ 2u
        DiskClass("p", (1, 1, 0, 2), (1, 0), 2, F(1), 1),
        DiskClass("q", (1, -1, 0, 2), (-1, 0), 2, F(1), 1),
    )
    return LagrangianSide(
        name="torsion-target", h1=h1, h2_rel=h2_rel, j=j, bd=bd,
        fundamental_class=(0,), ledger=DiskLedger(disks, None),
        monotone=True, monotonicity_constant=F(1))


def test_oc_solves_modulo_target_relations():
    side = _torsion_target_side()
    invariant = oc_low(side, Z)
    # disk sum = 2u + 4t = 2u modulo the relation, so the lift is 2g
    assert invariant.value.coords == (2,)
    image = side.j.apply(invariant.value.coords)
    assert image.equals(side.h2_rel.element(invariant.disk_sum), Z)


def test_invariant_coset_equality_with_nonzero_ambiguity():
    h2x = FgAbelianGroup(("g", "l"))
    ambiguity = GroupElement(h2x, (0, 1))
    ring = Ring.parse("Z/4")
    from floerdisk.invariants import StringInvariantClass
    one = StringInvariantClass(value=GroupElement(h2x, (2, 1)), ring=ring,
                               ambiguity=ambiguity)
    # differs by 2 * [L]
    two = StringInvariantClass(value=GroupElement(h2x, (2, 3)), ring=ring,
                               ambiguity=ambiguity)
    other = StringInvariantClass(value=GroupElement(h2x, (3, 1)), ring=ring,
                                 ambiguity=ambiguity)
    assert one.equals(two)
    assert not one.equals(other)
    multiple = StringInvariantClass(value=GroupElement(h2x, (0, 2)),
                                    ring=ring, ambiguity=ambiguity)
    assert multiple.is_zero()
    assert not one.is_zero()


def test_cli_sweep_monotone_variant_threshold():
    import io
    import json
    from floerdisk.cli import main
    out = io.StringIO()
    code = main(["sweep", "--builtin", "bl3_ta", "--vs", "bl3_clifford",
                 "--ring", "Z/2", "--field", "F2", "--monotone-variant",
                 "--param", "a", "--from", "1/5", "--to", "3/10",
                 "--step", "1/20"], out=out)
    assert code == 0
    payload = json.loads(out.getvalue())
    assert payload["result"]["gate_threshold"] == "1/4"
    conclusions = {p["a"]: p["conclusion"]
                   for p in payload["result"]["points"]}
    assert conclusions["1/5"] == "non_displaceable"
    assert conclusions["1/4"] == "inconclusive"
    assert conclusions["3/10"] == "inconclusive"
