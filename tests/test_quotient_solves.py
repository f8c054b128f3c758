"""The quotient solves in solve_linear / kernel_basis, the disk-sum loop,
the cached F_p echelon and the one cancellation routine against the paths
they replaced (tests/oracles.py)."""

import random
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from floerdisk.abelian import FgAbelianGroup, kernel_basis, solve_linear
from floerdisk.errors import FloerDiskError
from floerdisk.invariants import (_in_ambiguity_coset,
                                  _kernel_inside_ambiguity,
                                  cancellation_threshold,
                                  grouped_cancellation, oc_low)
from floerdisk.rings import Ring
from floerdisk.scenario import (AffineSubspace, BUILTIN_NAMES,
                                builtin_scenario, sphere_pair)

from oracles import (append_relation_columns, oracle_cancellation_threshold,
                     oracle_in_ambiguity_coset, oracle_kernel,
                     oracle_kernel_inside_ambiguity, oracle_oc_low,
                     oracle_solve_linear, oracle_subspace_contains)

RINGS = ([Ring.integers(), Ring.rationals()]
         + [Ring.integers_mod(n) for n in range(2, 17)]
         + [Ring.prime_field(p) for p in (2, 3, 5, 7, 11)])


def _matrix(rng, rows, cols, bound=4):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(cols))
                 for _ in range(rows))


def _presentation(rng):
    """A random target of 1-3 generators with 0-2 relation rows, and a map
    into it from 1-3 generators."""
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    return _matrix(rng, rows, cols), _matrix(rng, rng.randint(0, 2), rows)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_solve_linear_matches_hand_built_quotient(ring):
    rng = random.Random(f"solve {ring.name}")
    for _ in range(150):
        m, relations = _presentation(rng)
        b = tuple(rng.randint(-6, 6) for _ in m)
        expected = oracle_solve_linear(append_relation_columns(m, relations),
                                       b, ring)
        if expected is not None:
            expected = expected[:len(m[0])]
        assert solve_linear(m, b, ring, relations=relations) == expected


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_kernel_basis_matches_hand_built_quotient(ring):
    rng = random.Random(f"kernel {ring.name}")
    for _ in range(100):
        m, relations = _presentation(rng)
        matrix = append_relation_columns(m, relations, ring.modulus)
        cols = len(m[0])
        expected = [v[:cols] for v in oracle_kernel(matrix) if any(v[:cols])]
        assert kernel_basis(m, relations, ring) == expected


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
def test_ambiguity_checks_match_hand_built_quotient(ring):
    rng = random.Random(f"ambiguity {ring.name}")
    for _ in range(60):
        j, relations = _presentation(rng)
        cols = len(j[0])
        h2x = FgAbelianGroup(tuple(f"x{i}" for i in range(cols)),
                             _matrix(rng, rng.randint(0, 1), cols))
        h2_rel = FgAbelianGroup(tuple(f"y{i}" for i in range(len(j))),
                                relations)
        fundamental = tuple(rng.randint(-2, 2) for _ in range(h2x.ngens))
        side = SimpleNamespace(h2x=h2x, h2_rel=h2_rel, j=SimpleNamespace(
            matrix=j), fundamental_class=fundamental)
        assert _kernel_inside_ambiguity(side, ring) == \
            oracle_kernel_inside_ambiguity(side, ring)
        coords = tuple(rng.randint(-8, 8) for _ in range(h2_rel.ngens))
        other = tuple(rng.randint(-8, 8) for _ in range(h2_rel.ngens))
        ambiguity = tuple(rng.randint(-3, 3) for _ in range(h2_rel.ngens))
        assert _in_ambiguity_coset(h2_rel, coords, other, ambiguity, ring) \
            == oracle_in_ambiguity_coset(h2_rel, coords, other, ambiguity,
                                         ring)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_subspace_keys_match_snf_membership(p):
    rng = random.Random(f"subspace {p}")
    field = Ring.prime_field(p)
    for _ in range(150):
        dim = rng.randint(1, 4)
        sub = AffineSubspace(field, _matrix(rng, 1, dim, 9)[0],
                             _matrix(rng, rng.randint(0, 3), dim, 9))
        u, v = (_matrix(rng, 1, dim, 12)[0] for _ in range(2))
        assert sub.contains(u) == oracle_subspace_contains(sub, u)
        through_u = AffineSubspace(field, u, sub.span)
        assert (sub.coset_key(u) == sub.coset_key(v)) == \
            oracle_subspace_contains(through_u, v)


def _builtin_sides():
    params = {"a": Fraction(1, 10)}
    for name in BUILTIN_NAMES:
        scenario = builtin_scenario(
            name, params if name.endswith(("_ta", "_la")) else None)
        yield name, scenario.side
    for name, a in (("cp2_ta", Fraction(1, 3)), ("p1xp1_ta", Fraction(1, 2))):
        yield f"{name}:monotone", builtin_scenario(name, {"a": a}).side
    for side in sphere_pair(Fraction(1, 5), Fraction(1, 6), 2).sides:
        yield f"sphere_pair:{side.name}", side
    cp2 = builtin_scenario("cp2_ta", params).side
    for weights in (("1", "3"), ("1", "-1"), ("3", "5")):
        yield f"cp2_ta:local{weights}", replace(
            cp2, local_system=tuple(zip(("dbeta", "dalpha"),
                                        map(Fraction, weights))))


@pytest.mark.parametrize("name, side", list(_builtin_sides()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_oc_low_matches_old_path_on_builtins(name, side):
    subspaces = [None] + [s for s in (
        side.subspace, AffineSubspace(Ring.prime_field(3), (1, 0), ()),
        AffineSubspace(Ring.prime_field(2), (0, 1), ((1, 1),)))
        if s is not None]
    for ring in RINGS:
        for subspace in subspaces:
            try:
                inv = oc_low(side, ring, subspace=subspace)
                got = inv.value.coords, inv.disk_sum, inv.lift_unique
            except Exception as exc:  # compared with the oracle's error name
                got = type(exc).__name__
            assert got == oracle_oc_low(side, ring, subspace), \
                (name, ring.name, subspace)


def _weighted_levels(side, ring, subspace):
    """Each ledger level's cancellation weighted by the side's local system,
    or the name of the FloerDiskError raised."""
    try:
        return tuple((level, grouped_cancellation(
            side, subspace, ring, level, side.local_system_dict())[0])
            for level in side.ledger.levels)
    except FloerDiskError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("name, side", list(_builtin_sides()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_threshold_matches_two_branch_path_on_builtins(name, side):
    subspaces = [None] + ([side.subspace] if side.subspace else [])
    for ring in RINGS:
        for subspace in subspaces:
            got = cancellation_threshold(side, ring, subspace=subspace)
            assert (got.threshold, got.cutoff, got.levels) == \
                oracle_cancellation_threshold(side, ring, subspace), \
                (name, ring.name, subspace)
            if side.local_system is None:
                continue
            expected = oracle_cancellation_threshold(side, ring, subspace,
                                                     weighted=True)
            got = _weighted_levels(side, ring, subspace)
            assert got == (expected if isinstance(expected, str)
                           else expected[2]), (name, ring.name, subspace)
