"""Wall-crossing check of the builtin Chekanov-type ledgers.

Auroux (arXiv:0706.3207, section 5) glues the superpotential of the
Chekanov-type tori to that of the Clifford-type tori across the wall by
u = x + y, w = y/x, that is x = u/(1+w) and y = uw/(1+w).  Read t as 1, u as
the dbeta exponent and w as the dalpha exponent.  Then the cp2_ta ledger
must give x + y + 1/(xy) and the p1xp1_ta ledger x + y + 1/x + 1/y, at every
a.  Both sides are compared exactly at seeded rational points off the wall
w = -1 and off w = 0.  The cotangent-bundle ledgers trp2_la and ts2_la drop
the disk of boundary u, which crosses the removed divisor, and keep the rest.

bl3_ta needs no mutation: in the same chart its ledger gives the hexagon's
Clifford potential x + y + 1/x + 1/y + x/y + y/x (the toric del Pezzo
surface of degree 6, whose exotic tori Vianna describes in arXiv:1305.7512)
less its u term, since u^-1 (1+w)^2/w + w + 1/w = 1/x + 1/y + x/y + y/x.
The dropped term is the disk of boundary u and area 1 - a that p1xp1_ta
carries; bl3_ta's ledger is complete only below 1 - a, so the drop is the
cutoff and not a lost disk.

The area half: a disk's area is the symplectic area of its class, so on every
builtin some rational omega on H2(X,L) gives area = omega(rel_class) for each
disk, with omega = 1 on the line class H (on H1 and H2 for P1 x P1 and its
blow-up) and omega(alpha) = 0, wherever those generators exist.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from floerdisk.potential import potential_from_ledger
from floerdisk.scenario import A_INTERVALS, BUILTIN_NAMES, builtin_scenario

A_VALUES = [Fraction(1, 10), Fraction(1, 5), Fraction(1, 4)]


def _points(count=20, seed=1):
    """count seeded rational points (u, w) with u != 0 and w not in {0, -1}."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        u = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        w = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        if u != 0 and w not in (0, -1):
            points.append((u, w))
    return points


POINTS = _points()


def _clifford_coordinates(u, w):
    return u / (1 + w), u * w / (1 + w)


def cp2_mirror(u, w):
    x, y = _clifford_coordinates(u, w)
    return x + y + 1 / (x * y)


def p1xp1_mirror(u, w):
    x, y = _clifford_coordinates(u, w)
    return x + y + 1 / x + 1 / y


def hexagon_mirror(u, w):
    x, y = _clifford_coordinates(u, w)
    return x + y + 1 / x + 1 / y + x / y + y / x


MIRRORS = {"cp2_ta": cp2_mirror, "p1xp1_ta": p1xp1_mirror,
           # bl3_ta, less its u term
           "bl3_ta": lambda u, w: hexagon_mirror(u, w) - u}


def _at_t_one(poly, u, w):
    """The potential with t = 1, its z exponent read on u and its w exponent
    on w; the builtins carry no bulk exponent."""
    return sum((t.coeff * u ** t.z_exp * w ** t.w_exp for t in poly.terms),
               Fraction(0))


def _agrees(side, mirror) -> bool:
    poly = potential_from_ledger(side)
    return all(_at_t_one(poly, u, w) == mirror(u, w) for u, w in POINTS)


def _side(name, a):
    return builtin_scenario(name, {"a": a}).sides[0]


def _mutant(side, label, **changes):
    disks = tuple(replace(d, **changes) if d.label == label else d
                  for d in side.ledger.disks)
    assert disks != side.ledger.disks
    return replace(side, ledger=replace(side.ledger, disks=disks))


@pytest.mark.parametrize("a", A_VALUES)
@pytest.mark.parametrize("name", sorted(MIRRORS))
def test_chekanov_ledger_crosses_the_wall_to_the_clifford_potential(name, a):
    assert _agrees(_side(name, a), MIRRORS[name])


@pytest.mark.parametrize("a", A_VALUES)
@pytest.mark.parametrize("cotangent, compact", [("trp2_la", "cp2_ta"),
                                                ("ts2_la", "p1xp1_ta")])
def test_cotangent_ledger_is_the_compact_one_less_its_u_term(cotangent,
                                                             compact, a):
    compact_terms = potential_from_ledger(_side(compact, a)).terms
    u_terms = [t for t in compact_terms if (t.z_exp, t.w_exp) == (1, 0)]
    assert len(u_terms) == 1
    assert potential_from_ledger(_side(cotangent, a)).terms == tuple(
        t for t in compact_terms if t not in u_terms)


@pytest.mark.parametrize("label, changes", [
    ("H-2b", {"count": 1}),
    ("H-2b+a", {"boundary": (-2, -1)})], ids=["count", "sign"])
def test_a_mutated_cp2_ledger_fails_the_check(label, changes):
    side = _side("cp2_ta", Fraction(1, 5))
    assert _agrees(side, cp2_mirror)
    assert not _agrees(_mutant(side, label, **changes), cp2_mirror)


@pytest.mark.parametrize("a", A_VALUES)
def test_bl3_ledger_stops_at_the_u_disk(a):
    u_disks = [d for d in _side("p1xp1_ta", a).ledger.disks
               if d.boundary == (1, 0)]
    assert [d.area for d in u_disks] == \
        [_side("bl3_ta", a).ledger.complete_below]


@pytest.mark.parametrize("label, changes", [
    ("H1-E1+a", {"boundary": (0, -1)}),
    ("H2-E2-a", {"count": 2})], ids=["sign", "count"])
def test_a_mutated_bl3_ledger_fails_the_check(label, changes):
    side = _side("bl3_ta", Fraction(1, 5))
    assert _agrees(side, MIRRORS["bl3_ta"])
    assert not _agrees(_mutant(side, label, **changes), MIRRORS["bl3_ta"])


# --- areas are linear in the relative class ------------------------------------

PINNED = {"H": 1, "H1": 1, "H2": 1, "alpha": 0}


def _solve(rows):
    """A rational solution x of the rows (coefficients, value), each
    sum(c * x) = value, by Gauss-Jordan elimination; None if there is none."""
    rows = [[Fraction(c) for c in coefficients] + [Fraction(value)]
            for coefficients, value in rows]
    width = len(rows[0]) - 1
    pivots = []
    for column in range(width):
        pivot = next((r for r in range(len(pivots), len(rows))
                      if rows[r][column]), None)
        if pivot is None:
            continue
        top = len(pivots)
        rows[top], rows[pivot] = rows[pivot], rows[top]
        rows[top] = [x / rows[top][column] for x in rows[top]]
        for r, row in enumerate(rows):
            if r != top and row[column]:
                rows[r] = [x - row[column] * y for x, y in zip(row, rows[top])]
        pivots.append(column)
    if any(not any(row[:-1]) and row[-1] for row in rows):
        return None
    x = [Fraction(0)] * width
    for row, column in zip(rows, pivots):
        x[column] = row[-1]
    return x


def _area_form(side):
    """omega as a dict over the H2(X,L) generators, or None."""
    labels = side.h2_rel.generator_labels
    rows = [(disk.rel_class, disk.area) for disk in side.ledger.disks]
    rows += [([int(label == g) for g in labels], value)
             for label, value in PINNED.items() if label in labels]
    omega = _solve(rows)
    return None if omega is None else dict(zip(labels, omega))


def _area_cases():
    for name in BUILTIN_NAMES:
        if name not in A_INTERVALS:
            yield name, None
            continue
        _, high, top_allowed = A_INTERVALS[name]
        yield from ((name, a) for a in A_VALUES[:2])
        if top_allowed:
            yield name, high


@pytest.mark.parametrize("name, a", list(_area_cases()))
def test_disk_areas_are_linear_in_the_relative_class(name, a):
    side = builtin_scenario(name, None if a is None else {"a": a}).sides[0]
    if name == "bl3_clifford":
        assert side.ledger.disks == ()
        return
    omega = _area_form(side)
    assert omega is not None
    for disk in side.ledger.disks:
        assert sum(omega[g] * c for g, c in zip(
            side.h2_rel.generator_labels, disk.rel_class)) == disk.area
    if name == "bl3_ta":
        assert (omega["E1"], omega["E2"]) == (Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("name, label, area", [
    ("cp2_ta", "b", Fraction(1, 3)), ("bl3_ta", "H2-b", Fraction(1, 3)),
    ("ts2_la", "-b+a", Fraction(1, 4))])
def test_a_nonlinear_area_has_no_area_form(name, label, area):
    side = _side(name, Fraction(1, 5))
    assert _area_form(side) is not None
    assert _area_form(_mutant(side, label, area=area)) is None
