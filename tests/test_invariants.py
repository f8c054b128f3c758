import random
from dataclasses import replace
from fractions import Fraction

import pytest

from floerdisk.abelian import (FgAbelianGroup, GroupHom, IntersectionForm,
                               mat_vec, vec_sub)
from floerdisk.errors import (CancellationFails, HypothesisViolated,
                              InsufficientLedger, NoLift)
from floerdisk.invariants import (area_progression, area_spectrum,
                                  boundary_sum, cancellation_threshold,
                                  grouped_cancellation, least_area, next_area,
                                  oc_low)
from floerdisk.rings import Ring
from floerdisk.scenario import (AffineSubspace, DiskClass, DiskLedger,
                                LagrangianSide, Scenario, builtin_scenario)
from oracles import oracle_in_ambiguity_coset

F = Fraction
Z = Ring.integers()
Q = Ring.rationals()
Z2 = Ring.parse("Z/2")
Z4 = Ring.parse("Z/4")
Z8 = Ring.parse("Z/8")
F2 = Ring.prime_field(2)


def cp2(a=F(1, 10)):
    return builtin_scenario("cp2_ta", {"a": a}).side


def pxp(a=F(1, 5)):
    return builtin_scenario("p1xp1_ta", {"a": a}).side


def _is_zero(invariant):
    """Is the invariant a multiple of its ambiguity class over its ring?"""
    zero = (0,) * invariant.group.ngens
    return oracle_in_ambiguity_coset(invariant.group, invariant.value, zero,
                                     invariant.ambiguity, invariant.ring)


# --- area spectrum ----------------------------------------------------------

def test_least_and_next_cp2():
    side = cp2()
    assert least_area(side) == F(1, 10)
    assert next_area(side) == F(9, 20)


def test_least_and_next_p1xp1():
    side = pxp()
    assert least_area(side) == F(1, 5)
    assert next_area(side) == F(4, 5)


def test_monotone_next_is_infinite():
    side = builtin_scenario("cp2_clifford").side
    assert least_area(side) == F(1, 3)
    assert next_area(side) is None


def test_areas_agree_with_brute_scan():
    for side in [cp2(), pxp(), builtin_scenario("bl3_ta", {"a": F(1, 5)}).side]:
        areas = sorted({d.area for d in side.ledger.disks})
        assert least_area(side) == areas[0]
        if len(areas) >= 2:
            assert next_area(side) == areas[1]


def test_next_area_needs_data():
    side = cp2()
    stripped = replace(side,
                       ledger=DiskLedger(side.ledger.at_level(F(1, 10)),
                                         F(2, 10)),
                       lattice_params=None)
    with pytest.raises(InsufficientLedger):
        next_area(stripped)


def test_area_progression_values():
    prog = area_progression(3, 2, F(1, 10))
    assert prog.bound == F(9, 20)
    assert area_progression(1, 1, F(1, 4)).bound == 1
    # gate: the progression only describes the spectrum for a < 1/(k+N)
    with pytest.raises(HypothesisViolated):
        area_progression(3, 1, F(1, 4))
    with pytest.raises(HypothesisViolated):
        area_progression(3, 1, F(1, 3))


def test_cp2_ledger_areas_in_progression():
    for a in [F(1, 10), F(1, 7), F(19, 100)]:
        prog = area_progression(3, 2, a)
        side = cp2(a)
        for disk in side.ledger.disks:
            assert prog.contains(disk.area)


# --- boundary sums and cancellation ------------------------------------------

def test_boundary_sum_cp2_over_z():
    total = boundary_sum(cp2(), Z, F(1, 10))
    assert total == (-8, 0)


def test_boundary_sum_cp2_mod8():
    total = boundary_sum(cp2(), Z8, F(1, 10))
    assert total == (0, 0)


def test_boundary_sum_weighted_rational():
    rho = {"dbeta": F(1), "dalpha": F(-1)}
    total = boundary_sum(cp2(), Q, F(1, 10), local_system=rho)
    assert total == (0, 0)


def test_boundary_sum_single_coset_filter():
    # the two parallel cosets of <dbeta> each sum to -2*dbeta over Z
    side = pxp()
    base = boundary_sum(side, Z, F(1, 5), coset=side.subspace)
    base_x, base_y = side.subspace.base
    parallel = replace(side.subspace, base=(base_x, base_y + 1))
    shifted = boundary_sum(side, Z, F(1, 5), coset=parallel)
    assert base == (-2, 0)
    assert shifted == (-2, 0)


def test_grouped_cancellation_p1xp1():
    side = pxp()
    ok, reports = grouped_cancellation(side, side.subspace, Z2, F(1, 5))
    assert ok
    assert len(reports) == 2
    for report in reports:
        assert report.cancels


def test_grouped_full_space_matches_total():
    side = cp2()
    full = AffineSubspace(F2, (0, 0), ((1, 0), (0, 1)))
    ok, reports = grouped_cancellation(side, full, Z8, F(1, 10))
    assert ok and len(reports) == 1
    total = boundary_sum(side, Z8, F(1, 10))
    assert tuple(reports[0].total) == total


def test_grouped_cancellation_empty_level_is_true():
    side = cp2()
    ok, reports = grouped_cancellation(side, AffineSubspace(F2, (0, 0), ()),
                                       Z8, F(1, 3))
    assert ok and reports == []


# --- the string invariant ------------------------------------------------------

def test_oc_cp2_mod8():
    invariant = oc_low(cp2(), Z8)
    assert invariant.value == (4,)
    assert invariant.selected == ("H-2b-a", "H-2b", "H-2b+a")
    assert invariant.lift_unique
    assert not _is_zero(invariant)


def test_oc_cp2_fails_over_z_and_q():
    for ring in (Z, Q):
        with pytest.raises(CancellationFails) as err:
            oc_low(cp2(), ring)
        assert err.value.boundary_sum == (-8, 0)


def test_oc_cp2_weighted_vanishes():
    rho = {"dbeta": F(1), "dalpha": F(-1)}
    invariant = oc_low(replace(cp2(), local_system=tuple(rho.items())), Q)
    assert invariant.value == (0,)
    assert _is_zero(invariant)


def test_oc_clifford():
    invariant = oc_low(builtin_scenario("cp2_clifford").side, Z8)
    assert invariant.value == (1,)


def test_oc_p1xp1():
    assert oc_low(pxp(), Z4).value == (2, 2)
    side = pxp()
    refined = oc_low(side, Z2, subspace=side.subspace)
    assert refined.value == (1, 1)
    clifford = builtin_scenario("p1xp1_clifford").side
    assert oc_low(clifford, Z2, subspace=clifford.subspace).value == (0, 1)


def test_oc_subspace_full_matches_plain():
    side = pxp()
    full = AffineSubspace(F2, (0, 0), ((1, 0), (0, 1)))
    assert oc_low(side, Z4, subspace=full).value == \
        oc_low(side, Z4).value


def test_oc_lemma_scenarios():
    ts2 = builtin_scenario("ts2_la", {"a": F(1, 7)}).side
    assert oc_low(ts2, Z4).value == (2,)
    assert oc_low(ts2, Z2, subspace=ts2.subspace).value == (1,)
    trp2 = builtin_scenario("trp2_la", {"a": F(1, 7)}).side
    invariant = oc_low(trp2, Z8)
    assert invariant.value == (4,)
    assert invariant.describe() == "4*RP2"
    assert not invariant.group.is_zero(invariant.value, Z8)


def test_oc_asserted_route():
    side = builtin_scenario("bl3_clifford").side
    invariant = oc_low(side, Z2, subspace=side.subspace)
    assert invariant.asserted
    assert invariant.value == (0, 1, 0, 0)
    assert any("asserted" in note for note in invariant.notes)


def test_oc_lift_unique_for_all_builtins():
    # ker j lies inside the ambiguity subgroup for every builtin, so the
    # returned coset is the whole answer
    cases = [(cp2(), Z8), (pxp(), Z4),
             (builtin_scenario("cp2_clifford").side, Z8),
             (builtin_scenario("p1xp1_clifford").side, Z4),
             (builtin_scenario("bl3_ta", {"a": F(1, 5)}).side, Z2),
             (builtin_scenario("ts2_la", {"a": F(1, 7)}).side, Z4),
             (builtin_scenario("trp2_la", {"a": F(1, 7)}).side, Z8)]
    for side, ring in cases:
        invariant = oc_low(side, ring,
                           subspace=side.subspace if ring is Z2 else None)
        assert invariant.lift_unique, side.name


def test_oc_j_image_matches_disk_sum():
    # j applied to the returned lift reproduces the selected disk sum, for
    # every builtin that carries a ledger
    cases = [(cp2(), Z8, None), (pxp(), Z4, None),
             (builtin_scenario("cp2_clifford").side, Z8, None),
             (builtin_scenario("p1xp1_clifford").side, Z4, None),
             (builtin_scenario("ts2_la", {"a": F(1, 9)}).side, Z4, None),
             (builtin_scenario("trp2_la", {"a": F(1, 9)}).side, Z8, None)]
    bl3 = builtin_scenario("bl3_ta", {"a": F(1, 6)}).side
    cases.append((bl3, Z2, bl3.subspace))
    for side, ring, subspace in cases:
        invariant = oc_low(side, ring, subspace=subspace)
        image = mat_vec(side.j.matrix, invariant.value)
        assert side.h2_rel.is_zero(vec_sub(image, invariant.disk_sum), ring)


def _simple_side(disks, ngens_abs=1, cutoff=None, name="synthetic"):
    h2x = FgAbelianGroup(tuple(f"g{i}" for i in range(ngens_abs)))
    h1 = FgAbelianGroup(("x", "y"))
    h2_rel = FgAbelianGroup(
        tuple(f"g{i}" for i in range(ngens_abs)) + ("bx", "by"))
    j_rows = [[1 if r == c else 0 for c in range(ngens_abs)]
              for r in range(ngens_abs)] + [[0] * ngens_abs, [0] * ngens_abs]
    bd_rows = [[0] * ngens_abs + [1, 0], [0] * ngens_abs + [0, 1]]
    side = LagrangianSide(
        name=name, h1=h1, h2_rel=h2_rel,
        j=GroupHom(h2x, h2_rel, tuple(tuple(r) for r in j_rows)),
        bd=GroupHom(h2_rel, h1, tuple(tuple(r) for r in bd_rows)),
        fundamental_class=(0,) * ngens_abs,
        ledger=DiskLedger(tuple(disks), cutoff),
        monotone=True, monotonicity_constant=F(1),
    )
    return side


def test_oc_additive_in_ledgers():
    # two cancelling ledgers at one level: the invariant of the union is the
    # sum of the invariants
    part1 = (DiskClass("p", (1, 1, 0), (1, 0), 2, F(1), 1),
             DiskClass("q", (2, -1, 0), (-1, 0), 2, F(1), 1))
    part2 = (DiskClass("r", (0, 0, 1), (0, 1), 2, F(1), 3),
             DiskClass("s", (1, 0, -1), (0, -1), 2, F(1), 3))
    a = oc_low(_simple_side(part1), Z)
    b = oc_low(_simple_side(part2), Z)
    both = oc_low(_simple_side(part1 + part2), Z)
    assert both.value == tuple(
        x + y for x, y in zip(a.value, b.value))


def test_oc_random_scenarios_lift_property():
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randint(2, 8)
        ring = Ring.integers_mod(n)
        disks = []
        for idx in range(rng.randint(1, 3)):
            bnd = (rng.randint(-3, 3), rng.randint(-3, 3))
            if bnd == (0, 0):
                bnd = (1, 0)
            cls = (rng.randint(-3, 3), bnd[0], bnd[1])
            cnt = rng.randint(1, 3)
            # cancelling pairs keep Condition (3) true over every ring
            disks.append(DiskClass(f"d{idx}", cls, bnd, 2, F(1), cnt))
            disks.append(DiskClass(
                f"d{idx}m", (rng.randint(-3, 3), -bnd[0], -bnd[1]),
                (-bnd[0], -bnd[1]), 2, F(1), cnt))
        side = _simple_side(tuple(disks))
        invariant = oc_low(side, ring)
        image = mat_vec(side.j.matrix, invariant.value)
        assert side.h2_rel.is_zero(vec_sub(image, invariant.disk_sum), ring)


def test_oc_empty_selection_warns():
    # both disks have zero integral boundary: vacuous cancellation, zero value
    disks = (DiskClass("z1", (1, 0, 0), (0, 0), 2, F(1), 1),
             DiskClass("z2", (-1, 0, 0), (0, 0), 2, F(1), 2))
    invariant = oc_low(_simple_side(disks), Z8)
    assert invariant.value == (0,)
    assert any("empty selection" in note for note in invariant.notes)


def test_oc_no_lift_is_scenario_inconsistency():
    # H2(X) = 0 while the least-area sum is 2*u with bd(u) = 2x: cancellation
    # holds mod 4 but nothing maps onto the disk sum
    h2x = FgAbelianGroup(())
    h1 = FgAbelianGroup(("x",))
    h2_rel = FgAbelianGroup(("u",))
    j = GroupHom(h2x, h2_rel, ((),))
    bd = GroupHom(h2_rel, h1, ((2,),))
    side = LagrangianSide(
        name="bad", h1=h1, h2_rel=h2_rel, j=j, bd=bd,
        fundamental_class=(), ledger=DiskLedger(
            (DiskClass("u", (1,), (2,), 2, F(1), 2),), None),
        monotone=True, monotonicity_constant=F(1))
    with pytest.raises(NoLift):
        oc_low(side, Z4)


# --- thresholds -------------------------------------------------------------------

def test_threshold_cp2():
    side = cp2()
    assert cancellation_threshold(side, Z).threshold == F(1, 10)
    result = cancellation_threshold(side, Z8)
    assert result.threshold == F(9, 20)
    assert result.effective_bound == F(9, 20)


def test_threshold_bl3():
    side = builtin_scenario("bl3_ta", {"a": F(1, 5)}).side
    result = cancellation_threshold(side, Z2, subspace=side.subspace)
    assert result.threshold is None
    assert result.cutoff == F(4, 5)
    assert result.effective_bound == F(4, 5)
    assert result.levels == ((F(1, 5), True), (F(1, 2), True))


def test_spectrum_dict():
    assert area_spectrum(cp2()).as_dict() == {"a": "1/10", "A": "9/20"}
    assert area_spectrum(
        builtin_scenario("cp2_clifford").side).as_dict() == \
        {"a": "1/3", "A": "inf"}


def test_local_weight_bit_limit_edge():
    from floerdisk.errors import WeightTooLarge
    from floerdisk.invariants import WEIGHT_BIT_LIMIT, _local_weight
    side = builtin_scenario("cp2_ta", {"a": F(1, 10)}).side
    local = {"dbeta": F(1), "dalpha": F(3, 2)}
    # 3/2 counts one bit per unit of exponent: the limit itself is computed
    weight = _local_weight(side, local, (0, -WEIGHT_BIT_LIMIT), Q)
    assert weight == F(2, 3) ** WEIGHT_BIT_LIMIT
    for coord in (WEIGHT_BIT_LIMIT + 1, -WEIGHT_BIT_LIMIT - 1):
        with pytest.raises(WeightTooLarge):
            _local_weight(side, local, (0, coord), Q)
    # a unit of size one never grows, whatever the exponent
    sign = {"dbeta": F(1), "dalpha": F(-1)}
    assert _local_weight(side, sign, (0, 10 ** 6 + 1), Q) == -1
    assert _local_weight(side, sign, (0, 10 ** 6 + 1), Z) == -1
