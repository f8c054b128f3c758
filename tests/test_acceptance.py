"""Acceptance suite: one test per numbered criterion, all at exact equality.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.
"""

import random
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction

from floerdisk.abelian import (freeze, identity, pair, smith_normal_form,
                               solve_linear)
from floerdisk.criterion import (INCONCLUSIVE, NON_DISPLACEABLE, area_gate,
                                 evaluate_pair)
from floerdisk.invariants import (area_progression, boundary_sum,
                                  cancellation_threshold, least_area,
                                  next_area, oc_low)
from floerdisk.potential import (newton_valuations, potential_from_ledger,
                                 residue_critical_points, truncate_to_level,
                                 unit_critical_analysis)
from floerdisk.probes import builtin_polytope, make_probe, probe_displaces, \
    probe_segment, search_probes
from floerdisk.rings import Ring
from floerdisk.scenario import (Scenario, builtin_scenario, combine,
                                sphere_pair)

from oracles import (determinant, exhaustive_solve_mod, mat_mul,
                     oracle_probe_displaces)

F = Fraction
Z = Ring.integers()
Q = Ring.rationals()
Z2 = Ring.parse("Z/2")
Z4 = Ring.parse("Z/4")
Z8 = Ring.parse("Z/8")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def cp2_pair(a):
    return combine(builtin_scenario("cp2_ta", {"a": a}),
                   builtin_scenario("cp2_clifford"))


def test_criterion_1_cp2_main_pipeline():
    with criterion(1, "CP2 pipeline: sums, invariants, pairing, a < 1/9 sweep"):
        a = F(1, 10)
        side = builtin_scenario("cp2_ta", {"a": a}).side
        assert boundary_sum(side, Z, a).coords == (-8, 0)
        assert boundary_sum(side, Z8, a).coords == (0, 0)
        assert oc_low(side, Z8).value.coords == (4,)

        clifford = builtin_scenario("cp2_clifford").side
        assert oc_low(clifford, Z8).value.coords == (1,)

        scenario = cp2_pair(a)
        pairing = pair(scenario.form, oc_low(side, Z8).value,
                       oc_low(clifford, Z8).value, Z8)
        assert pairing.value == 4 and not pairing.is_zero

        assert next_area(side) == (1 - a) / 2

        for numerator in range(1, 34):
            sweep_a = F(numerator, 150)
            verdict = evaluate_pair(cp2_pair(sweep_a))
            expected = NON_DISPLACEABLE if sweep_a < F(1, 9) else INCONCLUSIVE
            assert verdict.conclusion == expected, sweep_a


def test_criterion_2_p1xp1():
    with criterion(2, "P1xP1: invariants mod 4 and mod 2, a < 1/4 threshold"):
        a = F(1, 5)
        torus = builtin_scenario("p1xp1_ta", {"a": a})
        clifford = builtin_scenario("p1xp1_clifford")
        side, cl = torus.side, clifford.side

        assert oc_low(side, Z4).value.coords == (2, 2)  # 2(H1 + H2)
        plain = evaluate_pair(combine(torus, clifford), ring=Z4)
        assert plain.conclusion == INCONCLUSIVE
        assert "pairing 4" in plain.reason

        left = oc_low(side, Z2, subspace=side.subspace)
        right = oc_low(cl, Z2, subspace=cl.subspace)
        assert left.value.coords == (1, 1)   # H1 + H2
        assert right.value.coords == (0, 1)  # H2
        assert pair(torus.form, left.value, right.value, Z2).value == 1

        for sweep_a in [F(1, 8), F(1, 5), F(6, 25), F(1, 4), F(7, 25)]:
            verdict = evaluate_pair(combine(
                builtin_scenario("p1xp1_ta", {"a": sweep_a}), clifford),
                use_subspaces=True, ring=Z2)
            expected = (NON_DISPLACEABLE if sweep_a < F(1, 4)
                        else INCONCLUSIVE)
            assert verdict.conclusion == expected, sweep_a


def test_criterion_3_bl3():
    with criterion(3, "Bl3: half-level cancels, monotone gate a < 1/4, "
                      "pairing 1 mod 2"):
        a = F(1, 5)
        torus = builtin_scenario("bl3_ta", {"a": a})
        clifford = builtin_scenario("bl3_clifford")
        side = torus.side

        result = cancellation_threshold(side, Z2, subspace=side.subspace)
        assert (F(1, 2), True) in result.levels  # the area-1/2 level cancels
        assert result.threshold is None
        assert result.effective_bound == 1 - a

        # the gate of the monotone variant is a + 1/2 < 1 - a
        assert area_gate(a, F(1, 2), result.effective_bound, None)
        assert not area_gate(F(1, 4), F(1, 2), 1 - F(1, 4), None)

        left = oc_low(side, Z2, subspace=side.subspace)
        right = oc_low(clifford.side, Z2, subspace=clifford.side.subspace)
        assert pair(torus.form, left.value, right.value, Z2).value == 1

        for sweep_a in [F(1, 8), F(1, 5), F(1, 4), F(3, 10)]:
            verdict = evaluate_pair(
                combine(builtin_scenario("bl3_ta", {"a": sweep_a}), clifford),
                use_subspaces=True, monotone_variant=True)
            expected = (NON_DISPLACEABLE if sweep_a < F(1, 4)
                        else INCONCLUSIVE)
            assert verdict.conclusion == expected, sweep_a


def test_criterion_4_cotangent_scenarios():
    with criterion(4, "cotangent scenarios: 2[S2] mod 4, [S2] mod 2, "
                      "4*[RP2] mod 8"):
        ts2 = builtin_scenario("ts2_la", {"a": F(1, 6)}).side
        assert oc_low(ts2, Z4).value.coords == (2,)
        assert oc_low(ts2, Z2, subspace=ts2.subspace).value.coords == (1,)

        trp2 = builtin_scenario("trp2_la", {"a": F(1, 6)}).side
        invariant = oc_low(trp2, Z8)
        assert invariant.value.coords == (4,)
        assert not invariant.value.is_zero(Z8)


def test_criterion_5_progression_and_sphere_gates():
    with criterion(5, "area progression and sphere-pair gate arithmetic"):
        for a in [F(1, 10), F(1, 6), F(3, 16)]:
            progression = area_progression(3, 2, a)
            assert progression.bound == (1 - a) / 2
            side = builtin_scenario("cp2_ta", {"a": a}).side
            for disk in side.ledger.disks:
                assert progression.contains(disk.area)

        for k in (1, 2, 3):
            # below 1/(k+1) both gates pass and the verdict is positive
            param = F(1, k + 1) - F(1, 50)
            assert param + param < F(2, k + 1)
            scenario = sphere_pair(param, param, k)
            assert next_area(scenario.sides[0]) == 1 - (k - 1) * param
            verdict = evaluate_pair(scenario, use_subspaces=True)
            assert verdict.conclusion == NON_DISPLACEABLE, k
            # at the bound the strict gate fails
            at_bound = evaluate_pair(
                sphere_pair(F(1, k + 1), F(1, k + 1), k), use_subspaces=True)
            assert at_bound.conclusion == INCONCLUSIVE, k


def test_criterion_6_local_system_counterexample():
    with criterion(6, "sign local system kills the rational invariant"):
        a = F(1, 10)
        side = builtin_scenario("cp2_ta", {"a": a}).side
        rho = {"dalpha": F(-1), "dbeta": F(1)}
        weighted_sum = boundary_sum(side, Q, a, local_system=rho)
        assert weighted_sum.coords == (0, 0)
        invariant = oc_low(replace(side, local_system=tuple(rho.items())), Q)
        assert invariant.value.coords == (0,)

        scenario = cp2_pair(a)
        weighted_side = replace(scenario.sides[0],
                                local_system=tuple(rho.items()))
        verdict = evaluate_pair(
            Scenario(scenario.h2x, scenario.form,
                     (weighted_side, scenario.sides[1]), scenario.ring),
            ring=Q)
        assert verdict.conclusion == INCONCLUSIVE
        assert "pairing 0" in verdict.reason

        # without the weights nothing cancels over a field or over Z
        from floerdisk.errors import CancellationFails
        for ring in (Q, Z):
            try:
                oc_low(side, ring)
                raised = False
            except CancellationFails:
                raised = True
            assert raised, ring


def test_criterion_7_bulk_potential_analysis():
    with criterion(7, "bulk potential: no unit critical point unless a = 1/3"):
        for a in (F(1, 10), F(1, 5), F(3, 10)):
            side = builtin_scenario("cp2_ta", {"a": a}).side
            report = unit_critical_analysis(
                potential_from_ledger(side, divisor_hits={"b": 1}))
            assert not report.has_unit_candidate, a
            branch = {b.w0: b for b in report.branches}[F(1)]
            assert branch.valuations == ((3 * a - 1) / 6,), a

        side = builtin_scenario("cp2_ta", {"a": F(1, 3)}).side
        report = unit_critical_analysis(
            potential_from_ledger(side, divisor_hits={"b": 1}))
        assert report.has_unit_candidate

        low = truncate_to_level(
            potential_from_ledger(builtin_scenario(
                "cp2_ta", {"a": F(1, 5)}).side), F(1, 5))
        assert (1, 1) in residue_critical_points(low, Z8)
        branches = {b.w0: b for b in unit_critical_analysis(low).branches}
        assert branches[F(-1)].candidate and branches[F(-1)].any_unit_z


def test_criterion_8_probes():
    with criterion(8, "probes: central segment vs off-segment displaceability"):
        tri = builtin_polytope("p1xp1")
        for y in (F(1, 10), F(3, 10), F(1, 2)):
            assert search_probes(tri, (0, y), 3) == [], y
        for y in (F(13, 25), F(7, 10), F(19, 20)):
            assert search_probes(tri, (0, y), 3), y
        rng = random.Random(88)
        for _ in range(60):
            x = F(rng.randint(-39, 39), 40)
            y = F(rng.randint(1, 39), 40)
            if x == 0 or not tri.contains((x, y), strict=True):
                continue
            assert search_probes(tri, (x, y), 3), (x, y)

        # oracle agreement on random probe/point pairs
        checked = 0
        rng = random.Random(13)
        polys = [tri, builtin_polytope("cp2"),
                 __import__("floerdisk").probes.Polytope2(
                     ((0, 0), (2, 0), (2, 2), (0, 2)))]
        while checked < 200:
            poly = rng.choice(polys)
            facet = rng.choice(poly.facets)
            u = F(rng.randint(1, 9), 10)
            base = (facet.start[0] + u * (facet.end[0] - facet.start[0]),
                    facet.start[1] + u * (facet.end[1] - facet.start[1]))
            direction = next(
                ((dx, dy) for dx in range(-2, 3) for dy in range(-2, 3)
                 if facet.normal[0] * dx + facet.normal[1] * dy == 1), None)
            if direction is None:
                continue
            try:
                probe = make_probe(poly, base, direction)
            except Exception:
                continue
            length = probe_segment(poly, probe).length
            s = length * F(rng.randint(0, 12), 12)
            point = (base[0] + s * direction[0], base[1] + s * direction[1])
            assert probe_displaces(poly, probe, point) == \
                oracle_probe_displaces(poly.vertices, base, direction, point)
            checked += 1


def test_criterion_9_property_suites():
    with criterion(9, "property suites: SNF, modular solve, Newton, probes"):
        rng = random.Random(2718)
        for _ in range(500):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = freeze([[rng.randint(-9, 9) for _ in range(cols)]
                        for _ in range(rows)])
            u, d, v = smith_normal_form(m)
            assert mat_mul(mat_mul(u, m), v) == d
            assert abs(determinant(u)) == 1 and abs(determinant(v)) == 1
            diag = [d[i][i] for i in range(min(rows, cols))]
            for x, y in zip(diag, diag[1:]):
                assert (x == 0 and y == 0) or (x != 0 and y % x == 0)

        for _ in range(60):
            n = rng.randint(2, 8)
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            m = [[rng.randint(-4, 4) for _ in range(cols)]
                 for _ in range(rows)]
            b = [rng.randint(-4, 4) for _ in range(rows)]
            got = solve_linear(m, b, Ring.integers_mod(n))
            brute = exhaustive_solve_mod(m, b, n)
            assert (got is None) == (brute == [])
            if got is not None:
                assert got in brute

        for _ in range(100):
            support = {(F(rng.randint(-5, 5), rng.randint(1, 3)),
                        rng.randint(-3, 3)) for _ in range(rng.randint(2, 5))}
            if len({z for _, z in support}) < 2:
                continue
            for v in newton_valuations(support):
                values = [t + n * v for t, n in support]
                m = min(values)
                assert sum(1 for x in values if x == m) >= 2

        # equivariance spot check: shear the p1xp1 picture and compare
        tri = builtin_polytope("p1xp1")
        probe = make_probe(tri, (0, 1), (0, -1))
        point = (0, F(3, 4))
        sheared = __import__("floerdisk").probes.Polytope2(
            tuple((v[0] + 2 * v[1], v[1]) for v in tri.vertices))
        probe2 = make_probe(sheared, (2, 1), (-2, -1))
        assert probe_displaces(sheared, probe2, (point[0] + 2 * point[1],
                                                 point[1])) == \
            probe_displaces(tri, probe, point)
