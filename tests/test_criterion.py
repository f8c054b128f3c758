import io
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from floerdisk.cli import main
from floerdisk.criterion import (INCONCLUSIVE, NON_DISPLACEABLE, TOPOLOGICAL,
                                 evaluate_pair, gate_failure, gate_reason)
from floerdisk.errors import TwoSidedRequired
from floerdisk.rings import Ring
from floerdisk.scenario import (DiskLedger, Scenario, builtin_scenario,
                                combine, sphere_pair)

F = Fraction
Z2 = Ring.parse("Z/2")
Z4 = Ring.parse("Z/4")
Z8 = Ring.parse("Z/8")
Q = Ring.rationals()


def cp2_pair(a=F(1, 10)):
    return combine(builtin_scenario("cp2_ta", {"a": a}),
                   builtin_scenario("cp2_clifford"))


def pxp_pair(a=F(1, 5)):
    return combine(builtin_scenario("p1xp1_ta", {"a": a}),
                   builtin_scenario("p1xp1_clifford"))


def bl3_pair(a=F(1, 5)):
    return combine(builtin_scenario("bl3_ta", {"a": a}),
                   builtin_scenario("bl3_clifford"))


# --- the gate -----------------------------------------------------------------

def test_area_gate_examples():
    assert gate_reason(F(1, 10), F(1, 3), F(9, 20), None) is None
    # 1/8 + 1/3 = 11/24 > 7/16
    assert gate_reason(F(1, 8), F(1, 3), F(7, 16), None) is not None
    assert gate_reason(F(17, 2), F(99), None, None) is None
    # boundary case is strict
    assert gate_reason(F(1, 9), F(1, 3), F(4, 9), None) is not None


def test_gate_failure_reads_both_values_over_den():
    assert gate_failure(5, 5, 10) == (
        "area gate boundary: a+b = 1/2 equals min(A,B)")
    assert gate_failure(3, 2, 4) == "area gate: a+b = 3/4 >= min(A,B) = 1/2"
    assert gate_failure(1, 2, 4) is None
    # no finite bound: the gate passes
    assert gate_failure(1, None, 7) is None


def test_gate_reason_words_the_failures():
    assert gate_reason(F(1, 8), F(1, 3), F(7, 16), None) == (
        "area gate: a+b = 11/24 >= min(A,B) = 7/16")
    assert gate_reason(F(1, 9), F(1, 3), F(4, 9), None) == (
        "area gate boundary: a+b = 4/9 equals min(A,B)")
    assert gate_reason(F(1, 9), F(1, 3), None, F(1, 3)) == (
        "area gate: a+b = 4/9 >= min(A,B) = 1/3")


@pytest.mark.parametrize("asserted, argv, code, expected", [
    (None, ["criterion", "--vs", "cp2_clifford", "--ring", "Z/8"], 0,
     {"conclusion": INCONCLUSIVE,
      "reason": "invariant undefined: side T_a: empty ledger"}),
    ([4], ["criterion", "--vs", "cp2_clifford", "--ring", "Z/8"], 0,
     {"conclusion": INCONCLUSIVE,
      "reason": "area spectrum unavailable: side T_a: empty ledger and no "
                "monotonicity constant"}),
    (None, ["invariant", "--ring", "Z/8"], 4,
     {"type": "InsufficientLedger",
      "message": "side T_a: empty ledger and no monotonicity constant"})])
def test_a_side_with_no_disks(tmp_path, asserted, argv, code, expected):
    doc = builtin_scenario("cp2_ta", {"a": F(1, 10)}).to_json_dict()
    doc["sides"][0]["ledger"]["disks"] = []
    if asserted is not None:
        doc["sides"][0]["asserted_invariant"] = asserted
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    assert main([argv[0], "--scenario", str(path), *argv[1:]], out=out) == code
    document = json.loads(out.getvalue())
    found = document["error"] if code else document["result"]
    assert {key: found[key] for key in expected} == expected


# --- worked pairs ----------------------------------------------------------------

def test_cp2_vs_clifford():
    verdict = evaluate_pair(cp2_pair())
    assert verdict.conclusion == NON_DISPLACEABLE
    assert verdict.theorem == "1.5"
    pairing = [e for e in verdict.audit if e["check"] == "invariant_pairing"]
    assert pairing[0]["value"] == "4"


def test_cp2_self_pairing_vanishes():
    verdict = evaluate_pair(combine(builtin_scenario("cp2_ta", {"a": F(1, 10)}),
                                    builtin_scenario("cp2_ta", {"a": F(1, 10)})))
    assert verdict.conclusion == INCONCLUSIVE
    assert "pairing 16" in verdict.reason


def test_cp2_gate_fails_above_threshold():
    verdict = evaluate_pair(cp2_pair(F(3, 10)))
    assert verdict.conclusion == INCONCLUSIVE
    assert verdict.reason.startswith("area gate")


def test_cp2_boundary_case_flagged():
    verdict = evaluate_pair(cp2_pair(F(1, 9)))
    assert verdict.conclusion == INCONCLUSIVE
    assert "boundary" in verdict.reason
    assert any("continuity" in n for n in verdict.notes)


def test_cp2_sweep_monotonicity():
    # non-displaceable exactly when a + 1/3 < (1-a)/2, i.e. a < 1/9
    for numerator in range(1, 21):
        a = F(numerator, 100)
        verdict = evaluate_pair(cp2_pair(a))
        if a < F(1, 9):
            assert verdict.conclusion == NON_DISPLACEABLE, a
        else:
            assert verdict.conclusion == INCONCLUSIVE, a


def test_p1xp1_plain_inconclusive():
    verdict = evaluate_pair(pxp_pair(), ring=Z4)
    assert verdict.conclusion == INCONCLUSIVE
    assert "pairing 4" in verdict.reason


def test_p1xp1_subspace_route():
    verdict = evaluate_pair(pxp_pair(), use_subspaces=True, ring=Z2)
    assert verdict.conclusion == NON_DISPLACEABLE
    assert verdict.theorem == "1.6"
    gate = [e for e in verdict.audit if e["check"] == "area_gate"][0]
    assert gate["inputs"] == {"a": "1/5", "b": "1/2", "A": "4/5", "B": "inf"}


def test_p1xp1_subspace_threshold():
    for a in [F(1, 10), F(1, 5), F(6, 25), F(1, 4), F(3, 10)]:
        verdict = evaluate_pair(pxp_pair(a), use_subspaces=True, ring=Z2)
        expected = NON_DISPLACEABLE if a < F(1, 4) else INCONCLUSIVE
        assert verdict.conclusion == expected, a


def test_bl3_monotone_variant():
    verdict = evaluate_pair(bl3_pair(), use_subspaces=True,
                            monotone_variant=True)
    assert verdict.conclusion == NON_DISPLACEABLE
    assert verdict.theorem == "2.5"
    gate = [e for e in verdict.audit if e["check"] == "area_gate"][0]
    assert gate["inputs"] == {"a": "1/5", "b": "1/2", "A": "4/5", "B": "inf"}


def test_bl3_plain_route_fails_at_gate():
    # without the threshold redefinition, A = 1/2 and the gate cannot pass
    verdict = evaluate_pair(bl3_pair(), use_subspaces=True)
    assert verdict.conclusion == INCONCLUSIVE
    assert verdict.reason.startswith("area gate")


def test_bl3_monotone_variant_threshold():
    for a in [F(1, 10), F(1, 5), F(1, 4), F(3, 10)]:
        verdict = evaluate_pair(bl3_pair(a), use_subspaces=True,
                                monotone_variant=True)
        expected = NON_DISPLACEABLE if a < F(1, 4) else INCONCLUSIVE
        assert verdict.conclusion == expected, a


def test_sphere_pair_gates():
    # the subspace invariants pair to [S].[S'] = 1 mod 2; the gate passes for
    # parameters below 1/(k+1)
    for k in (1, 2, 3):
        below = F(1, k + 1) - F(1, 100)
        verdict = evaluate_pair(sphere_pair(below, below, k),
                                use_subspaces=True)
        assert verdict.conclusion == NON_DISPLACEABLE, k
        assert verdict.theorem == "1.6"
        a, b = below, below
        big = 1 - (k - 1) * a
        assert a + b < F(2, k + 1) <= big
    # and fails at the boundary value a = b = 1/(k+1)
    verdict = evaluate_pair(sphere_pair(F(1, 4), F(1, 4), 3),
                            use_subspaces=True)
    assert verdict.conclusion == INCONCLUSIVE


def test_weighted_cp2_is_inconclusive_over_q():
    # with the sign local system the rational invariant vanishes, so the
    # criterion cannot conclude anything over Q
    scenario = cp2_pair()
    weighted = replace(scenario.sides[0],
                       local_system=(("dalpha", F(-1)), ("dbeta", F(1))))
    verdict = evaluate_pair(
        Scenario(scenario.h2x, scenario.form,
                 (weighted, scenario.sides[1]), scenario.ring),
        ring=Q)
    assert verdict.conclusion == INCONCLUSIVE
    assert "pairing 0" in verdict.reason


def test_unweighted_cp2_over_q_has_no_invariant():
    verdict = evaluate_pair(cp2_pair(), ring=Q)
    assert verdict.conclusion == INCONCLUSIVE
    assert verdict.reason.startswith("invariant undefined")


def test_two_sided_required():
    with pytest.raises(TwoSidedRequired):
        evaluate_pair(builtin_scenario("cp2_ta", {"a": F(1, 10)}))


def test_symmetry_of_sides():
    for scenario, kwargs in [
            (cp2_pair(), {}),
            (pxp_pair(), {"use_subspaces": True, "ring": Z2}),
            (bl3_pair(), {"use_subspaces": True, "monotone_variant": True})]:
        swapped = Scenario(scenario.h2x, scenario.form,
                           (scenario.sides[1], scenario.sides[0]),
                           scenario.ring)
        a = evaluate_pair(scenario, **kwargs)
        b = evaluate_pair(swapped, **kwargs)
        assert a.conclusion == b.conclusion
        assert a.theorem == b.theorem


def test_topological_short_circuit():
    # randomized scenarios with [L].[K] != 0 stop at step one: no gate or
    # invariant checks appear in the audit
    rng = random.Random(31)
    base = cp2_pair()
    for _ in range(20):
        c1, c2 = rng.randint(1, 5), rng.randint(1, 5)
        left = replace(base.sides[0], fundamental_class=(c1,),
                       ledger=DiskLedger((), None), monotone=True,
                       monotonicity_constant=F(1, 10))
        right = replace(base.sides[1], fundamental_class=(c2,),
                        ledger=DiskLedger((), None))
        verdict = evaluate_pair(
            Scenario(base.h2x, base.form, (left, right), base.ring), ring=Q)
        assert verdict.conclusion == TOPOLOGICAL
        assert [e["check"] for e in verdict.audit] == ["fundamental_pairing"]


def test_lower_index_route():
    # [L] = H pairs with the Clifford invariant H: nonzero over Z/8
    base = cp2_pair()
    left = replace(base.sides[0], fundamental_class=(1,),
                   ledger=DiskLedger((), None), monotone=True,
                   monotonicity_constant=F(1, 10),
                   asserted_invariant=(0,))
    scenario = Scenario(base.h2x, base.form, (left, base.sides[1]),
                        base.ring)
    verdict = evaluate_pair(scenario)
    assert verdict.conclusion == NON_DISPLACEABLE
    assert verdict.theorem == "lower-index"


def test_ambiguous_pairing(tmp_path):
    # H2(X) = Z^2 with generators H, K and form I, both cp2 sides with
    # j = [[1, 1], [0, 0], [0, 0]]: j(H - K) = 0 while [L] = [K] = 0, so
    # neither lift is unique, and the gate passes
    doc = cp2_pair().to_json_dict()
    doc["H2_X"]["generators"] = ["H", "K"]
    doc["form"] = [[1, 0], [0, 1]]
    for side in doc["sides"]:
        side["j"] = [[1, 1], [0, 0], [0, 0]]
        side["fundamental_class"] = [0, 0]
    path = tmp_path / "ambiguous.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    assert main(["criterion", "--scenario", str(path), "--ring", "Z/8"],
                out=out) == 0
    result = json.loads(out.getvalue())["result"]
    assert (result["conclusion"], result["reason"]) == (INCONCLUSIVE,
                                                        "ambiguous pairing")
    assert result["audit"][-1] == {
        "check": "area_gate", "value": "pass",
        "inputs": {"a": "1/10", "b": "1/3", "A": "9/20", "B": "inf"}}
    assert result["notes"] == [
        "lift not unique: ker j exceeds the ambiguity subgroup"] * 2
    assert "pairing" not in result
