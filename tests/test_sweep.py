"""Sweeps: the exact gate threshold from affine margins, its agreement with
every grid point, and how often a sweep validates a side."""

import io
import json
from dataclasses import replace
from fractions import Fraction

import pytest

import floerdisk.scenario as scenario_module
from floerdisk.cli import main
from floerdisk.criterion import area_gate, gate_inputs
from floerdisk.errors import FloerDiskError, ValidationError
from floerdisk.rings import Ring
from floerdisk.scenario import (A_INTERVALS, BUILTIN_NAMES, Scenario,
                                builtin_scenario, combine)
from oracles import oracle_gate_threshold

F = Fraction


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, json.loads(out.getvalue())


def make(ref):
    name, _, a = ref.partition(":a=")
    return builtin_scenario(name, {"a": F(a)} if a else None)


def sweep_argv(first, second, flags, start, stop, step):
    return ["sweep", "--builtin", first, "--vs", second, *flags,
            "--from", str(start), "--to", str(stop), "--step", str(step)]


def partners(name):
    """Every builtin on the same ambient H2(X) and form, at a = 1/5."""
    swept = make(f"{name}:a=1/5")
    refs = [f"{other}:a=1/5" if other in A_INTERVALS else other
            for other in BUILTIN_NAMES]
    return [ref for ref in refs
            if make(ref).h2x == swept.h2x
            and make(ref).form.matrix == swept.form.matrix]


FLAG_SETS = [[]] + [
    ["--ring", ring, *field, *mono]
    for ring in ("Z/2", "Z/4", "Z/8", "Q")
    for field in ([], ["--field", "F2"])
    for mono in ([], ["--monotone-variant"])] + [["--monotone-variant"]]

SWEEP_PAIRS = [(name, second) for name in A_INTERVALS
               for second in partners(name)]


def check_gate_outcomes(name, second, flags):
    """Grid points k/36 inside the builtin's open interval (and below 1):
    wherever the gate inputs are defined, the gate passes iff a < t.
    Returns whether a threshold was reported."""
    low, high, _ = A_INTERVALS[name]
    grid = [F(k, 36) for k in range(1, 36) if low < F(k, 36) < high]
    code, report = run(sweep_argv(name, second, flags, grid[0], grid[-1],
                                  F(1, 36)))
    if code != 0:
        assert report["error"]["type"] == "ValidationError"
        return False
    result = report["result"]
    ring = Ring.parse(report["options"]["ring"])
    vs = make(second)
    outcomes = []
    for a, point in zip(grid, result["points"]):
        scenario = combine(builtin_scenario(name, {"a": a}), vs)
        try:
            inputs = gate_inputs(*scenario.sides, ring, "--field" in flags,
                                 "--monotone-variant" in flags)
        except FloerDiskError:
            continue
        passes = area_gate(*inputs[:4])
        # a point whose verdict reached the gate reports the same outcome
        if point.get("reason", "").startswith("area gate"):
            assert not passes
        if point.get("theorem") in ("1.5", "1.6", "2.4", "2.5"):
            assert passes
        outcomes.append((a, passes))
    if "gate_threshold" not in result:
        # no threshold: the gate is constant on the grid
        assert len({passes for _, passes in outcomes}) <= 1
        return False
    t = F(result["gate_threshold"])
    assert result["gate_passes_iff"] == f"a < {result['gate_threshold']}"
    assert low < t < high
    assert outcomes and all(passes == (a < t) for a, passes in outcomes)
    return True


@pytest.mark.parametrize("name, second", SWEEP_PAIRS)
def test_gate_outcomes_agree_with_gate_passes_iff(name, second):
    reported = [check_gate_outcomes(name, second, flags)
                for flags in FLAG_SETS]
    # every pair in the three torus families has a threshold under some
    # flag set; ts2_la and trp2_la meet only themselves at a fixed a, both
    # sides monotone, so A = B = infinity and the gate always passes
    assert any(reported) == (name in ("cp2_ta", "p1xp1_ta", "bl3_ta"))


# Pairs and flags where the sampled threshold is right: the swept side is
# the non-monotone one and one gate bound stays the least on the interval.
ORACLE_CASES = [
    ("cp2_ta", "cp2_clifford", []),
    ("cp2_ta", "cp2_clifford", ["--ring", "Z/8"]),
    ("cp2_ta", "cp2_clifford", ["--ring", "Z/8", "--monotone-variant"]),
    ("cp2_ta", "cp2_clifford", ["--ring", "Q"]),
    ("cp2_ta", "cp2_clifford", ["--ring", "Q", "--monotone-variant"]),
    ("cp2_ta", "cp2_ta:a=1/5", ["--ring", "Z/8"]),
    ("p1xp1_ta", "p1xp1_clifford", ["--ring", "Z/2", "--field", "F2"]),
    ("p1xp1_ta", "p1xp1_clifford", ["--ring", "Z/4", "--monotone-variant"]),
    ("p1xp1_ta", "p1xp1_clifford",
     ["--ring", "Z/4", "--field", "F2", "--monotone-variant"]),
    ("bl3_ta", "bl3_clifford", ["--ring", "Z/2", "--monotone-variant"]),
    ("bl3_ta", "bl3_clifford",
     ["--ring", "Z/2", "--field", "F2", "--monotone-variant"]),
    ("bl3_ta", "bl3_ta:a=1/5", ["--ring", "Z/2", "--field", "F2"]),
]


@pytest.mark.parametrize("name, second, flags", ORACLE_CASES)
def test_threshold_matches_sampling_oracle(name, second, flags):
    code, report = run(sweep_argv(name, second, flags, "1/20", "3/10",
                                  "1/20"))
    assert code == 0
    ring = Ring.parse(report["options"]["ring"])
    vs = make(second)
    expected = oracle_gate_threshold(
        lambda a: combine(builtin_scenario(name, {"a": a}), vs), ring,
        "--field" in flags, "--monotone-variant" in flags)
    assert report["result"].get("gate_threshold") == expected


def test_bl3_threshold_is_one_quarter():
    # rule 2.5: a + 1/2 < 1 - a, reported whatever part of (0, 1/2) is swept
    code, report = run(sweep_argv(
        "bl3_ta", "bl3_clifford",
        ["--ring", "Z/2", "--field", "F2", "--monotone-variant"],
        "9/20", "9/20", "1/20"))
    assert (code, report["result"]["gate_threshold"]) == (0, "1/4")


def test_threshold_omitted_outside_the_interval():
    # bl3_ta against its Clifford partner under rule 1.5: a + 1/2 < 1/2
    # never holds, and the sampled line's root a = 0 is not in (0, 1/2)
    code, report = run(sweep_argv("bl3_ta", "bl3_clifford", ["--ring", "Z/2"],
                                  "1/20", "3/10", "1/20"))
    assert code == 0
    assert "gate_threshold" not in report["result"]


def test_threshold_with_two_moving_bounds():
    # p1xp1_ta at a against itself at 1/5: a + 1/5 < min(1 - a, 4/5), so
    # A = 1 - a binds from a = 2/5 on; the sampled line only saw B = 4/5
    code, report = run(sweep_argv("p1xp1_ta", "p1xp1_ta:a=1/5", [],
                                  "1/10", "1/2", "1/10"))
    assert code == 0
    assert report["result"]["gate_threshold"] == "2/5"
    reasons = [p.get("reason", "") for p in report["result"]["points"]]
    assert reasons[3].startswith("area gate boundary")
    assert not reasons[2].startswith("area gate")


def test_monotone_swept_side_threshold(tmp_path):
    # The swept ts2_la side is the monotone one: b = a moves and A comes from
    # K's cutoff 1/2 with a_K = 1/10, so the gate is 1/10 + a < 1/2.
    doc = builtin_scenario("ts2_la", {"a": F(1, 10)}).to_json_dict()
    side = doc["sides"][0]
    side.update(name="K", monotone=False)
    side.pop("b")
    side["ledger"]["complete_below"] = "1/2"
    path = tmp_path / "K.json"
    path.write_text(json.dumps(doc))
    code, report = run(sweep_argv("ts2_la", str(path),
                                  ["--monotone-variant", "--ring", "Z/2"],
                                  "1/10", "1/2", "1/10"))
    assert code == 0
    result = report["result"]
    assert result["gate_threshold"] == "2/5"
    assert result["points"][3]["reason"].startswith("area gate boundary")


@pytest.fixture
def validations(monkeypatch):
    calls = []
    original = scenario_module._validate_side

    def counted(h2x, side):
        calls.append(side.name)
        return original(h2x, side)

    monkeypatch.setattr(scenario_module, "_validate_side", counted)
    return calls


def test_combine_validates_nothing(validations):
    first = builtin_scenario("cp2_ta", {"a": F(1, 10)})
    second = builtin_scenario("cp2_clifford")
    assert validations == ["T_a", "T_Cl"]
    combine(first, second)
    assert validations == ["T_a", "T_Cl"]


def test_replaced_side_is_validated_again(validations):
    scenario = builtin_scenario("cp2_ta", {"a": F(1, 10)})
    side = replace(scenario.side, local_system=(("dbeta", 1), ("dalpha", 1)))
    Scenario(scenario.h2x, scenario.form, (side,), scenario.ring)
    assert validations == ["T_a", "T_a"]
    broken = replace(scenario.side, bd=replace(scenario.side.bd,
                                               matrix=((0, 0, 0), (0, 0, 0))))
    with pytest.raises(ValidationError, match="exactness"):
        Scenario(scenario.h2x, scenario.form, (broken,), scenario.ring)


@pytest.mark.parametrize("n", [1, 6])
def test_sweep_validates_each_side_once(validations, n):
    # n swept builds, the --vs side once, and the two builds that fix the
    # gate margins: n + 3 calls, where re-validating every side made 4n + 12
    code, report = run(sweep_argv("cp2_ta", "cp2_clifford", ["--ring", "Z/8"],
                                  "1/20", F(n, 20), "1/20"))
    assert code == 0
    assert len(report["result"]["points"]) == n
    assert len(validations) == n + 3
