"""Sweeps: the exact gate threshold from affine margins, its agreement with
every grid point, the chamber walk against the per-point sweep, the affine
premise it rests on, how often a sweep validates a side or runs the
decision tree, and that the benchmark's tracer sees its ring reductions."""

import io
import json
import pathlib
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import floerdisk.cli as cli
import floerdisk.criterion as criterion_module
import floerdisk.scenario as scenario_module
from floerdisk.cli import main
from floerdisk.criterion import evaluate_pair, gate_inputs, gate_reason
from floerdisk.errors import BadParams, FloerDiskError, ValidationError
from floerdisk.rings import Ring, parse_rational, rational_str
from floerdisk.scenario import (A_INTERVALS, BUILTIN_NAMES, Scenario,
                                builtin_scenario, combine)
from oracles import oracle_gate_threshold
from test_cli import GOLDEN_COMMANDS

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
        passes = gate_reason(*inputs[:4]) is None
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
    """The names of the sides validated in full ("full") and of those whose
    checks that read a ran ("areas", a full validation included), from
    cold builtin templates."""
    calls = {"full": [], "areas": []}
    for key, name in (("full", "_validate_side"), ("areas", "_check_areas")):
        def counted(*args, key=key, original=getattr(scenario_module, name)):
            calls[key].append(args[-1].name)
            return original(*args)
        monkeypatch.setattr(scenario_module, name, counted)
    scenario_module._topology.cache_clear()
    return calls


def test_combine_validates_nothing(validations):
    first = builtin_scenario("cp2_ta", {"a": F(1, 10)})
    second = builtin_scenario("cp2_clifford")
    expected = {"full": ["T_a", "T_Cl"], "areas": ["T_a", "T_Cl"]}
    assert validations == expected
    combine(first, second)
    assert validations == expected
    # from warm templates a build runs only the checks that read a
    combine(builtin_scenario("cp2_ta", {"a": F(1, 5)}),
            builtin_scenario("cp2_clifford"))
    assert validations == {"full": ["T_a", "T_Cl"],
                           "areas": ["T_a", "T_Cl"] * 2}


def test_replaced_side_is_validated_again(validations):
    builtin_scenario("cp2_ta", {"a": F(1, 5)})
    scenario = builtin_scenario("cp2_ta", {"a": F(1, 10)})
    assert validations["full"] == ["T_a"]
    side = replace(scenario.side, local_system=(("dbeta", 1), ("dalpha", 1)))
    Scenario(scenario.h2x, scenario.form, (side,), scenario.ring)
    assert validations["full"] == ["T_a", "T_a"]
    broken = replace(scenario.side, bd=replace(scenario.side.bd,
                                               matrix=((0, 0, 0), (0, 0, 0))))
    with pytest.raises(ValidationError, match="exactness"):
        Scenario(scenario.h2x, scenario.form, (broken,), scenario.ring)
    # a side the CLI overrides is validated in full at each of its 2 builds,
    # the first point and the last (the --vs side once, from its cold
    # template)
    del validations["full"][:]
    code, _ = run(sweep_argv("cp2_ta", "cp2_clifford",
                             ["--ring", "Z/8", "--local-system",
                              "dbeta=1,dalpha=1"], "1/20", "6/20", "1/20"))
    assert code == 0
    assert validations["full"] == ["T_Cl"] + ["T_a"] * 2


@pytest.mark.parametrize("n", [1, 6])
def test_sweep_validates_each_side_once(validations, n):
    # one swept build at the first point, whose run also answers the points
    # past the root 1/9, and one for the last point, and the --vs side once:
    # the gate rows come off the first build.  Each build runs the checks
    # that read a, and only the first from each template the rest:
    # re-validating every side at every point made 4n + 12 full calls
    builds = {1: 1, 6: 2}[n]
    for _ in range(2):   # cold templates, then warm ones
        code, report = run(sweep_argv("cp2_ta", "cp2_clifford",
                                      ["--ring", "Z/8"], "1/20", F(n, 20),
                                      "1/20"))
        assert code == 0
        assert len(report["result"]["points"]) == n
    assert validations["full"] == ["T_Cl", "T_a"]
    assert len(validations["areas"]) == 2 * (builds + 1)


# --- the chamber walk against the per-point sweep -----------------------------

def oracle_margin_root(inputs_at, low, high):
    """The sweep's gate threshold as the per-point sweep found it: the least
    root in (low, high) of the margins X(a) - (a + b), X in {A, B}, sampled
    at the interval's thirds, or None when a sample fails, a margin does not
    fall, or the root lies outside."""
    t1, t2 = low + (high - low) / 3, high - (high - low) / 3
    try:
        (a1, b1, *bounds1, _), (a2, b2, *bounds2, _) = map(inputs_at, (t1, t2))
    except FloerDiskError:
        return None
    roots = []
    for x1, x2 in zip(bounds1, bounds2):
        if x1 is None:
            continue
        m1, m2 = x1 - a1 - b1, x2 - a2 - b2
        if m2 >= m1:
            return None
        roots.append(t1 + m1 * (t2 - t1) / (m1 - m2))
    t = min(roots, default=high)
    return rational_str(t) if low < t < high else None


def oracle_sweep(args):
    """The per-point sweep: every grid point builds the pair and runs the
    whole decision tree.  Takes the parsed `sweep` argv and returns the
    report that `cli.main` prints, raising what the sweep raises.  It shares
    the CLI's option helpers and report layout."""
    field = cli._field(args)
    if args.param != "a":
        raise BadParams("only the parameter 'a' can be swept")
    if not args.vs:
        raise BadParams("sweep needs the second side: give --vs")
    start = parse_rational(args.start)
    stop = parse_rational(args.stop)
    step = parse_rational(args.step)
    name, _, param_text = args.scenario.partition(":")
    if name not in A_INTERVALS:
        raise BadParams("sweeps need a parametric builtin for the swept side")
    if param_text:
        raise BadParams(f"the swept builtin {args.scenario!r} takes no "
                        f"parameters; --from, --to and --step set a")
    ring = Ring.parse(args.ring) if args.ring else None
    grid = cli._sweep_grid(start, stop, step)
    overrides = cli._side_overrides(args, field)
    second = cli._resolve_scenario(args.vs)

    def scenario_at(a):
        return combine(cli._apply_side_overrides(
            builtin_scenario(name, {"a": a}), overrides), second)

    points = []
    for a in grid:
        scenario = scenario_at(a)
        cli._check_field(scenario.sides, field)
        ring = ring or scenario.ring
        verdict = evaluate_pair(scenario, use_subspaces=field is not None,
                                monotone_variant=args.monotone_variant,
                                ring=ring)
        entry = {"a": rational_str(a), "conclusion": verdict.conclusion}
        if verdict.theorem:
            entry["theorem"] = verdict.theorem
        if verdict.reason:
            entry["reason"] = verdict.reason
        points.append(entry)
    result = {"param": args.param, "points": points}
    threshold = oracle_margin_root(
        lambda t: gate_inputs(*scenario_at(t).sides, ring, field is not None,
                              args.monotone_variant),
        *A_INTERVALS[name][:2])
    if threshold is not None:
        result["gate_threshold"] = threshold
        result["gate_passes_iff"] = f"a < {threshold}"
    options = {"ring": ring.name, "subspaces": field is not None,
               "monotone_variant": args.monotone_variant,
               "from": rational_str(start), "to": rational_str(stop),
               "step": rational_str(step)}
    return cli._report("sweep", scenario, options, result)


def oracle_text(argv):
    """What the per-point sweep prints for the argv: its report, or the
    error document of what it raises."""
    try:
        document = oracle_sweep(cli._PARSER.parse_args(argv))
    except (cli._UsageError, ValueError) as exc:
        document = {"error": {"type": "usage", "message": str(exc)}}
    except (FloerDiskError, OSError) as exc:
        document = {"error": {"type": type(exc).__name__,
                              "message": str(exc)}}
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def main_text(argv):
    out = io.StringIO()
    main(argv, out=out)
    return out.getvalue()


def grids(name):
    """Steps 1/36, 1/20 and 1/60 over the builtin's interval, below 1, each
    up to the closed top end where there is one.  They land on 1/9 (1/36),
    1/4 (all three), 2/5 (1/20, 1/60) and the tops 1/3 and 1/2."""
    low, high, top = A_INTERVALS[name]
    for d in (36, 20, 60):
        inside = [F(k, d) for k in range(1, d + 1)
                  if low < F(k, d) < min(high, 1) or top and F(k, d) == high]
        yield inside[0], inside[-1], F(1, d)


@pytest.mark.parametrize("name, second", SWEEP_PAIRS)
def test_chamber_walk_matches_per_point_sweep(name, second):
    for flags in FLAG_SETS:
        for grid in grids(name):
            argv = sweep_argv(name, second, flags, *grid)
            assert main_text(argv) == oracle_text(argv), argv


OVERRIDES = [
    ("p1xp1_ta", "p1xp1_clifford",
     ["--ring", "Z/2", "--field", "F2", "--subspace", "0,0;0,1"]),
    ("p1xp1_ta", "p1xp1_clifford",
     ["--ring", "Z/2", "--field", "F2", "--subspace", "1,0;1,0"]),
    ("p1xp1_ta", "p1xp1_clifford", ["--ring", "Z/4", "--field", "F2",
                                    "--subspace", "1,1;",
                                    "--monotone-variant"]),
    ("cp2_ta", "cp2_clifford", ["--ring", "Z/8", "--local-system",
                                "dbeta=1,dalpha=3"]),
    ("cp2_ta", "cp2_clifford", ["--ring", "Z/8", "--local-system",
                                "dbeta=1,dalpha=5", "--monotone-variant"]),
    ("cp2_ta", "cp2_ta:a=1/5", ["--ring", "Q", "--local-system",
                                "dbeta=1,dalpha=-1"]),
    ("bl3_ta", "bl3_clifford", ["--ring", "Z/2", "--field", "F2",
                                "--subspace", "0,0;0,1",
                                "--monotone-variant"]),
]


@pytest.mark.parametrize("name, second, flags", OVERRIDES)
def test_chamber_walk_matches_per_point_sweep_with_overrides(name, second,
                                                             flags):
    for grid in grids(name):
        argv = sweep_argv(name, second, flags, *grid)
        assert main_text(argv) == oracle_text(argv), argv


def test_chamber_walk_on_a_monotone_swept_side(tmp_path):
    # the file-based side K of test_monotone_swept_side_threshold: the swept
    # ts2_la side is the monotone one and b = a moves
    doc = builtin_scenario("ts2_la", {"a": F(1, 10)}).to_json_dict()
    side = doc["sides"][0]
    side.update(name="K", monotone=False)
    side.pop("b")
    side["ledger"]["complete_below"] = "1/2"
    path = tmp_path / "K.json"
    path.write_text(json.dumps(doc))
    for flags in FLAG_SETS:
        for start, stop, step in (("1/10", "1/2", "1/10"),
                                  ("1/60", "59/60", "1/60"),
                                  ("2/5", "2/5", "1/7")):
            argv = sweep_argv("ts2_la", str(path), flags, start, stop, step)
            assert main_text(argv) == oracle_text(argv), argv


def partner_file(tmp_path, ref, **changes):
    """The one-sided document of a builtin ref with its side renamed K and
    its keys changed: b, monotone and a ledger cutoff, and "area" for every
    disk (None pops a key), written to a file whose path is returned."""
    doc = make(ref).to_json_dict()
    side = doc["sides"][0]
    side["name"] = "K"
    area = changes.pop("area", None)
    for disk in side["ledger"]["disks"] if area else ():
        disk["area"] = area
    if "complete_below" in changes:
        side["ledger"]["complete_below"] = changes.pop("complete_below")
    for key, value in changes.items():
        if value is None:
            side.pop(key)
        else:
            side[key] = value
    path = tmp_path / f"K{len(list(tmp_path.iterdir()))}.json"
    path.write_text(json.dumps(doc))
    return str(path)


MONOTONE = [flags for flags in FLAG_SETS if "--monotone-variant" in flags]


def test_partner_inputs_equal_to_swept_rows_at_the_read_point(tmp_path):
    # The gate rows are read at the first grid point, here 1/5, where the
    # --vs side's constant least area (and, for cp2_ta at 1/5, its bound)
    # equals a moving row of the swept side: each input's side comes from
    # the gate's side order, not from its value.
    partners = [partner_file(tmp_path, "cp2_clifford", b="1/5", area="1/5"),
                "cp2_ta:a=1/5"]
    for second in partners:
        for flags in FLAG_SETS:
            for start, stop, step in (("1/5", "1/3", "1/60"),
                                      ("1/5", "3/10", "1/20")):
                argv = sweep_argv("cp2_ta", second, flags, start, stop, step)
                assert main_text(argv) == oracle_text(argv), argv


@pytest.mark.parametrize("name", ["ts2_la", "trp2_la"])
def test_a_monotone_swept_side_gives_b(tmp_path, name):
    # Under the monotone variant the non-monotone --vs side K gives the
    # gate's a (its least area 1/10) and A (a level or its cutoff 1/2), and
    # the swept side gives b, which moves; grids read the rows where the
    # swept row meets K's least area, its cutoff, or neither.
    second = partner_file(tmp_path, f"{name}:a=1/10", monotone=False,
                          b=None, complete_below="1/2")
    for flags in MONOTONE:
        for start, stop, step in (("1/10", "1/2", "1/20"),
                                  ("1/2", "2", "1/4"), ("1/7", "1", "1/7")):
            argv = sweep_argv(name, second, flags, start, stop, step)
            assert main_text(argv) == oracle_text(argv), argv


@pytest.mark.parametrize("field", [[], ["--field", "F2"]])
def test_bl3_threshold_bound_is_read_off_the_table(field):
    # bl3_ta under the monotone variant: A is the first non-cancelling
    # level, or the cutoff 1 - a when every level cancels; grids read it
    # below, at and above the root 1/4, and next to the open top end
    for start, stop, step in (("1/20", "9/20", "1/20"), ("1/4", "9/20", "1/20"),
                              ("3/10", "49/100", "1/100"),
                              ("49/100", "49/100", "1/100")):
        argv = sweep_argv("bl3_ta", "bl3_clifford",
                          ["--ring", "Z/2", *field, "--monotone-variant"],
                          start, stop, step)
        assert main_text(argv) == oracle_text(argv), argv


@pytest.mark.parametrize("name, second", [("cp2_ta", "cp2_clifford"),
                                          ("p1xp1_ta", "p1xp1_clifford")])
def test_a_grid_of_only_the_top_end(name, second):
    # no interior point: the rows are read at one interior build, and the
    # threshold is still reported
    top = rational_str(A_INTERVALS[name][1])
    for flags in FLAG_SETS:
        argv = sweep_argv(name, second, flags, top, top, "1/7")
        assert main_text(argv) == oracle_text(argv), argv


@pytest.mark.parametrize("argv", [
    ["sweep", "--builtin", "p1xp1_ta", "--vs", "p1xp1_clifford", "--field",
     "F2", "--from", "1/5", "--to", "1/5", "--step", "1/5"],
    sweep_argv("cp2_ta", "cp2_clifford", [], "0.1", "1/5", "1/10")])
def test_usage_errors_are_reported_as_the_per_point_sweep_reports_them(argv):
    text = main_text(argv)
    assert text == oracle_text(argv), argv
    assert json.loads(text)["error"]["type"] == "usage"


@pytest.mark.parametrize("sides", [0, 2])
def test_a_partner_file_that_is_not_one_side(tmp_path, sides):
    # a scenario holds one or two sides: a file of none does not load, and
    # the swept side plus two sides is rejected when the pair is built,
    # before the gate inputs are sampled
    doc = combine(make("cp2_ta:a=1/5"), make("cp2_clifford")).to_json_dict()
    doc["sides"] = doc["sides"][:sides]
    path = tmp_path / "partner.json"
    path.write_text(json.dumps(doc))
    for flags in ([], ["--ring", "Z/8", "--field", "F2"]):
        argv = sweep_argv("cp2_ta", str(path), flags, "1/60", "1/3", "1/60")
        text = main_text(argv)
        assert text == oracle_text(argv), argv
        assert json.loads(text)["error"] == {
            "type": "ValidationError",
            "message": "a scenario has one or two sides"}


@pytest.mark.parametrize("flags", [
    ["--vs", "nosuch.json", "--ring", "F4", "--from", "1/10", "--to", "1/5"],
    ["--vs", "nosuch.json", "--ring", "Z/8", "--from", "0", "--to", "1/5"],
    ["--vs", "cp2_clifford", "--ring", "F4", "--from", "0", "--to", "1/5"],
    ["--vs", "nosuch.json", "--ring", "Z/8", "--from", "1/10", "--to", "1/2"],
    ["--vs", "cp2_clifford", "--ring", "Z/8", "--from", "0", "--to", "1/5",
     "--field", "F2", "--subspace", "1,0;0,1,0"],
    ["--vs", "cp2_clifford", "--ring", "F4", "--from", "1/5", "--to", "1/10"]])
def test_two_faults_are_reported_as_the_per_point_sweep_reports_them(flags):
    argv = ["sweep", "--builtin", "cp2_ta", "--step", "1/10", *flags]
    assert main_text(argv) == oracle_text(argv), argv


@st.composite
def random_sweeps(draw):
    """A pair, a flag set and a grid of up to 25 points of step 1/d inside
    the swept builtin's interval (up to 3 for ts2_la and trp2_la)."""
    name, second = draw(st.sampled_from(SWEEP_PAIRS))
    flags = draw(st.sampled_from(FLAG_SETS))
    low, high, top = A_INTERVALS[name]
    high = min(high, 3)
    d = draw(st.integers(3, 90))
    ks = [k for k in range(1, int(high * d) + 1)
          if low < F(k, d) < high or top and F(k, d) == high]
    first = draw(st.integers(0, len(ks) - 1))
    stride = draw(st.integers(1, 3))
    last = draw(st.integers(first, min(len(ks) - 1, first + 24 * stride)))
    start, stop = F(ks[first], d), F(ks[last], d)
    return sweep_argv(name, second, flags, start, stop,
                      F(stride, d) if start != stop else F(1, d))


@settings(max_examples=40, deadline=None)
@given(argv=random_sweeps())
def test_chamber_walk_matches_per_point_sweep_on_random_grids(argv):
    assert main_text(argv) == oracle_text(argv)


@pytest.fixture
def evaluations(monkeypatch):
    calls = []
    original = cli.evaluate_pair

    def counted(scenario, *args, **kwargs):
        calls.append(scenario.sides[0].ledger.disks[0].area)
        return original(scenario, *args, **kwargs)

    monkeypatch.setattr(cli, "evaluate_pair", counted)
    return calls


def test_sweep_runs_the_tree_once_per_chamber(evaluations):
    # 20 points: one run in the open interval (0, 1/3), at 1/60, whose
    # gate-passing verdict also answers the gate failures past the root 1/9,
    # then the closed top end 1/3 on its own
    argv = sweep_argv("cp2_ta", "cp2_clifford", ["--ring", "Z/8"],
                      "1/60", "1/3", "1/60")
    text = main_text(argv)
    assert len(json.loads(text)["result"]["points"]) == 20
    assert evaluations == [F(1, 60), F(1, 3)]
    assert text == oracle_text(argv)


def _counted_sweep(monkeypatch, argv):
    """Run a sweep; list the swept builds by builtin name, and the sides
    whose invariant the decision tree computes."""
    builds, computed = [], []
    build, compute = cli.builtin_scenario, criterion_module.oc_low

    def counted_build(name, params=None):
        builds.append(name)
        return build(name, params)

    def counted_compute(side, ring, subspace=None):
        computed.append(side)
        return compute(side, ring, subspace=subspace)

    monkeypatch.setattr(cli, "builtin_scenario", counted_build)
    monkeypatch.setattr(criterion_module, "oc_low", counted_compute)
    code, report = run(argv)
    assert code == 0
    return report, builds, computed


def test_long_sweep_builds_and_evaluates_once_per_chamber(monkeypatch,
                                                         evaluations):
    # 10,000 points: the tree runs once in the open interval and once at
    # the top end, the swept side is built only where it runs (the last
    # point is the top end), and the --vs side's invariant is computed in
    # the open run only: at the top end T_a's boundary sum dbeta stops the
    # tree first
    report, builds, computed = _counted_sweep(monkeypatch, sweep_argv(
        "cp2_ta", "cp2_clifford", ["--ring", "Z/8"], "1/30000", "1/3",
        "1/30000"))
    assert len(report["result"]["points"]) == 10_000
    assert evaluations == [F(1, 30000), F(1, 3)]
    assert builds.count("cp2_ta") == 2
    assert [side.name for side in computed].count("T_Cl") == 1


def test_only_the_top_end_run_reaches_the_vs_invariant(monkeypatch,
                                                       evaluations):
    # over Z/7 the open run stops at T_a's boundary sum 6*dbeta, and the
    # top end, where the two areas of T_a merge, reaches T_Cl; no side
    # object keeps an invariant between runs
    report, _, computed = _counted_sweep(monkeypatch, sweep_argv(
        "cp2_ta", "cp2_clifford", ["--ring", "Z/7"], "1/60", "1/3", "1/60"))
    assert evaluations == [F(1, 60), F(1, 3)]
    assert [side.name for side in computed] == ["T_a", "T_a", "T_Cl"]
    assert report["result"]["points"][-1]["conclusion"] == "non_displaceable"
    assert not any("_oc_low" in vars(side) for side in computed)


def test_sweep_evaluates_a_root_on_the_grid(evaluations):
    # 1/4 is the p1xp1 root: the first point where the gate fails.  The run
    # at 1/20 passed the gate, so 1/4 and the points above it take the
    # gate's reason at their own a, without a run of their own
    code, report = run(sweep_argv("p1xp1_ta", "p1xp1_clifford",
                                  ["--ring", "Z/2", "--field", "F2"],
                                  "1/20", "9/20", "1/20"))
    assert code == 0
    assert evaluations == [F(1, 20)]
    assert report["result"]["points"][4]["reason"].startswith(
        "area gate boundary")
    assert report["result"]["points"][5]["reason"].startswith("area gate: ")


@pytest.mark.parametrize("flags, start, reasons", [
    # the run at 1/36 passes the gate and ends "pairing 16 = 0"; past the
    # root 1/5 each point takes the gate's reason at its own a
    ([], "1/36", {"pairing 16 = 0 in Z/8": 7, "area gate: ": 4}),
    # over Q the run ends before the gate (invariant undefined), and its
    # verdict serves the points past 1/5 too, where the gate fails
    (["--ring", "Q"], "1/36", {"invariant undefined: ": 11}),
    # a grid that starts past the root: the run at 2/9 fails at the gate
    ([], "2/9", {"area gate: ": 4})])
def test_one_interior_run_answers_both_gate_outcomes(evaluations, flags,
                                                     start, reasons):
    argv = sweep_argv("cp2_ta", "cp2_ta:a=1/5", flags, start, "1/3", "1/36")
    text = main_text(argv)
    assert evaluations == [parse_rational(start), F(1, 3)]
    assert text == oracle_text(argv)
    inside = [point["reason"]
              for point in json.loads(text)["result"]["points"][:-1]]
    assert {prefix: sum(reason.startswith(prefix) for reason in inside)
            for prefix in reasons} == reasons


def test_field_is_checked_once_on_the_last_pair(monkeypatch):
    # no side's subspace depends on a, so one check covers every point
    checked = []
    original = cli._check_field

    def counted(sides, field):
        checked.append(tuple(side.name for side in sides))
        return original(sides, field)

    monkeypatch.setattr(cli, "_check_field", counted)
    for field, code in (("F2", 0), ("F3", 3)):
        argv = sweep_argv("p1xp1_ta", "p1xp1_clifford",
                          ["--ring", "Z/2", "--field", field],
                          "1/20", "9/20", "1/20")
        expected = oracle_text(argv)
        del checked[:]
        assert main_text(argv) == expected
        assert checked == [("That_a", "That_Cl")]
        assert run(argv)[0] == code
    assert json.loads(expected)["error"] == {
        "type": "BadParams",
        "message": "side That_a: its subspace lies over F2, not over "
                   "--field F3"}


@pytest.mark.parametrize("name", sorted(A_INTERVALS))
def test_the_swept_side_never_reads_the_lattice_progression(name):
    # Inside the interval the swept side has two ledger levels or is
    # monotone, so next_area never reads the progression, whose
    # HypothesisViolated names a: no "area spectrum unavailable" reason in
    # a sweep can depend on a, and one verdict serves each gate outcome.
    high = A_INTERVALS[name][1]
    for start, stop, step in grids(name):
        for a in cli._sweep_grid(start, stop, step):
            if a < high:
                side = make(f"{name}:a={a}").side
                assert len(side.ledger.levels) >= 2 or side.monotone, a


def _affine_quantities(entry):
    """The builtin's affine quantities (c0, c1), meaning c0 + c1*a: its disk
    areas, cutoff, monotonicity constant and progression bound
    a + (1 - k*a)/N."""
    quantities = {tuple(map(F, area)) for *_, area in entry.disks}
    quantities |= {tuple(map(F, q)) for q in (entry.cutoff, entry.constant)
                   if q is not None}
    if entry.lattice is not None:
        k, n = entry.lattice
        quantities.add((F(1, n), 1 - F(k, n)))
    return sorted(quantities)


@pytest.mark.parametrize("name", sorted(A_INTERVALS))
def test_no_two_affine_quantities_cross_inside_the_interval(name):
    # The chamber walk reuses one verdict across an open chamber: that is
    # sound only if no two of these quantities meet strictly inside.
    low, high, _ = A_INTERVALS[name]
    quantities = _affine_quantities(scenario_module._TABLE[name])
    for i, (p0, p1) in enumerate(quantities):
        for q0, q1 in quantities[i + 1:]:
            if p1 != q1:
                root = (q0 - p0) / (p1 - q1)
                assert not low < root < high, (name, (p0, p1), (q0, q1))


def test_traced_sweep_counts_its_reductions(monkeypatch):
    # The benchmark's tracer counts calls to rings.reduce.  The solves, zero
    # tests, pairings and disk sums of a sweep or a criterion reduce through
    # it, so a traced run must count them, and print what it prints untraced.
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parent.parent
                                    / "bench"))
    import tracing

    argvs = [GOLDEN_COMMANDS["sweep_p1xp1"],
             ["criterion", "--builtin", "cp2_ta:a=1/10", "--vs",
              "cp2_clifford", "--ring", "Z/8"]]

    def output(argv):
        out = io.StringIO()
        return main(argv, out=out), out.getvalue()

    plain = [output(argv) for argv in argvs]
    tracer, traced, counts = tracing.Tracer(), [], []
    try:
        tracer.install()
        for argv in argvs:
            traced.append(output(argv))
            counts.append(tracer.counts["rings.reduce.calls"])
    finally:
        tracer.uninstall()
    assert traced == plain
    assert 0 < counts[0] < counts[1]   # each argv reduced
