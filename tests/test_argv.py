"""The argv contract: which options each subcommand declares, a parser built
once per process, and every argv ending in one JSON document with exit code
0, 2, 3 or 4."""

import argparse
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import floerdisk.cli as cli
import floerdisk.scenario as scen

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# The option strings (positionals by metavar or dest) of each subcommand.
SCENARIO_NAMES = {"--builtin", "--scenario"}
COEFFICIENTS = {"--ring", "--field", "--subspace", "--local-system"}
PAIR = {"--vs", "--monotone-variant"}
COMMON = {"-h", "--help", "--format"}
OPTIONS = {
    "validate": COMMON | SCENARIO_NAMES | {"FILE"},
    "invariant": COMMON | SCENARIO_NAMES | COEFFICIENTS,
    "criterion": COMMON | SCENARIO_NAMES | COEFFICIENTS | PAIR,
    "sweep": COMMON | SCENARIO_NAMES | COEFFICIENTS | PAIR
    | {"--param", "--from", "--to", "--step"},
    "potential": COMMON | SCENARIO_NAMES
    | {"--bulk", "--analyze-units", "--residue-ring"},
    "probes": COMMON | {"polytope", "--point", "--bound"},
    "builtin-list": COMMON,
}


def _subparsers():
    action = next(a for a in cli._PARSER._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_each_subcommand_declares_exactly_its_options():
    declared = {name: {s for a in parser._actions
                       for s in (a.option_strings or [a.metavar or a.dest])}
                for name, parser in _subparsers().items()}
    assert declared == OPTIONS


def test_main_builds_no_parser_per_call(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["builtin-list"], ["probes", "p1xp1", "--point", "0,3/4"],
                 ["invariant", "--builtin", "cp2_ta:a=1/10", "--ring", "Z/8"]):
        assert cli.main(argv, out=io.StringIO()) == 0
    assert built == []


@pytest.mark.parametrize("flag, value", [
    ("--ring", "Z/8"), ("--field", "F2"), ("--subspace", "0,0;0,1"),
    ("--local-system", "dbeta=1,dalpha=3")])
@pytest.mark.parametrize("command", ["validate", "potential"])
def test_unread_coefficient_options_are_usage_errors(command, flag, value):
    out = io.StringIO()
    assert cli.main([command, "--builtin", "cp2_ta:a=1/5", flag, value],
                    out=out) == 2
    assert json.loads(out.getvalue())["error"]["type"] == "usage"


@pytest.mark.parametrize("argv", [
    ["validate", ""], ["validate", "--builtin", ""],
    ["validate", "--scenario", ""], ["invariant", "--builtin", ""],
    ["validate"], ["potential"],
    ["validate", "x.json", "--builtin", "cp2_clifford"],
    ["invariant", "--builtin", "cp2_ta:a=1/10", "--scenario", "x.json"]])
def test_not_exactly_one_scenario_name_is_a_usage_error(argv):
    out = io.StringIO()
    assert cli.main(argv, out=out) == 2
    assert json.loads(out.getvalue())["error"]["type"] == "usage"


# Options whose empty value is a usage error, as an empty scenario name is.
NONEMPTY = {"--builtin", "--scenario", "--vs", "--ring", "--field",
            "--subspace", "--local-system", "--bulk", "--residue-ring"}
CP2 = ["--builtin", "cp2_ta:a=1/10"]


@pytest.mark.parametrize("argv", [
    ["invariant", *CP2, "--ring", ""],
    ["invariant", *CP2, "--ring", "Z/8", "--field", ""],
    ["invariant", *CP2, "--ring", "Z/2", "--field", "F2", "--subspace", ""],
    ["invariant", *CP2, "--ring", "Z/8", "--local-system", ""],
    ["criterion", *CP2, "--ring", "Z/8", "--vs", ""],
    ["sweep", "--builtin", "cp2_ta", "--vs", "", "--from", "1/10", "--to",
     "1/5", "--step", "1/10"],
    ["potential", *CP2, "--bulk", ""],
    ["potential", *CP2, "--residue-ring", ""],
    ["invariant", *CP2, "--builtin", "cp2_ta:a=1/5"],
    ["validate", "--scenario", "x.json", "--scenario", "y.json"],
    ["invariant", *CP2, "--ring", "Z/8", "--ring", "Z/4"],
    ["criterion", *CP2, "--vs", "cp2_clifford", "--vs", "cp2_clifford"],
    ["potential", *CP2, "--bulk", "b=1", "--bulk", "b=2"],
    ["probes", "p1xp1", "--point", "0,3/4", "--bound", "3", "--bound", "4"],
    ["--version", "builtin-list"],
    ["--version", "invariant", *CP2]])
def test_empty_or_repeated_values_are_usage_errors(argv):
    out = io.StringIO()
    assert cli.main(argv, out=out) == 2
    assert json.loads(out.getvalue())["error"]["type"] == "usage"


SWEEP_CP2 = ["sweep", "--vs", "cp2_clifford", "--from", "1/10", "--to", "1/5",
             "--step", "1/10"]


@pytest.mark.parametrize("argv, code, kind, message", [
    (["criterion", "--builtin", "cp2_ta:a=1/10", "--vs", "cp2_clifford",
      "--ring", "Q8"], 2, "usage", "cannot parse ring name 'Q8'"),
    (SWEEP_CP2 + ["--builtin", "cp2_ta", "--param", "b"], 3, "BadParams",
     "only the parameter 'a' can be swept"),
    (SWEEP_CP2 + ["--builtin", "cp2_clifford"], 3, "BadParams",
     "sweeps need a parametric builtin for the swept side"),
    ([], 2, "usage", "a subcommand is required")])
def test_rejected_argvs_name_their_fault(argv, code, kind, message):
    out = io.StringIO()
    assert cli.main(argv, out=out) == code
    assert json.loads(out.getvalue())["error"] == {"type": kind,
                                                   "message": message}


SWEEP_BL3 = ["sweep", "--builtin", "bl3_ta", "--vs", "bl3_clifford",
             "--ring", "Z/2"]


@pytest.mark.parametrize("argv, flag, code, kind", [
    (["probes", "cp2"], ["--point", "-1/4,1/4"], 0, None),
    (SWEEP_BL3 + ["--to", "1/2", "--step", "1/4"], ["--from", "-1/4"], 3,
     "BadParams"),
    (SWEEP_BL3 + ["--from", "1/4", "--step", "1/4"], ["--to", "-1/2"], 3,
     "BadParams"),
    (SWEEP_BL3 + ["--from", "1/4", "--to", "1/2"], ["--step", "-1/4"], 3,
     "BadParams"),
    (["invariant", "--builtin", "cp2_clifford", "--ring", "Z/2", "--field",
      "F2"], ["--subspace", "-1,0;0,1"], 4, "CancellationFails")])
def test_negative_values_read_as_in_the_equals_form(argv, flag, code, kind):
    """A value that starts with '-' and a digit is the option's value, so
    '--opt -1/4' prints what '--opt=-1/4' prints."""
    spaced, joined = io.StringIO(), io.StringIO()
    assert cli.main(argv + flag, out=spaced) == code
    assert cli.main(argv + ["=".join(flag)], out=joined) == code
    assert spaced.getvalue() == joined.getvalue()
    document = json.loads(spaced.getvalue())
    assert document.get("error", {}).get("type") == kind
    if flag[0] == "--from":
        assert document["error"]["message"] == "a = -1/4 outside (0, 1/2)"


def test_argparse_reads_the_negative_number_matcher():
    """_Parser widens argparse's private _negative_number_matcher; an
    argparse that stops reading it fails here."""
    parser = argparse.ArgumentParser()
    assert hasattr(parser, "_negative_number_matcher")
    parser.add_argument("--point")
    parser._negative_number_matcher = re.compile(r"-\.?\d")
    assert parser.parse_args(["--point", "-1/4,1/4"]).point == "-1/4,1/4"
    assert cli._PARSER.parse_args(
        ["probes", "cp2", "--point", "-1/4,1/4"]).point == "-1/4,1/4"


def usage_by_construction(argv) -> bool:
    """Does the argv give --version with a subcommand, an empty value to an
    option of NONEMPTY, or a value option twice?"""
    if argv[0] == "--version":
        return True
    if any(flag in NONEMPTY and value == ""
           for flag, value in zip(argv, argv[1:])):
        return True
    options = [x for x in argv
               if x.startswith("--") and VALUES.get(x) is not None]
    return len(options) != len(set(options))


def test_entry_point_exit_status():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    run = [sys.executable, "-m", "floerdisk.cli"]
    done = subprocess.run(run + ["--version"], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "0.1.0\n")
    done = subprocess.run(run + ["invariant", "--builtin", "cp2_ta:a=1/10",
                                 "--ring", "Z"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 4
    assert json.loads(done.stdout)["error"]["type"] == "CancellationFails"
    # the exit status is main's return value, a usage error included
    for argv, code in ((["builtin-list"], 0), (["sweep"], 2)):
        done = subprocess.run(run + argv, env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == code, argv


# --- argv fuzz ----------------------------------------------------------------

@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """File names the fuzz may draw: a valid scenario, a truncated JSON file
    and one that starts with byte 0xff."""
    root = tmp_path_factory.mktemp("argv")
    good = scen.builtin_scenario("cp2_ta", {"a": "1/10"}).canonical_json()
    contents = {"@good": good.encode(), "@truncated": b'{"vertices": [',
                "@undecodable": b"\xff{}"}
    paths = {}
    for key, data in contents.items():
        path = root / (key[1:] + ".json")
        path.write_bytes(data)
        paths[key] = str(path)
    return paths


FILES = st.sampled_from(["@good", "@truncated", "@undecodable"])
RATIONALS = st.sampled_from(["1/10", "1/5", "1/3", "1/4", "1/20", "2/5",
                             "-1/2", "3", "1/0", "", "x"])
RINGS = st.sampled_from(["Z/8", "Z/2", "Z/4", "Z", "Q", "F2", "F3", "F2",
                         "Z/8", "Z/1", "Z/0", "F4", "", "R"])
SCENARIOS = st.one_of(
    st.builds("{}:a={}".format,
              st.sampled_from(["cp2_ta", "p1xp1_ta", "bl3_ta"]), RATIONALS),
    st.sampled_from(["cp2_clifford", "p1xp1_clifford", "bl3_clifford",
                     "cp2_ta", "p1xp1_ta", "bl3_ta", "nope", ""]),
    FILES)
# The value drawn for each option; None marks a switch.
VALUES = {
    "FILE": SCENARIOS, "--builtin": SCENARIOS, "--scenario": SCENARIOS,
    "--vs": SCENARIOS, "--ring": RINGS, "--field": RINGS,
    "--residue-ring": RINGS,
    "--subspace": st.sampled_from(["0,0;0,1", "1,0;1,0", "0,0;0,1,1",
                                   "1,1;", "", "x"]),
    "--local-system": st.sampled_from(
        ["dbeta=1,dalpha=3", "dbeta=1/2,dalpha=1", "dbeta=2,dalpha=1",
         "dalpha=-1,dbeta=1", "dbeta", "dbeta=1,dbeta=1", ""]),
    "--bulk": st.sampled_from(["b=1", "zz=1", "b=1/2", "b", "b=1,b=2", ""]),
    "--from": RATIONALS, "--to": RATIONALS, "--step": RATIONALS,
    "--param": st.sampled_from(["a", "b"]),
    "--bound": st.sampled_from(["1", "3", "8", "0", "-1", "x"]),
    "--point": st.sampled_from(["0,3/4", "1/2,1/5", "1/3,1/3", "1/0,1",
                                "", "0"]),
    "--format": st.sampled_from(["json", "xml"]),
    "polytope": st.one_of(st.sampled_from(["p1xp1", "cp2"]), FILES),
    "--monotone-variant": None, "--analyze-units": None}
# What a command needs to do any work besides its scenario name: the
# options without a default.
NEEDED = {"probes": ["polytope", "--point"], "criterion": ["--vs"],
          "sweep": ["--vs", "--from", "--to", "--step"]}


@st.composite
def argvs(draw):
    """A subcommand with mostly its own options, sometimes one it does not
    declare or one given twice, and usually exactly one scenario name;
    now and then --version before it."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    chosen = [flag for flag in NEEDED.get(command, [])
              if draw(st.integers(0, 9)) < 9]
    spellings = sorted(OPTIONS[command] & (SCENARIO_NAMES | {"FILE"}))
    if spellings:
        count = draw(st.sampled_from([1, 1, 1, 1, 1, 1, 0, 2]))
        chosen += draw(st.lists(st.sampled_from(spellings), min_size=count,
                                max_size=count, unique=True))
    rest = sorted((OPTIONS[command] & VALUES.keys()) - set(chosen)
                  - set(spellings))
    chosen += draw(st.lists(st.sampled_from(rest), max_size=4, unique=True))
    if draw(st.integers(0, 4)) == 4:
        chosen.append(draw(st.sampled_from(sorted(VALUES))))
    given = [flag for flag in chosen if flag.startswith("--")
             and VALUES[flag] is not None]
    if given and draw(st.integers(0, 9)) == 9:
        chosen.append(draw(st.sampled_from(given)))
    argv = ["--version"] if draw(st.integers(0, 29)) == 29 else []
    argv.append(command)
    for flag in chosen:
        value = VALUES[flag]
        if flag in ("FILE", "polytope"):
            argv.append(draw(value))
        elif value is None:
            argv.append(flag)
        else:
            argv += [flag, draw(value)]
    return argv


@settings(max_examples=500)
@given(argv=argvs())
def test_every_argv_ends_in_one_json_document(files, argv):
    argv = [files.get(x, x) for x in argv]
    out = io.StringIO()
    code = cli.main(argv, out=out)
    assert code in (0, 2, 3, 4), argv
    document = json.loads(out.getvalue())
    assert isinstance(document, dict), argv
    assert ("error" in document) == (code != 0), argv
    if usage_by_construction(argv):
        assert code == 2, argv
