"""The argv contract: which options each subcommand declares, a parser built
once per process, and every argv ending in one JSON document with exit code
0, 2, 3 or 4."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import floerdisk.cli as cli
import floerdisk.errors as errors
import floerdisk.scenario as scen
from test_cli import GOLDEN_COMMANDS

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
    ["probes", "", "--point", "0,3/4"],
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
    ([], 2, "usage", "a subcommand is required"),
    (["potential", "--builtin", "cp2_ta:a=1/5", "--residue-ring", "Z/+8"], 2,
     "usage", "cannot parse ring name 'Z/+8'"),
    (["probes", "p1xp1", "--point=1/4"], 2, "usage",
     "--point takes two coordinates x,y, got '1/4'"),
    (["probes", "p1xp1", "--point=1/4,1/4,1"], 2, "usage",
     "--point takes two coordinates x,y, got '1/4,1/4,1'"),
    (["probes", "p1xp1", "--point=0,3/4,"], 2, "usage",
     "--point takes two coordinates x,y, got '0,3/4,'"),
    # digits are ASCII, with no '_' separators, as int() alone would take
    (["invariant", "--builtin", "cp2_ta:a=\u0661/\u0661_0", "--ring", "Z/8"],
     2, "usage", "'\u0661/\u0661_0' is not an exact rational: give it as "
     "p/q or p, with integers p and q"),
    (["potential", "--builtin", "cp2_ta:a=1/5", "--bulk", "b=\u0663"], 2,
     "usage", "'\u0663' is not an integer: give it as ASCII digits with an "
     "optional sign"),
    (["probes", "p1xp1", "--point", "0,3/4", "--bound", "1_0"], 2, "usage",
     "argument --bound: '1_0' is not an integer: give it as ASCII digits "
     "with an optional sign"),
    (["invariant", "--builtin", "p1xp1_ta:a=1/5", "--ring", "Z/2", "--field",
      "F2", "--subspace", "0,1_0;"], 2, "usage",
     "'1_0' is not an integer: give it as ASCII digits with an optional "
     "sign")])
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


# The error types that are faults in the input; every other one is a
# computation error.
INPUT_FAULTS = {"SchemaError", "ValidationError", "UnknownScenario",
                "BadParams", "UnknownLabel"}
ERROR_TYPES = sorted((value for value in vars(errors).values()
                      if isinstance(value, type)
                      and issubclass(value, errors.FloerDiskError)
                      and value is not errors.FloerDiskError),
                     key=lambda cls: cls.__name__)


def test_the_input_faults_are_error_types():
    assert INPUT_FAULTS <= {cls.__name__ for cls in ERROR_TYPES}


# (raised, exit status, reported type)
STATUSES = [*((cls, 3 if cls.__name__ in INPUT_FAULTS else 4, cls.__name__)
              for cls in ERROR_TYPES),
            (OSError, 3, "OSError"), (FileNotFoundError, 3, "FileNotFoundError"),
            (ValueError, 2, "usage")]


@pytest.mark.parametrize("exc, code, kind", STATUSES,
                         ids=[exc.__name__ for exc, _, _ in STATUSES])
def test_each_error_type_ends_in_its_declared_status(monkeypatch, exc, code,
                                                      kind):
    """An error ends in 3 when it is a fault in the input, an unreadable
    file included, in 4 when it is a computation error, and in 2 when it is
    a usage error; the report names its type."""
    def fail(ref):
        raise exc("raised in the scenario lookup")

    monkeypatch.setattr(cli, "_resolve_scenario", fail)
    out = io.StringIO()
    assert cli.main(["validate", "--builtin", "cp2_clifford"], out=out) == code
    assert json.loads(out.getvalue())["error"] == {
        "type": kind, "message": "raised in the scenario lookup"}


# Each rational option, as an argv that runs when n has 32 bits and the
# name its message starts with when n has 33.
SWEEP_CP2_TA = ["sweep", "--builtin", "cp2_ta", "--vs", "cp2_clifford",
                "--ring", "Z/8"]
RATIONAL_OPTIONS = [
    (lambda n: ["probes", "p1xp1", "--point", f"0,{(n + 1) // 2}/{n}"],
     "--point"),
    (lambda n: ["invariant", "--builtin", f"cp2_ta:a=1/{n}", "--ring", "Z/8"],
     "parameter a"),
    (lambda n: ["criterion", "--builtin", "cp2_ta:a=1/10", "--ring", "Z/8",
                "--vs", "cp2_clifford", "--local-system",
                f"dbeta={n},dalpha=1"], "local-system dbeta"),
    (lambda n: SWEEP_CP2_TA + ["--from", f"1/{n}", "--to", "1/3", "--step",
                               "1/3"], "--from"),
    (lambda n: SWEEP_CP2_TA + ["--from", f"1/{2 ** 32 - 1}", "--to", f"1/{n}",
                               "--step", "1"], "--to"),
    (lambda n: SWEEP_CP2_TA + ["--from", "1/10", "--to", "1/10", "--step",
                               f"{n}"], "--step"),
    # integers: a --bulk hit count and a --subspace entry
    (lambda n: ["potential", "--builtin", "cp2_ta:a=1/5", "--bulk", f"b={n}"],
     "bulk b"),
    (lambda n: ["invariant", "--builtin", "cp2_ta:a=1/10", "--ring", "Z/8",
                "--field", "F2", "--subspace", f"0,0;{n},0|0,1"],
     "--subspace")]


@pytest.mark.parametrize("argv, where", RATIONAL_OPTIONS,
                         ids=[where for _, where in RATIONAL_OPTIONS])
def test_argv_rationals_are_bounded_like_document_rationals(argv, where):
    """A numerator, denominator or integer of 32 bits runs; one of 33 bits
    is a ValidationError that names its option."""
    assert cli.main(argv(2 ** 32 - 1), out=io.StringIO()) == 0
    out = io.StringIO()
    assert cli.main(argv(2 ** 32 + 1), out=out) == 3
    error = json.loads(out.getvalue())["error"]
    assert error["type"] == "ValidationError"
    assert re.fullmatch(rf"{re.escape(where)}: (a numerator|a denominator|"
                        rf"an integer) of 33 bits; the limit is 32 bits",
                        error["message"])


def test_a_long_sweep_of_4001_digit_rationals_is_refused_at_once():
    """10,000 points with 4,001-digit denominators used to run for seconds."""
    den = 10 ** 4000
    argv = SWEEP_CP2_TA + ["--from", "1/10", "--to", f"{den // 10 + 9999}/{den}",
                           "--step", f"1/{den}"]
    out = io.StringIO()
    start = time.perf_counter()
    assert cli.main(argv, out=out) == 3
    assert time.perf_counter() - start < 1
    assert json.loads(out.getvalue())["error"]["message"].startswith("--to: ")


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


# --- one parse per argv ------------------------------------------------------

def parse_outcome(parse, argv):
    """What parse(argv) gives: the namespace's attributes, the _UsageError's
    message, or the exit status and text of a help request."""
    help_text = io.StringIO()
    try:
        with contextlib.redirect_stdout(help_text):
            return vars(parse(list(argv)))
    except cli._UsageError as exc:
        return f"usage: {exc}"
    except SystemExit as exc:
        return exc.code, help_text.getvalue()


def parametrized_argvs():
    """Every argv the tests of this module are parametrized with: an argv
    built from a bit count at 32 and 33 bits, and an argv with a flag in
    its spaced and its joined form."""
    for test in list(globals().values()):
        for mark in getattr(test, "pytestmark", ()):
            names = [n.strip() for n in mark.args[0].split(",")]
            if mark.name != "parametrize" or "argv" not in names:
                continue
            for values in mark.args[1]:
                row = dict(zip(names, values if len(names) > 1 else [values]))
                argv = row["argv"]
                if callable(argv):
                    yield argv(2 ** 32 - 1)
                    yield argv(2 ** 32 + 1)
                elif "flag" in row:
                    yield argv + row["flag"]
                    yield argv + ["=".join(row["flag"])]
                else:
                    yield argv


POTENTIAL = GOLDEN_COMMANDS["potential_cp2"]
EDGE_ARGVS = [
    # "--" in each position
    *(POTENTIAL[:i] + ["--"] + POTENTIAL[i:]
      for i in range(len(POTENTIAL) + 1)),
    ["validate", "--", "x.json"], ["validate", "--", "--builtin"],
    ["probes", "--point", "0,3/4", "--", "p1xp1"], ["probes", "--", "--"],
    # abbreviations
    ["--ver"], ["--vers", "builtin-list"], ["builtin-list", "--ver"],
    ["invariant", "--b", "cp2_ta:a=1/10", "--r", "Z/8"],
    ["invariant", "--builtin", "cp2_ta:a=1/10", "--r=Z/8"],
    ["potential", "--builtin", "cp2_ta:a=1/5", "--analyze"],
    ["potential", "--builtin", "cp2_ta:a=1/5", "--analyze", "--residue", "F5"],
    ["criterion", "--builtin", "cp2_ta", "--vs", "cp2_clifford", "--mono"],
    ["sweep", "--builtin", "cp2_ta", "--f", "1/10"], ["probes", "--he"],
    # --version after a subcommand, and the top-level spellings
    ["builtin-list", "--version"], ["potential", "--version", "--builtin"],
    ["--version"], ["--version", "--version"], [], ["nope"], ["-x"],
    ["--format", "text"], ["potentials"], ["-h"], ["--help"],
    ["probes", "-h"], ["sweep", "--help", "--from", "1"],
    # negative values
    ["probes", "p1xp1", "--point", "-1/4,1/4", "--bound", "-3"],
    ["probes", "-1", "--point", "-.5,0"],
    ["sweep", "--builtin", "bl3_ta", "--vs", "bl3_clifford", "--from", "-1/4",
     "--to", "-1", "--step", "-1/4"],
    ["invariant", "--builtin", "cp2_clifford", "--ring", "Z/2", "--field",
     "F2", "--subspace", "-1,0;0,1"], ["potential", "-1"],
    # repeated or empty values
    ["probes", "p1xp1", "p1xp1", "--point", "0,1"],
    ["probes", "p1xp1", "--point", "0,1", "--point", "0,1"],
    ["potential", "--builtin", "cp2_ta", "--analyze-units", "--analyze-units"],
    ["validate", "", "--builtin", ""], ["sweep", "--from", "", "--to", ""],
    ["builtin-list", "--format", "json", "--format", "text"],
    ["builtin-list", "--format", ""], ["builtin-list", "x"],
    ["criterion", "--builtin", "cp2_ta:a=1/10", "--vs", "cp2_clifford",
     "--format", "text", "--format=text"]]


# The goldens, every argv parametrized above and the edge cases; the fuzz
# draws more.
DISPATCH_CORPUS = [*GOLDEN_COMMANDS.values(), *parametrized_argvs(),
                   *EDGE_ARGVS]


def test_dispatch_corpus_reaches_every_subcommand():
    assert {argv[0] for argv in DISPATCH_CORPUS if argv} >= set(cli._COMMANDS)
    assert len(DISPATCH_CORPUS) >= 120


@pytest.mark.parametrize("argv", DISPATCH_CORPUS, ids=" ".join)
def test_subcommand_parser_reads_what_the_top_level_reads(argv):
    assert parse_outcome(cli._parse_args, argv) == \
        parse_outcome(cli._PARSER.parse_args, argv)


@settings(max_examples=300)
@given(argv=argvs())
def test_subcommand_parser_reads_what_the_top_level_reads_on_fuzz(argv):
    assert parse_outcome(cli._parse_args, argv) == \
        parse_outcome(cli._PARSER.parse_args, argv)


def test_an_ambiguous_prefix_is_told_among_the_subcommands_options():
    """The one argv class the two parses read apart: '--=x' prefixes every
    long option, and the subcommand's parser lists the subcommand's own
    options where the top-level parser listed its --help and --version."""
    argv = ["builtin-list", "--=x"]
    assert parse_outcome(cli._PARSER.parse_args, argv) == \
        "usage: ambiguous option: --=x could match --help, --version"
    assert parse_outcome(cli._parse_args, argv) == \
        "usage: ambiguous option: --=x could match --help, --format"
