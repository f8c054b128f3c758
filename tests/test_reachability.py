"""Every function in src/floerdisk is entered by some CLI call, or is named
below as library surface.

A fresh process runs the golden argvs and a short fixed list of other argvs
under ``sys.setprofile`` and reports the code it entered, import included;
being fresh, it builds every template cold, so no cache an earlier test
warmed hides a path.  The test compiles the package's sources, lists every
function and lambda they define, nested ones too, and fails on one that was
not entered and that no allow-list names.  A name the benchmark's tracer
wraps is allowed while ``bench/tracing.py`` lists it, with the helpers that
only it reaches; once the tracer drops it, this test names it."""

import inspect
import json
import os
import pathlib
import subprocess
import sys
import types
from fractions import Fraction

import floerdisk
from floerdisk.scenario import builtin_scenario
from test_cli import GOLDEN_COMMANDS
from test_scenario import dense_document

SRC = pathlib.Path(floerdisk.__file__).resolve().parent
BENCH = SRC.parent.parent / "bench"

# Public names a program built on the package calls, that no subcommand
# needs: lazy package attributes, membership tests and constructors the
# tests read, and the sphere-pair families of criterion 5.
LIBRARY = {
    "__init__.__getattr__", "__init__.__dir__",
    "invariants.Progression.contains",
    "probes.Polytope2.contains", "probes.probe_displaces",
    "rings.Ring.integers_mod", "rings.RingElement.__repr__",
    "scenario.Scenario.side", "scenario.sphere_pair",
}

# The helpers that only a name the benchmark's tracer wraps reaches, by that
# name: the reference ring arithmetic and the library-only probe path.
BEHIND_TRACED = {
    "rings.RingElement.__pow__": ("rings.RingElement.inverse",
                                  "rings.RingElement.is_unit"),
    "potential.evaluate_partials_at": ("rings.RingElement.__add__",
                                       "rings.RingElement.__mul__",
                                       "rings.RingElement._check",
                                       "rings.RingElement.is_zero"),
    "probes.make_probe": ("probes.validate_probe", "probes._facet_at"),
}

# (argv, the error type it ends in or None); {tmp} is a scratch directory.
ARGVS = [
    (["invariant", "--builtin", "p1xp1_ta:a=1/5", "--ring", "Z/2",
      "--field", "F2", "--subspace", "0,0;0,1", "--format", "text"], None),
    (["criterion", "--builtin", "cp2_ta:a=1/10", "--vs", "cp2_clifford",
      "--ring", "Q", "--local-system", "dalpha=-1,dbeta=1"], None),
    (["potential", "--builtin", "cp2_ta:a=1/5", "--residue-ring", "F7"],
     None),
    # at a = 1/3 the z-partial's row changes with z
    (["potential", "--builtin", "cp2_ta:a=1/3", "--residue-ring", "Z/17"],
     None),
    (["probes", "{tmp}/polygon.json", "--point", "1/2,1/2", "--bound", "2"],
     None),
    # one ledger level, lattice parameters and a local system: the next
    # area comes from the progression of admissible areas
    (["invariant", "--scenario", "{tmp}/one_level.json", "--ring", "Z/8"],
     None),
    # relations and dense matrices, through the positional FILE
    (["validate", "{tmp}/dense.json"], None),
    # a branch that balances at valuation zero
    (["potential", "--builtin", "cp2_ta:a=1/3", "--bulk", "b=1",
      "--analyze-units"], None),
    # one refusal per helper that only an error enters
    (["criterion", "--nonsense"], "usage"),
    (["invariant", "--builtin", "cp2_ta:a=1/10", "--ring", "Z"],
     "CancellationFails"),
    (["potential", "--builtin", "cp2_ta:a=1/5", "--residue-ring", "F787"],
     "ResidueSearchTooLarge"),
    (["probes", "p1xp1", "--point", "5,5"], "ValidationError"),
]

# Runs in the fresh process: the argvs come on stdin, and what each ended in
# and the (file name, first line, name) of each entered code object go out.
TRACE = """
import io, json, sys
entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.setprofile(profile)
import floerdisk.cli
ends = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    code = floerdisk.cli.main(argv, out=out)
    ends.append(json.loads(out.getvalue())["error"]["type"] if code else None)
sys.setprofile(None)
print(json.dumps({"ends": ends, "entered": [
    [c.co_filename, c.co_firstlineno, c.co_name] for c in entered]}))
"""

COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}


def _functions(code, prefix):
    """(qualified name, code) of each function and lambda the code object
    compiles, nested ones included; comprehensions count as their parent."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType):
            continue
        if const.co_name in COMPREHENSIONS:
            yield from _functions(const, prefix)
        elif const.co_flags & inspect.CO_NEWLOCALS:   # not a class body
            name = prefix + const.co_name
            yield name, const
            yield from _functions(const, name + ".<locals>.")
        else:
            yield from _functions(const, prefix + const.co_name + ".")


def _defined():
    """(file name, first line, name) -> module.qualified name."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        code = compile(path.read_text(), str(path), "exec")
        for name, fn in _functions(code, path.stem + "."):
            if fn.co_name == "<lambda>":
                name += f"@{fn.co_firstlineno}"
            out[path.name, fn.co_firstlineno, fn.co_name] = name
    return out


def _write_inputs(tmp):
    doc = builtin_scenario("cp2_ta", {"a": Fraction(1, 10)}).to_json_dict()
    side = doc["sides"][0]
    side["local_system"] = {"dbeta": "1", "dalpha": "-1"}
    side["ledger"]["disks"] = [disk for disk in side["ledger"]["disks"]
                               if disk["area"] == "1/10"]
    (tmp / "one_level.json").write_text(json.dumps(doc))
    (tmp / "dense.json").write_text(json.dumps(dense_document(3, 1, 2, 8)))
    (tmp / "polygon.json").write_text(json.dumps(
        {"vertices": [[0, 0], [2, 0], [2, 1], [0, 2]]}))


def _trace(argvs):
    path = os.pathsep.join(filter(None, [str(SRC.parent),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", TRACE], capture_output=True,
                          input=json.dumps(argvs).encode(), timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def _traced_names(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return {f"{module}.{attr}" for module, attr, _, _ in tracing.TARGETS}


def test_every_function_is_entered_by_a_cli_call_or_allowed(tmp_path,
                                                            monkeypatch):
    _write_inputs(tmp_path)
    argvs = [GOLDEN_COMMANDS[name] for name in sorted(GOLDEN_COMMANDS)] + [
        [arg.format(tmp=tmp_path) for arg in argv] for argv, _ in ARGVS]
    report = _trace(argvs)
    assert report["ends"][len(GOLDEN_COMMANDS):] == [end for _, end in ARGVS]
    entered = {(pathlib.Path(file).name, line, name)
               for file, line, name in report["entered"]
               if pathlib.Path(file).resolve().parent == SRC}
    traced = _traced_names(monkeypatch)
    allowed = LIBRARY | traced | {helper for name in traced
                                  for helper in BEHIND_TRACED.get(name, ())}
    unentered = {name for key, name in _defined().items()
                 if key not in entered}
    missing = sorted(name for name in unentered - allowed
                     if name.split(".<locals>.")[0] not in allowed)
    assert not missing, f"no CLI call enters {missing}"
    # an allowed name that a CLI call now enters, or that is gone, leaves
    # the lists
    stale = sorted((LIBRARY | set().union(*BEHIND_TRACED.values()))
                   - unentered)
    assert not stale, f"allowed but entered or gone: {stale}"
