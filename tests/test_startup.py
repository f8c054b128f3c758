"""What a fresh process loads: `import floerdisk.cli` leaves the potential
and probes modules to the subcommands that run them, and the package's
public names load on first access."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import floerdisk
from test_cli import GOLDEN, GOLDEN_COMMANDS

SRC = pathlib.Path(floerdisk.__file__).resolve().parent.parent

# Every name the package exported when its __init__ imported each module.
EXPORTED = {
    "rings": ("Ring", "RingElement", "reduce", "units_of"),
    "abelian": ("FgAbelianGroup", "GroupHom", "IntersectionForm", "pair",
                "smith_normal_form", "solve_linear"),
    "scenario": ("AffineSubspace", "BUILTIN_NAMES", "DiskClass", "DiskLedger",
                 "LagrangianSide", "Scenario", "builtin_scenario", "combine",
                 "load_scenario", "sphere_pair"),
    "invariants": ("AreaSpectrum", "StringInvariantClass", "area_progression",
                   "area_spectrum", "boundary_sum", "cancellation_threshold",
                   "grouped_cancellation", "least_area", "next_area",
                   "oc_low"),
    "criterion": ("Verdict", "evaluate_pair", "gate_reason"),
    "potential": ("NovikovPolynomial", "NovikovTerm", "newton_valuations",
                  "partial_derivative", "potential_from_ledger",
                  "residue_critical_points", "truncate_to_level",
                  "unit_critical_analysis"),
    "probes": ("Polytope2", "Probe", "builtin_polytope", "make_probe",
               "probe_displaces", "probe_segment", "search_probes"),
}


def _fresh(*args):
    """Run python with floerdisk importable from this source tree."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc


def test_importing_the_cli_leaves_potential_and_probes_unloaded():
    script = ("import sys, floerdisk.cli\n"
              "print(sorted(m for m in ('floerdisk.potential', "
              "'floerdisk.probes') if m in sys.modules))")
    assert _fresh("-c", script).stdout.decode().strip() == "[]"


def test_submodules_load_through_the_package():
    script = ("import floerdisk\n"
              "print(floerdisk.potential.NovikovTerm.__module__, "
              "floerdisk.probes.search_probes.__module__)")
    assert _fresh("-c", script).stdout.decode().split() == [
        "floerdisk.potential", "floerdisk.probes"]


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_fresh_processes_reproduce_the_lazy_goldens(name):
    # a fresh process loads its modules lazily and builds every builtin
    # template cold, validating it in full
    out = _fresh("-m", "floerdisk.cli", *GOLDEN_COMMANDS[name]).stdout
    assert out == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("module", sorted(EXPORTED))
def test_every_eager_export_resolves_lazily(module):
    home = importlib.import_module(f"floerdisk.{module}")
    for name in EXPORTED[module]:
        assert name in floerdisk.__all__
        assert name in dir(floerdisk)
        assert getattr(floerdisk, name) is getattr(home, name)
    assert getattr(floerdisk, module) is home
    assert "__version__" in floerdisk.__all__


def test_an_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        floerdisk.nonesuch
