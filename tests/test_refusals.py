"""Refusals and branches that the rest of the suite does not reach, each with
its exact error type and message, and the two ring questions that go through
``reduce``: the right-hand side of a solve and the unit test of a
local-system value."""

import io
import json
import os
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest

from floerdisk.abelian import (FgAbelianGroup, kernel_basis, mat_vec,
                               solve_linear)
from floerdisk.cli import main
from floerdisk.errors import (BadParams, DimensionMismatch, InvalidProbe,
                              MissingLocalSystem, NonInvertibleDenominator,
                              ValidationError)
from floerdisk.invariants import (_local_weight, area_progression,
                                  boundary_sum, least_area)
from floerdisk.potential import (BranchReport, partial_derivative,
                                 potential_from_ledger)
from floerdisk.probes import Probe, builtin_polytope, validate_probe
from floerdisk.rings import Ring, RingElement, reduce
from floerdisk.scenario import (MAX_DOCUMENT_BYTES, Scenario,
                                builtin_scenario, decode_json, read_document,
                                sphere_pair)

Z = Ring.integers()
Z8 = Ring.integers_mod(8)
CP2_TA = builtin_scenario("cp2_ta", {"a": F(1, 10)})
OTHER = FgAbelianGroup(("X",))


def refused(error, message):
    return pytest.raises(error, match=f"^{re.escape(message)}$")


# --- scenario -------------------------------------------------------------------

@pytest.mark.parametrize("h2x, changes, message", [
    (OTHER, {}, "side T_a: j source is not H2(X)"),
    (None, {"h2_rel": OTHER}, "side T_a: j target is not H2(X,L)"),
    (None, {"h1": OTHER}, "side T_a: bd endpoints are wrong"),
])
def test_validate_side_checks_the_maps(h2x, changes, message):
    side = replace(CP2_TA.side, **changes)
    with refused(ValidationError, message):
        Scenario(h2x or CP2_TA.h2x, CP2_TA.form, (side,), CP2_TA.ring)


# the ids name the unit: an id built from the data would hold all of it
@pytest.mark.parametrize("data, unit", [
    (" " * (MAX_DOCUMENT_BYTES + 1), "characters"),
    (b" " * (MAX_DOCUMENT_BYTES + 1), "bytes"),
], ids=["characters", "bytes"])
def test_decode_json_refuses_over_limit_input(data, unit):
    with refused(ValidationError,
                 f"document: {MAX_DOCUMENT_BYTES + 1} {unit}; the limit is "
                 f"{MAX_DOCUMENT_BYTES} {unit}"):
        decode_json(data)


def test_read_document_refuses_a_fifo_before_opening_it(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    with refused(ValidationError, f"{fifo}: not a regular file"):
        read_document(fifo)


@pytest.mark.parametrize("a, b, k, message", [
    (0, F(1, 10), 1, "parameters must be positive"),
    (F(1, 10), F(-1, 10), 1, "parameters must be positive"),
    (F(1, 10), F(1, 10), 0, "k must be a positive integer"),
])
def test_sphere_pair_refuses_bad_parameters(a, b, k, message):
    with refused(BadParams, message):
        sphere_pair(a, b, k)


# --- invariants -----------------------------------------------------------------

@pytest.mark.parametrize("k, n", [(0, 1), (1, 0)])
def test_area_progression_refuses_parameters_below_one(k, n):
    with refused(ValidationError, "progression parameters must be >= 1"):
        area_progression(k, n, F(1, 10))


@pytest.mark.parametrize("local, missing", [({"dbeta": 1}, "dalpha"),
                                            ({"dalpha": 1}, "dbeta")])
def test_boundary_sum_refuses_a_partial_local_system(local, missing):
    side = CP2_TA.side
    with refused(MissingLocalSystem,
                 f"side T_a: local system misses generator {missing}"):
        boundary_sum(side, Z, least_area(side), local_system=local)


def _invariant(ring, local):
    out = io.StringIO()
    code = main(["invariant", "--builtin", "cp2_ta:a=1/10", "--ring", ring,
                 "--local-system", local], out=out)
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize("ring, value, shown", [
    ("Z/8", "2", "2"),        # a zero divisor
    ("Z/8", "10", "2"),       # shown as its residue
    ("Z/8", "8", "0"),
    ("Z/8", "1/2", "1/2"),    # its denominator does not reduce
    ("Z", "2", "2"),
    ("Z", "1/2", "1/2"),
    ("Q", "0", "0"),
    ("F5", "10", "0"),
])
def test_a_local_system_value_must_be_a_unit(ring, value, shown):
    code, report = _invariant(ring, f"dbeta={value},dalpha=1")
    assert code == 3
    assert report["error"] == {
        "type": "ValidationError",
        "message": f"side T_a: local system value {shown} for dbeta is not "
                   f"a unit in {ring}"}


@pytest.mark.parametrize("ring, value, weight, inverse", [
    ("Z/8", F(3), 3, 3), ("Z/8", F(1, 3), 3, 3), ("Z", F(-1), -1, -1),
    ("Q", F(-1, 2), F(-1, 2), -2), ("F5", F(1, 2), 3, 2),
])
def test_a_unit_weighs_by_itself_and_its_inverse(ring, value, weight,
                                                 inverse):
    ring, local = Ring.parse(ring), {"dbeta": value, "dalpha": F(1)}
    assert _local_weight(CP2_TA.side, local, (1, 0), ring) == weight
    assert _local_weight(CP2_TA.side, local, (-1, 0), ring) == inverse
    assert _local_weight(CP2_TA.side, local, (-3, 0), ring) == reduce(
        F(inverse) ** 3, ring)


# --- potential and probes ---------------------------------------------------------

def test_partial_derivative_refuses_another_variable():
    p = potential_from_ledger(CP2_TA.side)
    with refused(ValueError, "var must be 'z' or 'w'"):
        partial_derivative(p, "x")


def test_branch_report_writes_a_rational_residue_root():
    report = BranchReport(F(1), (F(1, 2),), True, F(-3, 2), True, "note")
    assert report.as_dict() == {
        "w0": "1", "valuations": ["1/2"], "any_unit_z": True,
        "residue_rational_root": "-3/2", "candidate": True, "note": "note"}


@pytest.mark.parametrize("facet", [-1, 4, 7])
def test_validate_probe_refuses_a_facet_out_of_range(facet):
    probe = Probe(facet, (0, F(1, 2)), (1, 0))
    with refused(InvalidProbe, f"no facet with index {facet}"):
        validate_probe(builtin_polytope("p1xp1"), probe)


# --- abelian and rings -------------------------------------------------------------

def test_shape_mismatches_are_refused():
    with refused(DimensionMismatch, "matrix/vector shape mismatch"):
        mat_vec(((1, 2),), (1,))
    with refused(DimensionMismatch, "relation width != matrix rows"):
        solve_linear(((1,), (0,)), (1, 0), Z, relations=((1,),))
    group = FgAbelianGroup(("a", "b"), ((2, 0),))
    with refused(DimensionMismatch, "coordinate length != generator count"):
        group.is_zero((1,), Z)


def test_empty_matrices_solve_trivially():
    # a matrix kept as a tuple of rows has no columns when it has no rows
    assert kernel_basis(((), ())) == []
    assert kernel_basis(()) == []
    assert solve_linear((), (), Z) == ()


def test_solve_linear_reads_a_fractional_rhs_through_reduce():
    m = ((1,),)
    assert solve_linear(m, (F(1, 2),), Z) is None
    assert solve_linear(m, (F(1, 2),), Ring.rationals()) == (F(1, 2),)
    assert solve_linear(m, (F(1, 2),), Ring.prime_field(5)) == (3,)
    with refused(NonInvertibleDenominator,
                 "denominator 2 is a zero divisor in Z/8"):
        solve_linear(m, (F(1, 2),), Z8)


def test_ring_constructor_and_arithmetic_refusals():
    with refused(ValueError, "modulus only applies to finite rings"):
        Ring("Q", 5)
    with refused(ValueError, "unknown ring kind 'W'"):
        Ring("W")
    with refused(ValueError, "ring mismatch in arithmetic"):
        RingElement(Z8, 1) + RingElement(Ring.integers_mod(4), 1)
    with refused(ValueError, "ring mismatch in arithmetic"):
        RingElement(Z, 1) * 3
