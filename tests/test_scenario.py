import io
import json
import os
import random
import re
import tempfile
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import floerdisk.abelian as abelian_module
import floerdisk.scenario as scenario_module
from floerdisk.abelian import kernel_basis, mat_vec, transpose
from floerdisk.cli import (_PARSER, _apply_side_overrides, _field,
                           _side_overrides, main)
from floerdisk.criterion import evaluate_pair
from floerdisk.errors import (BadParams, DimensionMismatch, FloerDiskError,
                              SchemaError, UnknownScenario, ValidationError)
from floerdisk.invariants import oc_low
from floerdisk.rings import Ring
from floerdisk.scenario import (A_INTERVALS, BUILTIN_NAMES, MAX_DISKS,
                                MAX_DOCUMENT_BYTES, MAX_GENERATORS,
                                MAX_INT_BITS, MAX_RELATIONS, DiskClass,
                                DiskLedger, Scenario, builtin_scenario,
                                combine, load_scenario, sphere_pair)
from oracles import oracle_builtin_scenario, oracle_sphere_pair

F = Fraction
A_DEFAULT = {"a": F(1, 10)}


def make(name, params=None):
    if name.endswith(("_ta", "_la")):
        return builtin_scenario(name, params or A_DEFAULT)
    return builtin_scenario(name)


def test_builtin_names_all_construct():
    for name in BUILTIN_NAMES:
        scenario = make(name)
        assert scenario.sides


def test_unknown_scenario():
    with pytest.raises(UnknownScenario):
        builtin_scenario("cp3_ta", A_DEFAULT)


def test_bad_params():
    with pytest.raises(BadParams):
        builtin_scenario("cp2_ta", {"a": F(2)})
    with pytest.raises(BadParams):
        builtin_scenario("cp2_ta", {"a": F(1, 10), "c": F(1)})
    with pytest.raises(BadParams):
        builtin_scenario("cp2_ta", {})
    with pytest.raises(BadParams):
        builtin_scenario("cp2_clifford", {"a": F(1, 10)})
    # the cp2 family ends at the monotone torus a = 1/3
    builtin_scenario("cp2_ta", {"a": F(1, 3)})
    with pytest.raises(BadParams):
        builtin_scenario("cp2_ta", {"a": F(2, 5)})


def test_cp2_ta_ledger_content():
    scenario = builtin_scenario("cp2_ta", {"a": F(1, 10)})
    side = scenario.side
    assert len(side.ledger.disks) == 4
    assert side.ledger.levels == [F(1, 10), F(9, 20)]
    boundaries = {d.label: d.boundary for d in side.ledger.disks}
    assert boundaries == {"H-2b-a": (-2, -1), "H-2b": (-2, 0),
                          "H-2b+a": (-2, 1), "b": (1, 0)}


def test_p1xp1_clifford_areas():
    scenario = builtin_scenario("p1xp1_clifford")
    assert {d.area for d in scenario.side.ledger.disks} == {F(1, 2)}
    assert len(scenario.side.ledger.disks) == 4


def test_ledger_levels_are_a_fresh_list_each_call():
    ledger = builtin_scenario("cp2_ta", {"a": F(1, 10)}).side.ledger
    levels = ledger.levels
    levels.append(F(0))
    levels.sort()
    assert ledger.levels == [F(1, 10), F(9, 20)]
    assert ledger.levels is not ledger.levels


def test_ledger_levels_collapse_equal_areas_held_by_distinct_objects():
    # a builtin build shares one Fraction per area row, a loaded document
    # does not: equal areas count once either way
    half = F(1, 2)
    areas = [half, F(1, 3), F(2, 4), half, F(1, 3), F(1, 5), F(1, 2)]
    ledger = DiskLedger([DiskClass(f"d{i}", (0,), (0,), 2, area, 1)
                         for i, area in enumerate(areas)])
    assert ledger.levels == [F(1, 5), F(1, 3), half]


def test_bl3_ta_extra_disks():
    scenario = builtin_scenario("bl3_ta", {"a": F(1, 5)})
    halves = [d for d in scenario.side.ledger.disks if d.area == F(1, 2)]
    assert len(halves) == 2
    total = tuple(sum(d.rel_class[i] for d in halves) for i in range(6))
    assert total == (1, 1, -1, -1, 0, 0)  # H1 + H2 - E1 - E2
    assert sorted(d.boundary for d in halves) == [(0, -1), (0, 1)]
    assert scenario.side.ledger.complete_below == F(4, 5)


def test_cp2_exactness_by_snf():
    scenario = builtin_scenario("cp2_ta", {"a": F(1, 10)})
    side = scenario.side
    assert mat_vec(side.bd.matrix, (1, 0, 0)) == (0, 0)   # bd H = 0
    assert mat_vec(side.bd.matrix, (0, 1, 0)) == (1, 0)   # bd beta = dbeta
    assert mat_vec(side.bd.matrix, (0, 0, 1)) == (0, 1)   # bd alpha = dalpha
    kernel = kernel_basis(side.bd.matrix)
    assert len(kernel) == 1
    assert tuple(abs(x) for x in kernel[0]) == (1, 0, 0)  # ker bd = <H> = im j


def test_monotone_sides_proportional():
    for name, params in [("cp2_clifford", None), ("p1xp1_clifford", None),
                         ("ts2_la", {"a": F(1, 7)}),
                         ("trp2_la", {"a": F(2, 3)}),
                         ("cp2_ta", {"a": F(1, 3)}),
                         ("p1xp1_ta", {"a": F(1, 2)})]:
        side = make(name, params).side
        assert side.monotone
        for disk in side.ledger.disks:
            assert disk.area == side.monotonicity_constant * disk.maslov / 2


def _every_key_document():
    """cp2_ta at a = 1/10 with every optional side key set; no builtin has
    a local system, so only this document writes one."""
    doc = make("cp2_ta").to_json_dict()
    doc["sides"][0].update(
        b="1/3", local_system={"dbeta": "1", "dalpha": "-1/2"},
        subspace={"field": "F2", "base": [1, 0], "span": [[1, 1]]},
        asserted_invariant=[1])
    return doc


def _canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def test_json_roundtrip_bit_identical():
    every_key = _every_key_document()
    scenarios = [make(name) for name in BUILTIN_NAMES] + [
        sphere_pair(F(1, 5), F(1, 6), 2), load_scenario(every_key)]
    assert _canonical(every_key) == scenarios[-1].canonical_json()
    for scenario in scenarios:
        text = scenario.canonical_json()
        again = load_scenario(text)
        assert again.canonical_json() == text
        assert again.digest() == scenario.digest()
        assert load_scenario(scenario.to_json_dict()) == scenario


def _keys_sorted(value) -> bool:
    """Does every JSON object in value hold its keys in sorted order?"""
    if isinstance(value, dict):
        return list(value) == sorted(value) and all(
            _keys_sorted(item) for item in value.values())
    if isinstance(value, list):
        return all(_keys_sorted(item) for item in value)
    return True


def _key_order_scenarios():
    """name -> scenario: every builtin, a parametric one inside its interval
    and at a closed top end, a sphere pair, the every-key document, a side
    overridden by --local-system and one by --subspace, dense documents."""
    out = {}
    for name in BUILTIN_NAMES:
        if name not in A_INTERVALS:
            out[name] = make(name)
            continue
        low, high, top = A_INTERVALS[name]
        out[f"{name}:inside"] = make(name, {"a": (low + high) / 2})
        if top:
            out[f"{name}:top"] = make(name, {"a": high})
    out["sphere_pair"] = sphere_pair(F(1, 5), F(1, 6), 2)
    out["every_key"] = load_scenario(_every_key_document())
    overrides = {
        "local_system": _side_overrides_of(["--local-system",
                                            "dbeta=1/2,dalpha=3"]),
        "subspace": _side_overrides_of(["--ring", "Z/2", "--field", "F2",
                                        "--subspace", "1,0;1,1"])}
    for what, override in overrides.items():
        out[what] = _apply_side_overrides(make("cp2_ta"), override)
    for seed, shape in enumerate([(2, 0, 0, 3), (3, 1, 4, 8), (5, 3, 6, 16),
                                  (MAX_GENERATORS, MAX_RELATIONS, 2, 32)]):
        out[f"dense{seed}"] = load_scenario(dense_document(*shape, seed))
    return out


def _side_overrides_of(options):
    args = _PARSER.parse_args(["invariant", "--builtin", "cp2_ta", *options])
    return _side_overrides(args, _field(args))


def test_tables_write_keys_in_sorted_order():
    """The canonical text is one compact encode of to_json_dict(), with no
    key sort: every table writes its keys in sorted order."""
    scenarios = _key_order_scenarios()
    for name, scenario in scenarios.items():
        doc = scenario.to_json_dict()
        assert _keys_sorted(doc), name
        assert scenario.canonical_json() == _canonical(doc), name
    # the optional objects are written: a local system and lattice parameters
    assert scenarios["local_system"].side.local_system
    assert scenarios["cp2_ta:inside"].side.lattice_params


@settings(max_examples=15)
@given(st.integers(2, MAX_GENERATORS), st.integers(0, MAX_RELATIONS),
       st.integers(0, 6), st.integers(3, MAX_INT_BITS), st.integers(0, 2 ** 16))
def test_dense_documents_round_trip(generators, relations, disks, bits, seed):
    """load(dump(s)) == s, and dump(load(doc)) is doc written canonically."""
    doc = dense_document(generators, relations, disks, bits, seed)
    scenario = load_scenario(doc)
    assert load_scenario(scenario.to_json_dict()) == scenario
    assert scenario.canonical_json() == _canonical(doc)


def test_load_rejects_boundary_mismatch():
    doc = builtin_scenario("cp2_ta", A_DEFAULT).to_json_dict()
    doc["sides"][0]["ledger"]["disks"][0]["boundary"] = [5, 5]
    with pytest.raises(ValidationError, match="boundary mismatch"):
        load_scenario(json.dumps(doc))


def test_load_rejects_broken_exactness():
    doc = builtin_scenario("cp2_ta", A_DEFAULT).to_json_dict()
    # make bd kill everything: then ker bd is all of H2(X,L), exceeding im j
    doc["sides"][0]["bd"] = [[0, 0, 0], [0, 0, 0]]
    doc["sides"][0]["ledger"]["disks"] = []
    with pytest.raises(ValidationError, match="exactness"):
        load_scenario(json.dumps(doc))


def test_load_rejects_nonzero_bd_j():
    doc = builtin_scenario("cp2_ta", A_DEFAULT).to_json_dict()
    doc["sides"][0]["bd"] = [[1, 1, 0], [0, 0, 1]]
    doc["sides"][0]["ledger"]["disks"] = []
    with pytest.raises(ValidationError, match="exactness"):
        load_scenario(json.dumps(doc))


def test_load_rejects_odd_maslov():
    doc = builtin_scenario("cp2_ta", A_DEFAULT).to_json_dict()
    doc["sides"][0]["ledger"]["disks"][0]["maslov"] = 4
    with pytest.raises(ValidationError, match="Maslov"):
        load_scenario(json.dumps(doc))


def test_load_rejects_area_at_cutoff():
    doc = builtin_scenario("cp2_ta", A_DEFAULT).to_json_dict()
    doc["sides"][0]["ledger"]["complete_below"] = "9/20"
    with pytest.raises(ValidationError, match="cutoff"):
        load_scenario(json.dumps(doc))


def test_load_rejects_unbounded_nonmonotone_ledger():
    doc = builtin_scenario("cp2_ta", A_DEFAULT).to_json_dict()
    doc["sides"][0]["ledger"]["complete_below"] = "inf"
    with pytest.raises(ValidationError, match="completeness cutoff"):
        load_scenario(json.dumps(doc))


def test_load_rejects_torsion_h2x(tmp_path):
    doc = builtin_scenario("cp2_clifford").to_json_dict()
    doc["H2_X"]["relations"] = [[2]]
    message = "form: intersection pairing requires a torsion-free group"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        load_scenario(json.dumps(doc))
    path = tmp_path / "torsion.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    assert main(["validate", str(path)], out=out) == 3
    assert json.loads(out.getvalue())["error"] == {
        "type": "ValidationError", "message": message}


def test_schema_errors():
    with pytest.raises(SchemaError):
        load_scenario(b"this is not json")
    with pytest.raises(SchemaError):
        load_scenario({"ring": "Z/8"})
    doc = builtin_scenario("cp2_ta", A_DEFAULT).to_json_dict()
    doc["sides"][0]["ledger"]["disks"][0]["area"] = "0.1"
    with pytest.raises(SchemaError):
        load_scenario(json.dumps(doc))


def test_combine_requires_same_ambient():
    cp2 = builtin_scenario("cp2_ta", A_DEFAULT)
    pxp = builtin_scenario("p1xp1_clifford")
    with pytest.raises(ValidationError):
        combine(cp2, pxp)
    two = combine(cp2, builtin_scenario("cp2_clifford"))
    assert [s.name for s in two.sides] == ["T_a", "T_Cl"]


def test_sphere_pair_shape():
    scenario = sphere_pair(F(1, 5), F(1, 6), 2)
    assert len(scenario.sides) == 2
    assert scenario.form.matrix == ((-2, 1), (1, -2))
    for side in scenario.sides:
        assert side.lattice_params == (2, 1)
        assert len(side.ledger.disks) == 4


def test_trp2_model_group():
    # The coefficient group over Z/8 is a two-element group generated by
    # 4 * [RP2]; the bookkeeping group itself is presented free of rank one.
    scenario = builtin_scenario("trp2_la", {"a": F(1, 4)})
    group = scenario.h2x
    ring = Ring.parse("Z/8")
    assert not group.is_zero((4,), ring)
    assert group.is_zero((8,), ring)


DELETE = object()


def _set(doc, path, value):
    """Put the value at the path of the document, or delete the key there
    when the value is DELETE."""
    for key in path[:-1]:
        doc = doc[key]
    if value is DELETE:
        del doc[path[-1]]
    else:
        doc[path[-1]] = value


@pytest.mark.parametrize("path, value", [
    (("sides", 0, "j"), [[1.9], [0], [0]]),
    (("sides", 0, "ledger", "disks", 0, "rel_class"), [1.0, -2, -1]),
    (("sides", 0, "ledger", "disks", 0, "boundary"), ["-2", -1]),
    (("sides", 0, "fundamental_class"), ["0"]),
    (("sides", 0, "asserted_invariant"), ["a"]),
    (("sides", 0, "subspace"), {"field": "F2", "base": ["0", 0],
                                "span": [[1, 0]]}),
    (("sides", 0, "subspace"), {"field": "F2", "base": [0, 0],
                                "span": [[1, True]]}),
    (("sides", 0, "bd"), [[0, 1, 0], [0, 0, "1"]]),
    (("sides", 0, "H1_L", "relations"), [[2, 0.0]]),
    (("sides", 0, "H2_XL", "relations"), [1, 0, 0]),
    (("form",), [[False]]),
    (("sides", 0, "local_system"), ["dbeta", "dalpha"]),
    (("sides", 0, "monotone"), "no"),
    (("sides", 0, "monotone"), 0),
    (("sides", 0, "ledger", "disks", 0, "count"), True),
    (("sides", 0, "ledger", "disks", 0, "count"), 1.0),
    (("sides", 0, "ledger", "disks", 0, "maslov"), True),
    (("sides", 0, "ledger", "disks", 0, "maslov"), "2"),
    (("sides", 0, "lattice_params"), {"k": True, "N": True}),
    (("sides", 0, "lattice_params"), {"k": 3, "N": 2.0}),
])
def test_loader_rejects_non_integer_entries(path, value):
    doc = builtin_scenario("cp2_ta", A_DEFAULT).to_json_dict()
    _set(doc, path, value)
    with pytest.raises(SchemaError):
        load_scenario(json.dumps(doc))


def _json_path(path):
    return "".join(f"[{key}]" if type(key) is int else f".{key}"
                   for key in path).lstrip(".")


_SIDE_PATH = ("sides", 0)
_DISK_PATH = _SIDE_PATH + ("ledger", "disks", 0)
# (path, a value of the wrong type, whether the key is required: None for a
# list entry or a local-system value), for every key of every table of a
# scenario document, containers included
SCENARIO_KEYS = [
    (("ring",), 8, True), (("H2_X",), [], True), (("form",), {}, True),
    (("sides",), {}, True),
    *((group + ("generators",), "H", True) for group in (
        ("H2_X",), _SIDE_PATH + ("H1_L",), _SIDE_PATH + ("H2_XL",))),
    *((group + ("relations",), 0, False) for group in (
        ("H2_X",), _SIDE_PATH + ("H1_L",), _SIDE_PATH + ("H2_XL",))),
    (("H2_X", "generators", 0), {}, None),
    (_SIDE_PATH, "T_a", None),
    (_SIDE_PATH + ("name",), 7, False),
    (_SIDE_PATH + ("H1_L",), ["dbeta"], True),
    (_SIDE_PATH + ("H2_XL",), "H", True),
    (_SIDE_PATH + ("j",), {}, True), (_SIDE_PATH + ("bd",), 1, True),
    (_SIDE_PATH + ("fundamental_class",), "0", True),
    (_SIDE_PATH + ("monotone",), 1, False), (_SIDE_PATH + ("b",), [1], False),
    (_SIDE_PATH + ("lattice_params",), [3, 2], False),
    (_SIDE_PATH + ("lattice_params", "k"), "3", True),
    (_SIDE_PATH + ("lattice_params", "N"), 2.0, True),
    (_SIDE_PATH + ("local_system",), ["dbeta"], False),
    (_SIDE_PATH + ("local_system", "dbeta"), [1], None),
    (_SIDE_PATH + ("subspace",), "F2", False),
    (_SIDE_PATH + ("subspace", "field"), 2, True),
    (_SIDE_PATH + ("subspace", "base"), {}, True),
    (_SIDE_PATH + ("subspace", "span"), 1, True),
    (_SIDE_PATH + ("asserted_invariant",), 1, False),
    (_SIDE_PATH + ("ledger",), [], True),
    (_SIDE_PATH + ("ledger", "complete_below"), [], False),
    (_SIDE_PATH + ("ledger", "disks"), {}, True),
    (_DISK_PATH, "H-2b-a", None),
    (_DISK_PATH + ("label",), 1, True),
    (_DISK_PATH + ("rel_class",), "1,-2,-1", True),
    (_DISK_PATH + ("boundary",), -2, True),
    (_DISK_PATH + ("maslov",), "2", True),
    (_DISK_PATH + ("area",), 0.1, True),
    (_DISK_PATH + ("count",), None, True)]


@pytest.mark.parametrize("path, value, where", [
    (("sides", 0, "monotone"), "no", "sides[0].monotone"),
    (("sides", 0, "ledger", "disks", 1, "count"), True,
     "sides[0].ledger.disks[1].count"),
    (("sides", 0, "lattice_params"), {"k": True, "N": 2},
     "sides[0].lattice_params.k"),
    *((path, value, _json_path(path)) for path, value, _ in SCENARIO_KEYS)])
def test_loader_scalar_errors_name_their_path(path, value, where):
    """A value of the wrong type is a SchemaError in one form: its JSON path,
    the kind expected and the value."""
    doc = _every_key_document()
    _set(doc, path, value)
    with pytest.raises(SchemaError,
                       match=rf"^{re.escape(where)}: expected .+, got "):
        load_scenario(json.dumps(doc))


@pytest.mark.parametrize("path", [path for path, _, required
                                  in SCENARIO_KEYS if required],
                         ids=_json_path)
def test_loader_missing_keys_name_their_object(path):
    doc = _every_key_document()
    _set(doc, path, DELETE)
    where = _json_path(path[:-1]) or "document"
    with pytest.raises(SchemaError) as info:
        load_scenario(json.dumps(doc))
    assert str(info.value) == f"{where}: missing key {path[-1]!r}"


@pytest.mark.parametrize("path", [path for path, _, required
                                  in SCENARIO_KEYS if required is False],
                         ids=_json_path)
def test_loader_reads_an_absent_or_null_optional_key_as_its_default(path):
    """Deleting an optional key and setting it to null load alike; the
    cutoff then reads as "inf", which this non-monotone side refuses."""
    results = []
    for value in (DELETE, None):
        doc = _every_key_document()
        _set(doc, path, value)
        try:
            results.append(load_scenario(json.dumps(doc)).canonical_json())
        except ValidationError as exc:
            results.append(str(exc))
    assert results[0] == results[1]


def test_an_absent_or_null_side_name_is_its_index():
    doc = combine(make("cp2_ta"), builtin_scenario("cp2_clifford")
                  ).to_json_dict()
    del doc["sides"][0]["name"]
    doc["sides"][1]["name"] = None
    assert [side.name for side in load_scenario(doc).sides] == [
        "side0", "side1"]


@pytest.mark.parametrize("k, n", [(-1, 0), (0, 2), (3, 0)])
def test_loader_rejects_lattice_params_below_one(k, n):
    doc = builtin_scenario("cp2_ta", A_DEFAULT).to_json_dict()
    doc["sides"][0]["lattice_params"] = {"k": k, "N": n}
    with pytest.raises(ValidationError, match="lattice parameters"):
        load_scenario(json.dumps(doc))


def _run(doc, tmp_path, command):
    """(exit code, document, seconds) of one command on the document."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    start = time.perf_counter()
    code = main([command, "--scenario", str(path)], out=out)
    return code, json.loads(out.getvalue()), time.perf_counter() - start


@pytest.mark.parametrize("name, path, value, message", [
    ("cp2_ta", ("sides", 0, "fundamental_class"), [0, 0],
     "side T_a: fundamental class length"),
    ("cp2_clifford", ("sides", 0, "b"), DELETE,
     "side T_Cl: monotone side needs its constant"),
    ("cp2_clifford", ("sides", 0, "ledger", "disks", 0, "area"), "1/4",
     "side T_Cl: disk b1 violates area = (b/2) * maslov"),
    ("cp2_ta", ("sides", 0, "local_system"), {"dbeta": "1"},
     "side T_a: local system must assign a unit to every H1 generator"),
    ("cp2_ta", ("sides", 0, "subspace"),
     {"field": "F2", "base": [0, 0, 0], "span": []},
     "side T_a: subspace ambient dimension != rank H1"),
    ("cp2_ta", ("sides", 0, "asserted_invariant"), [0, 0],
     "side T_a: asserted invariant length"),
    ("cp2_ta", ("sides", 0, "ledger", "disks", 0, "rel_class"), [1, -2],
     "side T_a: disk H-2b-a class length"),
    ("cp2_ta", ("sides", 0, "ledger", "disks", 0, "boundary"), [-2],
     "side T_a: disk H-2b-a boundary length"),
    ("cp2_ta", ("sides", 0, "ledger", "disks", 0, "maslov"), 4,
     "side T_a: disk H-2b-a has Maslov index 4; only index 2 is supported"),
    ("cp2_ta", ("sides", 0, "lattice_params"), {"k": 0, "N": 2},
     "side T_a: lattice parameters need k >= 1 and N >= 1"),
    ("cp2_ta", ("sides", 0, "ledger", "complete_below"), "inf",
     "side T_a: a non-monotone ledger needs a finite completeness cutoff")])
def test_side_rejections_exit_3_with_their_message(tmp_path, name, path,
                                                   value, message):
    doc = make(name).to_json_dict()
    _set(doc, path, value)
    code, report, _ = _run(doc, tmp_path, "validate")
    assert (code, report["error"]) == (3, {"type": "ValidationError",
                                           "message": message})


@pytest.mark.parametrize("path, value, kind, message", [
    ((), [], "SchemaError", "top level must be a JSON object"),
    (("ring",), "W", "ValidationError", "cannot parse ring name 'W'"),
    (("H2_X", "generators"), ["H", "H"], "ValidationError",
     "H2_X: generator labels must be unique"),
    (("sides", 0, "ledger", "disks", 0, "area"), "0", "ValidationError",
     "disk H-2b-a: area must be positive"),
    (("sides", 0, "ledger", "disks", 1, "label"), "H-2b-a", "ValidationError",
     "duplicate disk labels in ledger"),
    (("sides", 0, "subspace"), {"field": "Z/4", "base": [0, 0], "span": []},
     "ValidationError", "subspace field must be a prime field"),
    (("sides", 0, "subspace"), {"field": "F4", "base": [0, 0], "span": []},
     "ValidationError",
     "sides[0].subspace: prime field requires a prime modulus"),
    (("ring",), "Z/ 8", "ValidationError", "cannot parse ring name 'Z/ 8'"),
    (("sides", 0, "subspace"), {"field": "F\u0662", "base": [0, 0],
                                "span": []},
     "ValidationError", "sides[0].subspace: cannot parse ring name 'F\u0662'"),
    # the four invalid documents of the benchmark's requests workload, which
    # checks each by a fragment of its message
    (("sides", 0, "ledger", "disks", 0, "count"), DELETE, "SchemaError",
     "sides[0].ledger.disks[0]: missing key 'count'"),
    (("sides", 0, "ledger", "disks", 1, "area"), "1/x", "SchemaError",
     "sides[0].ledger.disks[1].area: bad rational '1/x'"),
    (("sides", 0, "ledger", "disks", 2, "boundary"), [9, 9],
     "ValidationError", "side T_a: boundary mismatch for disk H-2b+a"),
    (("sides", 0, "ledger", "disks", 0, "maslov"), 3, "ValidationError",
     "disk H-2b-a: odd Maslov index"),
    (("sides", 0, "ledger", "disks", 1, "area"), "1_0/2_0", "SchemaError",
     "sides[0].ledger.disks[1].area: bad rational '1_0/2_0'")])
def test_document_rejections_exit_3_with_their_message(tmp_path, path, value,
                                                       kind, message):
    doc = make("cp2_ta").to_json_dict()
    if path:
        _set(doc, path, value)
    else:
        doc = value
    code, report, _ = _run(doc, tmp_path, "validate")
    assert (code, report["error"]) == (3, {"type": kind, "message": message})


# --- documents at and past the size limits --------------------------------------

def _times(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _unimodular(n, bits, rng):
    """A dense unimodular n x n matrix and its inverse, made by random row
    additions until an entry of either has bits // 2 bits."""
    p = [[int(i == k) for k in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    while n > 1 and max(abs(x) for m in (p, q) for row in m
                        for x in row).bit_length() < bits // 2:
        i, k = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        p[i] = [x + c * y for x, y in zip(p[i], p[k])]
        for row in q:
            row[k] -= c * row[i]
    return p, q


def dense_document(generators, relations, disks, bits, seed=0):
    """A valid two-sided document: H1(L) and H2(X,L) have `generators`
    generators, H2(X) one fewer, every group has `relations` relation rows,
    each side `disks` disks, and entries have up to `bits` bits.

    In a plain basis the relations kill the first k generators of each group,
    j sends x_i to y_i, and bd sends y_i to z_i except for k <= i < n - 1.
    Dense unimodular changes of basis then fill every matrix.  The disks
    come in pairs whose boundaries cancel, so oc_low lifts their sum and
    evaluate_pair runs to its end.
    """
    rng = random.Random(seed)
    while True:   # draw again when an entry has more than `bits` bits
        doc = _dense_draw(generators, relations, disks, bits, rng)
        if max(x.bit_length() for x in _entries(doc)) <= bits:
            return doc


def _dense_draw(generators, relations, disks, bits, rng):
    n, m = generators, generators - 1
    k = min(relations, m - 1)

    def relation_rows(p):
        basic = _times(_unimodular(k, bits, rng)[0],
                       [[row[i] for row in p] for i in range(k)])
        extra = [[sum(c * x for c, x in zip(cs, column))
                  for column in zip(*basic)]
                 for cs in ([rng.randint(-3, 3) for _ in basic]
                            for _ in range(relations - k))]
        return basic + extra

    px, px_inv = _unimodular(m, bits, rng)
    j0 = [[int(i == c) for c in range(m)] for i in range(n)]
    bd0 = [[int(i == c and not k <= c < m) for c in range(n)]
           for i in range(n)]

    def side(name):
        py, py_inv = _unimodular(n, bits, rng)
        pz, _ = _unimodular(n, bits, rng)
        bd = _times(_times(pz, bd0), py_inv)
        ledger = []
        for d in range(disks):
            if d % 2 == 0:
                plain = [rng.randint(-3, 3) for _ in range(n - 1)] + [1]
            else:   # the pair's boundaries cancel; its sum is j of w
                w = [rng.randint(-3, 3) for _ in range(m)]
                plain = [y - x for x, y in zip(plain, w + [0])]
            rel = list(mat_vec(py, plain))
            ledger.append({"label": f"d{d}", "rel_class": rel,
                           "boundary": list(mat_vec(bd, rel)),
                           "maslov": 2, "area": "1/2", "count": 1})
        return {"name": name,
                "H1_L": {"generators": [f"z{i}" for i in range(n)],
                         "relations": relation_rows(pz)},
                "H2_XL": {"generators": [f"y{i}" for i in range(n)],
                          "relations": relation_rows(py)},
                "j": _times(_times(py, j0), px_inv), "bd": bd,
                "fundamental_class": [0] * m, "monotone": True, "b": "1/2",
                "ledger": {"complete_below": "inf", "disks": ledger}}

    top = 1 << (bits - 1)
    form = [[0] * m for _ in range(m)]
    for i in range(m):
        for c in range(i, m):
            form[i][c] = form[c][i] = rng.randrange(-top, top)
    return {"ring": "Z/8",
            "H2_X": {"generators": [f"x{i}" for i in range(m)],
                     "relations": relation_rows(px)},
            "form": form, "sides": [side("L"), side("K")]}


def _entries(node):
    if type(node) is int:
        yield node
    elif isinstance(node, (list, dict)):
        for child in (node.values() if isinstance(node, dict) else node):
            yield from _entries(child)


def _at_bounds(seed=0):
    return dense_document(MAX_GENERATORS, MAX_RELATIONS, MAX_DISKS,
                          MAX_INT_BITS, seed)


@pytest.mark.parametrize("command", ["validate", "invariant", "criterion"])
def test_dense_document_at_every_bound_runs_to_the_end(tmp_path, command):
    """The slowest shape the limits admit: it must load and run, and the
    limits exist so that this takes well under a second; the looser time
    bound here only catches a hang."""
    doc = _at_bounds()
    assert len(doc["sides"][0]["H1_L"]["generators"]) == MAX_GENERATORS
    assert len(doc["H2_X"]["relations"]) == MAX_RELATIONS
    assert len(doc["sides"][0]["ledger"]["disks"]) == MAX_DISKS
    assert max(x.bit_length() for x in _entries(doc)) == MAX_INT_BITS
    code, report, seconds = _run(doc, tmp_path, command)
    assert code == 0, report
    if command == "criterion":
        assert report["result"]["conclusion"] == "non_displaceable"
    assert seconds < 10


def _one_generator_too_many():
    return dense_document(MAX_GENERATORS + 1, MAX_RELATIONS, MAX_DISKS,
                          MAX_INT_BITS)


def _one_relation_too_many():
    doc = _at_bounds()
    doc["H2_X"]["relations"].append([0] * (MAX_GENERATORS - 1))
    return doc


def _one_disk_too_many():
    doc = _at_bounds()
    disks = doc["sides"][1]["ledger"]["disks"]
    disks.append(dict(disks[0], label="extra"))
    return doc


def _one_bit_too_many():
    doc = _at_bounds()
    doc["form"][1][1] = -1 << MAX_INT_BITS
    return doc


@pytest.mark.parametrize("build, message", [
    (_one_generator_too_many,
     f"sides[0].H1_L: {MAX_GENERATORS + 1} generators; the limit is "
     f"{MAX_GENERATORS}"),
    (_one_relation_too_many,
     f"H2_X: {MAX_RELATIONS + 1} relation rows; the limit is "
     f"{MAX_RELATIONS}"),
    (_one_disk_too_many,
     f"sides[1].ledger: {MAX_DISKS + 1} disks; the limit is {MAX_DISKS}"),
    (_one_bit_too_many,
     f"form[1][1]: an integer of {MAX_INT_BITS + 1} bits; the limit is "
     f"{MAX_INT_BITS} bits")])
def test_one_past_a_bound_is_a_validation_error(tmp_path, build, message):
    doc = build()
    for command in ("validate", "invariant", "criterion"):
        code, report, _ = _run(doc, tmp_path, command)
        assert (code, report["error"]) == (3, {"type": "ValidationError",
                                               "message": message})


BOUNDS = {"generators": MAX_GENERATORS, "relations": MAX_RELATIONS,
          "disks": MAX_DISKS, "bits": MAX_INT_BITS}


@st.composite
def dense_shapes(draw):
    """A dense_document shape inside the loader bounds, or one past one of
    them, each size drawn uniformly.  dense_document draws no document of
    fewer than 3 bits or 2 generators."""
    shape = {key: draw(st.sampled_from(range(low, BOUNDS[key] + 1)))
             for key, low in (("generators", 2), ("relations", 0),
                              ("disks", 0), ("bits", 3))}
    past = draw(st.sampled_from([None, *BOUNDS]))
    if past is not None:
        shape[past] = BOUNDS[past] + 1
    return shape, past, draw(st.integers(0, 2 ** 16))


@settings(max_examples=60)
@given(dense_shapes())
def test_dense_shapes_end_in_time(shape_past_seed):
    """Every shape ends in exit 0, 3 or 4, each command within a time bound
    far above what the bounds are set for; validate accepts exactly the
    shapes inside the bounds (one more bit may still draw entries that fit)."""
    shape, past, seed = shape_past_seed
    doc = dense_document(**shape, seed=seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        for command in ("validate", "invariant", "criterion"):
            start = time.perf_counter()
            code = main([command, "--scenario", path], out=io.StringIO())
            assert time.perf_counter() - start < 2, (command, shape)
            assert code in (0, 3, 4), (command, shape)
            if command == "validate":
                assert code == (0 if past is None else 3) \
                    or past == "bits", shape


def test_entries_at_the_bit_limit_load():
    doc = builtin_scenario("cp2_clifford").to_json_dict()
    for value in ((1 << MAX_INT_BITS) - 1, -(1 << MAX_INT_BITS) + 1):
        doc["form"] = [[value]]
        assert load_scenario(json.dumps(doc)).form.matrix == ((value,),)
    doc["form"] = [[1 << MAX_INT_BITS]]
    with pytest.raises(ValidationError, match="the limit is"):
        load_scenario(json.dumps(doc))


@pytest.mark.parametrize("data", [
    # a valid scenario encoded twice: a JSON string holding the document
    json.dumps(builtin_scenario("cp2_ta", {"a": "1/10"}).canonical_json()),
    '"x"', "[1, 2]", "3", "null"],
    ids=["double-encoded", "string", "list", "number", "null"])
@pytest.mark.parametrize("command", [
    ["validate", "{}"], ["invariant", "--ring", "Z/8", "--scenario", "{}"],
    ["probes", "{}", "--point", "1/4,1/4"]])
def test_files_that_hold_no_json_object_are_schema_errors(tmp_path, command,
                                                          data):
    """The one file reader decodes once and wants an object, so a document
    encoded twice is refused rather than decoded again."""
    path = tmp_path / "document.json"
    path.write_text(data)
    out = io.StringIO()
    assert main([x.format(path) for x in command], out=out) == 3
    assert json.loads(out.getvalue())["error"] == {
        "type": "SchemaError", "message": "top level must be a JSON object"}


def test_integer_too_long_for_int_is_a_schema_error(tmp_path):
    text = builtin_scenario("cp2_clifford").canonical_json().replace(
        '"form":[[1]]', '"form":[[1' + "0" * 5000 + "]]")
    path = tmp_path / "long.json"
    path.write_text(text)
    out = io.StringIO()
    assert main(["validate", str(path)], out=out) == 3
    error = json.loads(out.getvalue())["error"]
    assert error["type"] == "SchemaError"
    assert error["message"].startswith("not valid JSON: ")


def test_sixty_generator_document_ends_at_once(tmp_path):
    """H2(X) = Z, H2(X,L) = Z^61 and H1(L) = Z^60, bd a dense unimodular
    60 x 60 block with entries of up to 78 bits, one disk per generator of
    H2(X,L).  Without the size limits, validate on it ran for more than
    30 s inside smith_normal_form."""
    rng = random.Random(60)

    def unitriangular(lower):
        return [[rng.randrange(-1 << 24, 1 << 24) if (i > c if lower
                 else i < c) else int(i == c) for c in range(60)]
                for i in range(60)]

    u = _times(_times(unitriangular(True), unitriangular(False)),
               unitriangular(True))
    bd = [row + [0] for row in u]
    disks = [{"label": f"d{i}", "rel_class": [int(i == c) for c in range(61)],
              "boundary": [row[i] for row in bd], "maslov": 2, "area": "1/2",
              "count": 1} for i in range(61)]
    doc = {"ring": "Z/8", "H2_X": {"generators": ["H"], "relations": []},
           "form": [[1]],
           "sides": [{"name": "L",
                      "H1_L": {"generators": [f"z{i}" for i in range(60)]},
                      "H2_XL": {"generators": [f"y{i}" for i in range(61)]},
                      "j": [[0]] * 60 + [[1]], "bd": bd,
                      "fundamental_class": [0], "monotone": True, "b": "1/2",
                      "ledger": {"complete_below": "inf", "disks": disks}}]}
    assert 70 < max(x.bit_length() for x in _entries(bd)) <= 78
    assert len(json.dumps(doc)) > 150_000
    code, report, seconds = _run(doc, tmp_path, "validate")
    assert (code, report["error"]) == (3, {
        "type": "ValidationError",
        "message": f"sides[0].H1_L: 60 generators; the limit is "
                   f"{MAX_GENERATORS}"})
    assert seconds < 1


def test_ten_thousand_side_document_ends_at_once(tmp_path):
    """The side count is read before any side is parsed, so it is reported
    before a fault inside a side.  Parsing 10,000 sides first took more than
    a second."""
    doc = make("cp2_ta").to_json_dict()
    doc["sides"] = doc["sides"] * 9_999 + ["not a side"]
    code, report, seconds = _run(doc, tmp_path, "validate")
    assert (code, report["error"]) == (3, {
        "type": "ValidationError",
        "message": "a scenario has one or two sides"})
    assert seconds < 1


def test_thirty_thousand_side_document_is_refused_before_parsing(tmp_path):
    """22 MB of JSON: parsing it alone took 1.4 s, so its length is checked
    before json.loads; the polytope path reads files the same way."""
    side = json.dumps(make("cp2_ta").to_json_dict()["sides"][0])
    text = ('{"ring": "Z/8", "sides": [' + ", ".join([side] * 29_999)
            + ', "not a side"]}')
    assert len(text) > 20_000_000
    path = tmp_path / "huge.json"
    path.write_text(text)
    message = (f"document: {len(text)} bytes; the limit is "
               f"{MAX_DOCUMENT_BYTES} bytes")
    for argv in (["validate", str(path)],
                 ["probes", str(path), "--point", "1/4,1/4"]):
        out = io.StringIO()
        start = time.perf_counter()
        assert main(argv, out=out) == 3
        assert time.perf_counter() - start < 1
        assert json.loads(out.getvalue())["error"] == {
            "type": "ValidationError", "message": message}


def _counts_of(value):
    doc = make("cp2_ta").to_json_dict()
    for disk in doc["sides"][0]["ledger"]["disks"]:
        disk["count"] = value
    return doc


def _lattice_without_b(value):
    doc = make("cp2_ta").to_json_dict()
    side = doc["sides"][0]
    side["ledger"]["disks"] = [d for d in side["ledger"]["disks"]
                               if d["label"] != "b"]
    side["lattice_params"] = {"k": value, "N": value}
    return doc


def _near_monotone(q):
    return make("cp2_ta", {"a": F(1, 3) - F(1, q)}).to_json_dict()


HUGE = 9 * 10 ** 4299   # under int()'s 4300 digits, far over MAX_INT_BITS


@pytest.mark.parametrize("doc, message", [
    (_counts_of(HUGE), "sides[0].ledger.disks[0].count: an integer of "
                       f"{HUGE.bit_length()} bits"),
    (_lattice_without_b(HUGE), "sides[0].lattice_params.k: an integer of "
                               f"{HUGE.bit_length()} bits"),
    (_near_monotone(10 ** 4000 + 1),
     "sides[0].ledger.complete_below: a numerator of 13288 bits"),
    (_near_monotone(10 ** 4000 + 3),
     "sides[0].ledger.complete_below: a numerator of 13288 bits")],
    ids=["count", "lattice_params", "area_1", "area_3"])
def test_scalars_and_rationals_past_the_bit_bound_fail_validate(
        tmp_path, doc, message):
    """Each of these once passed validate, and then invariant or criterion
    ended in a usage error when it printed a sum of more than 4300 digits."""
    code, report, _ = _run(doc, tmp_path, "validate")
    assert (code, report["error"]) == (3, {
        "type": "ValidationError",
        "message": f"{message}; the limit is {MAX_INT_BITS} bits"})


def _disk(doc):
    return doc["sides"][0]["ledger"]["disks"][1]


@pytest.mark.parametrize("where, what, put", [
    ("sides[0].ledger.disks[1].maslov", "an integer",
     lambda doc, n: _disk(doc).update(maslov=n)),
    ("sides[0].ledger.disks[1].area", "a denominator",
     lambda doc, n: _disk(doc).update(area=f"1/{n}")),
    ("sides[0].b", "a numerator",
     lambda doc, n: doc["sides"][0].update(b=f"-{n}/2")),
    ("sides[0].local_system.db2", "a numerator",
     lambda doc, n: doc["sides"][0].update(
         local_system={"db1": 1, "db2": f"{n}/2"}))],
    ids=["maslov", "area", "b", "local_system"])
def test_every_document_scalar_is_bounded(where, what, put):
    """A value of MAX_INT_BITS bits passes the bound (later checks may still
    refuse it); one more bit is a ValidationError at its JSON path."""
    for bits in (MAX_INT_BITS, MAX_INT_BITS + 1):
        doc = make("cp2_clifford").to_json_dict()
        put(doc, (1 << bits) - 1)
        try:
            load_scenario(json.dumps(doc))
            message = None
        except ValidationError as exc:
            message = str(exc)
        if bits == MAX_INT_BITS:
            assert message is None or "the limit is" not in message
        else:
            assert message == (f"{where}: {what} of {bits} bits; the limit "
                               f"is {MAX_INT_BITS} bits")


FUZZ_DOCUMENTS = [
    builtin_scenario("cp2_ta", A_DEFAULT).to_json_dict(),
    builtin_scenario("p1xp1_ta", {"a": F(1, 5)}).to_json_dict(),
    builtin_scenario("bl3_clifford").to_json_dict(),
    combine(builtin_scenario("cp2_ta", A_DEFAULT),
            builtin_scenario("cp2_clifford")).to_json_dict(),
    sphere_pair(F(1, 5), F(1, 6), 2).to_json_dict(),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(-3, 3, allow_nan=False) | st.sampled_from(
        ["", "a", "1", "1/2", "inf", "F2", "Z/4", "dbeta"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["k", "N", "dbeta", "field"]), inner,
                      max_size=2),
    max_leaves=6)


def _paths(node, prefix=()):
    yield prefix
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_DOCUMENTS))))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))[1:]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["delete", "replace", "nudge"]))
        if action == "delete":
            del parent[path[-1]]
        elif action == "replace" or type(parent[path[-1]]) is not int:
            parent[path[-1]] = draw(JSON_VALUES)
        else:
            parent[path[-1]] += draw(st.integers(-2, 2))
    return doc


# later commands with an explicit ring, field, local system or residue ring;
# none may crash on a document that validate accepts
ACCEPTED_DOCUMENT_ARGVS = [
    ["potential", "--analyze-units", "--residue-ring", "Z/8"],
    ["potential", "--residue-ring", "F7"],
    ["invariant", "--ring", "Z/9", "--local-system=dbeta=2,dalpha=-1"],
    ["criterion", "--ring", "F2", "--field", "F2"],
]


@settings(max_examples=300)
@given(mutated_documents())
def test_mutated_documents_end_in_typed_errors(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        for command in ("validate", "invariant", "criterion"):
            assert main([command, "--scenario", path],
                        out=io.StringIO()) in (0, 2, 3, 4)
        if main(["validate", path], out=io.StringIO()) != 0:
            return
        for argv in ACCEPTED_DOCUMENT_ARGVS:
            assert main([argv[0], "--scenario", path, *argv[1:]],
                        out=io.StringIO()) in (0, 2, 3, 4)
    scenario = load_scenario(json.dumps(doc))
    for side in scenario.sides:
        try:
            oc_low(side, scenario.ring)
        except FloerDiskError:
            pass
    try:
        evaluate_pair(scenario, use_subspaces=True, ring=scenario.ring)
    except FloerDiskError:
        pass


@pytest.mark.parametrize("name, low, high, top", [
    ("cp2_ta", F(0), F(1, 3), True), ("p1xp1_ta", F(0), F(1, 2), True),
    ("bl3_ta", F(0), F(1, 2), False), ("ts2_la", F(0), F(10 ** 9), False),
    ("trp2_la", F(0), F(10 ** 9), False)])
def test_builtin_parameter_intervals(name, low, high, top):
    builtin_scenario(name, {"a": (low + high) / 2})
    for a in (low, high + F(1, 100)) + (() if top else (high,)):
        with pytest.raises(BadParams, match="outside"):
            builtin_scenario(name, {"a": a})
    if top:
        builtin_scenario(name, {"a": high})


# --- the builtin table against the hand-written builders -------------------

def _oracle_cases():
    for name in BUILTIN_NAMES:
        if name not in A_INTERVALS:
            yield name, None
            continue
        low, high, top_allowed = A_INTERVALS[name]
        width = min(high, 3) - low
        for k in range(1, 37):
            yield name, low + k * width / 37
        if top_allowed:
            yield name, high


@pytest.mark.parametrize("name, a", list(_oracle_cases()))
def test_builtin_table_matches_oracle(name, a):
    params = None if a is None else {"a": a}
    assert builtin_scenario(name, params).canonical_json() == \
        oracle_builtin_scenario(name, a).canonical_json()


@pytest.mark.parametrize("a, b, k", [
    (F(1, 5), F(1, 6), 2), (F(1, 10), F(1, 10), 3), (F(1, 4), F(1, 4), 3)])
def test_sphere_pair_matches_oracle(a, b, k):
    assert sphere_pair(a, b, k).canonical_json() == \
        oracle_sphere_pair(a, b, k).canonical_json()


def test_sphere_pair_past_its_bound_matches_oracle():
    with pytest.raises(BadParams) as expected:
        oracle_sphere_pair(F(1, 2), F(1, 2), 3)
    with pytest.raises(BadParams) as got:
        sphere_pair(F(1, 2), F(1, 2), 3)
    assert str(got.value) == str(expected.value)


def _fully_valid_and_equal(got, expected):
    assert got.sides == expected.sides
    for side in got.sides:
        scenario_module._validate_side(got.h2x, side)


def test_the_validation_marker_covers_only_valid_sides():
    # built from cold templates in rising and then in falling order of a
    # (so that each top end is once its template's first build), every
    # builtin side passes the full validation that only that first build
    # ran, and equals its oracle side
    cases = list(_oracle_cases())
    try:
        for order in (cases, cases[::-1]):
            scenario_module._topology.cache_clear()
            for name, a in order:
                _fully_valid_and_equal(
                    builtin_scenario(name, None if a is None else {"a": a}),
                    oracle_builtin_scenario(name, a))
    finally:
        scenario_module._topology.cache_clear()
    for a, b, k in [(F(1, 5), F(1, 6), 2), (F(1, 10), F(1, 10), 3),
                    (F(1, 4), F(1, 4), 3)]:
        _fully_valid_and_equal(sphere_pair(a, b, k),
                               oracle_sphere_pair(a, b, k))


_CP2_TA = scenario_module._TABLE["cp2_ta"]


@pytest.mark.parametrize("change, first, error, message", [
    # a rel_class of the wrong length
    ({"disks": (("H-2b-a", (1, -2), 1, (0, 1)),) + _CP2_TA.disks[1:]}, None,
     DimensionMismatch, "matrix/vector shape mismatch"),
    # a duplicate disk label
    ({"disks": _CP2_TA.disks + _CP2_TA.disks[:1]}, None,
     ValidationError, "duplicate disk labels in ledger"),
    # the cutoff 1 - 3a meets the area a at a = 1/4, inside (0, 1/3)
    ({"cutoff": (1, -3)}, F(1, 10),
     ValidationError, "disk H-2b-a: area 1/4 not below ledger cutoff 1/4"),
    # refused by the checks that run only on a template's first build
    ({"asserted": (0, 0)}, None,
     ValidationError, "side T_a: asserted invariant length"),
    # first built at the top end, which has no lattice
    ({"lattice": (0, 2)}, F(1, 3),
     ValidationError, "side T_a: lattice parameters need k >= 1 and N >= 1"),
], ids=["rel_class_length", "duplicate_label", "area_at_cutoff",
        "asserted_length", "lattice_after_top"])
def test_a_broken_table_row_is_refused_at_its_first_build(
        monkeypatch, change, first, error, message):
    monkeypatch.setitem(scenario_module._TABLE, "cp2_ta",
                        _CP2_TA._replace(**change))
    scenario_module._topology.cache_clear()
    try:
        if first is not None:
            builtin_scenario("cp2_ta", {"a": first})
        for _ in range(2):   # a refused template is not marked valid
            with pytest.raises(error) as caught:
                builtin_scenario("cp2_ta", {"a": F(1, 4)})
            assert str(caught.value) == message
    finally:
        scenario_module._topology.cache_clear()


@pytest.fixture
def snf_calls(monkeypatch):
    calls = []
    original = abelian_module.smith_normal_form

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(abelian_module, "smith_normal_form", counted)
    scenario_module._topology.cache_clear()
    return calls


@pytest.mark.parametrize("name, first, again", [
    ("bl3_ta", {"a": F(1, 5)}, {"a": F(1, 4)}),
    ("cp2_ta", {"a": F(1, 10)}, {"a": F(1, 3)}),
    ("bl3_clifford", None, None)])
def test_rebuilt_builtin_makes_no_snf_calls(snf_calls, name, first, again):
    builtin_scenario(name, first)
    assert snf_calls
    del snf_calls[:]
    builtin_scenario(name, again)
    assert snf_calls == []


@pytest.mark.parametrize("command, distinct", [
    ("validate", 9), ("invariant", 12), ("criterion", 14)])
def test_at_bounds_document_factors_each_matrix_once(snf_calls, tmp_path,
                                                     command, distinct):
    # every solve, kernel, zero test and structure() reads one memoised
    # factorisation per distinct quotient matrix (131 / 181 / 215 SNF
    # calls when each re-factored its own)
    code, _, _ = _run(_at_bounds(), tmp_path, command)
    assert code == 0
    assert len(snf_calls) == len(set(snf_calls)) == distinct


def test_every_load_checks_exactness(snf_calls, monkeypatch):
    text = builtin_scenario("cp2_ta", A_DEFAULT).canonical_json()
    kernels = []
    original = scenario_module.kernel_basis

    def counted(*args, **kwargs):
        kernels.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenario_module, "kernel_basis", counted)
    load_scenario(text)
    load_scenario(text)
    assert len(kernels) == 2
    doc = json.loads(text)
    doc["sides"][0]["bd"] = [[1, 1, 0], [0, 0, 1]]
    with pytest.raises(ValidationError, match=r"exactness \(bd o j"):
        load_scenario(json.dumps(doc))


def test_replaced_j_is_checked_again():
    scenario = builtin_scenario("cp2_ta", A_DEFAULT)
    side = scenario.side
    broken = replace(side, j=replace(side.j, matrix=((0,), (0,), (0,))))
    with pytest.raises(ValidationError, match=r"exactness \(ker bd"):
        Scenario(scenario.h2x, scenario.form, (broken,), scenario.ring)


@pytest.mark.parametrize("value", [3, F(3), F(7, 2)])
def test_records_keep_fractions_and_convert_other_rationals(value):
    """A Fraction given to DiskClass, DiskLedger or LagrangianSide is kept as
    the same object; an int becomes an equal Fraction."""
    def check(got):
        assert type(got) is Fraction and got == value
        assert got is value or type(value) is not Fraction
    disk = DiskClass("b", (1,), (1,), 2, value, 1)
    check(disk.area)
    check(DiskLedger((), complete_below=value).complete_below)
    side = builtin_scenario("cp2_clifford", {}).side
    check(replace(side, monotonicity_constant=value).monotonicity_constant)
    check(dict(replace(side, local_system={"x": value}).local_system)["x"])


@pytest.mark.parametrize("area, cutoff, message", [
    (0, None, "disk b: area must be positive"),
    (F(0), None, "disk b: area must be positive"),
    (F(-1, 2), None, "disk b: area must be positive"),
    (2, 2, "disk b: area 2 not below ledger cutoff 2"),
    (F(5, 2), F(2), "disk b: area 5/2 not below ledger cutoff 2"),
])
def test_record_messages_read_the_same_for_ints_and_fractions(area, cutoff,
                                                              message):
    with pytest.raises(ValidationError) as caught:
        DiskLedger((DiskClass("b", (1,), (1,), 2, area, 1),),
                   complete_below=cutoff)
    assert str(caught.value) == message
