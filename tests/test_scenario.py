import io
import json
import os
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from floerdisk.abelian import kernel_basis, transpose
from floerdisk.cli import main
from floerdisk.criterion import evaluate_pair
from floerdisk.errors import (BadParams, FloerDiskError, SchemaError,
                              UnknownScenario, ValidationError)
from floerdisk.invariants import oc_low
from floerdisk.rings import Ring
from floerdisk.scenario import (BUILTIN_NAMES, builtin_scenario, combine,
                                load_scenario, sphere_pair)

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
    assert side.bd.apply((1, 0, 0)).coords == (0, 0)   # bd H = 0
    assert side.bd.apply((0, 1, 0)).coords == (1, 0)   # bd beta = dbeta
    assert side.bd.apply((0, 0, 1)).coords == (0, 1)   # bd alpha = dalpha
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


def test_json_roundtrip_bit_identical():
    for name in BUILTIN_NAMES:
        scenario = make(name)
        text = scenario.canonical_json()
        again = load_scenario(text)
        assert again.canonical_json() == text
        assert again.digest() == scenario.digest()


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


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
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


@pytest.mark.parametrize("path, value, where", [
    (("sides", 0, "monotone"), "no", "sides[0].monotone"),
    (("sides", 0, "ledger", "disks", 1, "count"), True,
     "sides[0].ledger.disks[1].count"),
    (("sides", 0, "lattice_params"), {"k": True, "N": 2},
     "sides[0].lattice_params.k"),
])
def test_loader_scalar_errors_name_their_path(path, value, where):
    doc = builtin_scenario("cp2_ta", A_DEFAULT).to_json_dict()
    _set(doc, path, value)
    with pytest.raises(SchemaError, match=rf"^{re.escape(where)}: "):
        load_scenario(json.dumps(doc))


@pytest.mark.parametrize("k, n", [(-1, 0), (0, 2), (3, 0)])
def test_loader_rejects_lattice_params_below_one(k, n):
    doc = builtin_scenario("cp2_ta", A_DEFAULT).to_json_dict()
    doc["sides"][0]["lattice_params"] = {"k": k, "N": n}
    with pytest.raises(ValidationError, match="lattice parameters"):
        load_scenario(json.dumps(doc))


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
