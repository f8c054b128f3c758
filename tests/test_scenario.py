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
from floerdisk.cli import main
from floerdisk.criterion import evaluate_pair
from floerdisk.errors import (BadParams, FloerDiskError, SchemaError,
                              UnknownScenario, ValidationError)
from floerdisk.invariants import oc_low
from floerdisk.rings import Ring
from floerdisk.scenario import (A_INTERVALS, BUILTIN_NAMES, MAX_DISKS,
                                MAX_GENERATORS, MAX_INT_BITS, MAX_RELATIONS,
                                Scenario, builtin_scenario, combine,
                                load_scenario, sphere_pair)
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


def _run(doc, tmp_path, command):
    """(exit code, document, seconds) of one command on the document."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    start = time.perf_counter()
    code = main([command, "--scenario", str(path)], out=out)
    return code, json.loads(out.getvalue()), time.perf_counter() - start


DELETE = object()


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
    if value is DELETE:
        del doc["sides"][0][path[-1]]
    else:
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
     "sides[0].subspace: prime field requires a prime modulus")])
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


def test_entries_at_the_bit_limit_load():
    doc = builtin_scenario("cp2_clifford").to_json_dict()
    for value in ((1 << MAX_INT_BITS) - 1, -(1 << MAX_INT_BITS) + 1):
        doc["form"] = [[value]]
        assert load_scenario(json.dumps(doc)).form.matrix == ((value,),)
    doc["form"] = [[1 << MAX_INT_BITS]]
    with pytest.raises(ValidationError, match="the limit is"):
        load_scenario(json.dumps(doc))


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
