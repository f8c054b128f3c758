import io
import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floerdisk import probes
from floerdisk.cli import main
from floerdisk.errors import (BadParams, InvalidProbe, ProbeSearchTooLarge,
                              SchemaError, ValidationError)
from floerdisk.probes import (Polytope2, Probe, builtin_polytope, make_probe,
                              polytope_from_json, probe_displaces,
                              probe_parameter, probe_segment, search_probes,
                              validate_probe)

from oracles import (oracle_probe_displaces, oracle_search_probes,
                     segment_ray_exit)

F = Fraction

SQUARE = Polytope2(((0, 0), (1, 0), (1, 1), (0, 1)))
STD_TRIANGLE = Polytope2(((0, 0), (1, 0), (0, 1)))


def test_polytope_validation():
    with pytest.raises(ValidationError):
        Polytope2(((0, 0), (1, 0)))
    with pytest.raises(ValidationError):  # clockwise
        Polytope2(((0, 0), (0, 1), (1, 0)))
    with pytest.raises(ValidationError):  # collinear
        Polytope2(((0, 0), (1, 0), (2, 0), (0, 1)))
    with pytest.raises(ValidationError):
        Polytope2(((0, 0), (1, 0), (0, 1)), (5,))


def test_normals_are_primitive_inward():
    poly = Polytope2(((0, 0), (2, 0), (2, 2), (0, 2)))
    normals = [f.normal for f in poly.facets]
    assert normals == [(0, 1), (-1, 0), (0, -1), (1, 0)]
    tri = Polytope2(((0, 0), (F(1, 2), 0), (0, F(1, 3))))
    # rational edges still get primitive integer normals
    assert all(abs(f.normal[0]) <= 3 and abs(f.normal[1]) <= 3
               for f in tri.facets)


def test_probe_segment_examples():
    probe = make_probe(STD_TRIANGLE, (F(1, 2), 0), (0, 1))
    segment = probe_segment(STD_TRIANGLE, probe)
    assert segment.exit_point == (F(1, 2), F(1, 2))
    assert segment.length == F(1, 2)

    probe = make_probe(SQUARE, (F(1, 2), 0), (0, 1))
    segment = probe_segment(SQUARE, probe)
    assert segment.exit_point == (F(1, 2), 1)
    assert segment.length == 1

    # direction (1,1) against normal (0,1) is integrally transverse
    probe = make_probe(STD_TRIANGLE, (F(1, 2), 0), (1, 1))
    segment = probe_segment(STD_TRIANGLE, probe)
    assert segment.exit_point == (F(3, 4), F(1, 4))
    assert segment.length == F(1, 4)
    assert segment_ray_exit(STD_TRIANGLE.vertices, (F(1, 2), 0), (1, 1)) == \
        segment.length


def test_invalid_probes():
    with pytest.raises(InvalidProbe):  # not integrally transverse
        make_probe(SQUARE, (F(1, 2), 0), (1, 2))
    with pytest.raises(InvalidProbe):  # outward
        make_probe(SQUARE, (F(1, 2), 0), (0, -1))
    with pytest.raises(InvalidProbe):  # base at a vertex
        make_probe(SQUARE, (0, 0), (0, 1))
    with pytest.raises(InvalidProbe):  # not primitive
        validate_probe(SQUARE, Probe(0, (F(1, 2), 0), (0, 2)))


def test_probe_displaces_examples():
    probe = make_probe(STD_TRIANGLE, (F(1, 2), 0), (0, 1))
    assert probe_displaces(STD_TRIANGLE, probe, (F(1, 2), F(1, 5)))
    assert not probe_displaces(STD_TRIANGLE, probe, (F(1, 2), F(1, 4)))
    assert not probe_displaces(STD_TRIANGLE, probe, (F(1, 3), F(1, 3)))


def test_default_triangles():
    tri = builtin_polytope("p1xp1")
    assert tri.vertices == ((0, 0), (1, 1), (-1, 1))
    assert tri.excluded_points() == [(0, 0)]
    cp2 = builtin_polytope("cp2")
    assert cp2.vertices[1] == (1, F(1, 2))
    with pytest.raises(ValidationError):
        builtin_polytope("nope")


def test_search_center_segment_p1xp1():
    tri = builtin_polytope("p1xp1")
    for y in [F(1, 10), F(1, 4), F(2, 5), F(1, 2)]:
        assert search_probes(tri, (0, y), 3) == [], y
    for y in [F(11, 20), F(3, 5), F(3, 4), F(9, 10)]:
        hits = search_probes(tri, (0, y), 3)
        assert hits, y
        vertical = [h for h in hits if h.probe.direction == (0, -1)]
        assert vertical
        # the vertical probe runs from the top edge down to the excluded
        # fold vertex; that exit is allowed but flagged
        assert vertical[0].exits_at_excluded_vertex


def test_search_off_segment_p1xp1():
    tri = builtin_polytope("p1xp1")
    rng = random.Random(8)
    for _ in range(40):
        y = F(rng.randint(1, 19), 20)
        x = F(rng.randint(-19, 19), 40)
        if x == 0 or not tri.contains((x, y), strict=True):
            continue
        assert search_probes(tri, (x, y), 3), (x, y)


def test_search_center_segment_cp2():
    cp2 = builtin_polytope("cp2")
    for y in [F(1, 10), F(1, 5), F(1, 4)]:
        assert search_probes(cp2, (0, y), 3) == [], y
    for y in [F(7, 25), F(3, 8), F(9, 20)]:
        assert search_probes(cp2, (0, y), 3), y


def test_search_requires_interior_point():
    with pytest.raises(ValidationError):
        search_probes(builtin_polytope("p1xp1"), (0, 1), 3)


def test_search_monotone_in_bound():
    tri = builtin_polytope("p1xp1")
    points = [(0, F(3, 4)), (F(1, 4), F(1, 2)), (F(-1, 3), F(5, 6))]
    for point in points:
        previous = set()
        for bound in (1, 2, 3, 4):
            found = {(h.probe.base, h.probe.direction)
                     for h in search_probes(tri, point, bound)}
            assert previous <= found
            previous = found


def test_json_roundtrip():
    tri = builtin_polytope("cp2")
    doc = tri.to_json_dict()
    again = polytope_from_json(doc)
    assert again == tri


def _random_unimodular(rng):
    a = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 5)):
        kind = rng.randint(0, 3)
        k = rng.randint(-2, 2)
        if kind == 0:
            e = ((1, k), (0, 1))
        elif kind == 1:
            e = ((1, 0), (k, 1))
        elif kind == 2:
            e = ((0, 1), (1, 0))
        else:
            e = ((-1, 0), (0, 1))
        a = tuple(tuple(sum(e[i][t] * a[t][j] for t in range(2))
                        for j in range(2))
                  for i in range(2))
    return a


def _apply(mat, shift, p):
    return (mat[0][0] * p[0] + mat[0][1] * p[1] + shift[0],
            mat[1][0] * p[0] + mat[1][1] * p[1] + shift[1])


def test_unimodular_equivariance():
    rng = random.Random(12)
    tri = builtin_polytope("p1xp1")
    probe = make_probe(tri, (0, 1), (0, -1))
    cases = [(tri, probe, (0, F(3, 4))), (tri, probe, (0, F(2, 5))),
             (tri, make_probe(tri, (F(1, 2), F(1, 2)), (-1, 0)),
              (F(1, 5), F(1, 2)))]
    for _ in range(20):
        mat = _random_unimodular(rng)
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        for poly, pr, point in cases:
            new_vertices = [_apply(mat, shift, v) for v in poly.vertices]
            if det < 0:
                new_vertices = list(reversed(new_vertices))
            new_poly = Polytope2(tuple(new_vertices))
            new_dir = (mat[0][0] * pr.direction[0] + mat[0][1] * pr.direction[1],
                       mat[1][0] * pr.direction[0] + mat[1][1] * pr.direction[1])
            new_probe = make_probe(new_poly, _apply(mat, shift, pr.base),
                                   new_dir)
            assert probe_displaces(new_poly, new_probe,
                                   _apply(mat, shift, point)) == \
                probe_displaces(poly, pr, point)
            assert probe_segment(new_poly, new_probe).length == \
                probe_segment(poly, pr).length


def _random_polygon(rng):
    shapes = [
        ((0, 0), (1, 0), (0, 1)),
        ((0, 0), (2, 0), (2, 2), (0, 2)),
        ((0, 0), (1, 1), (-1, 1)),
        ((0, 0), (3, 1), (2, 3), (-1, 2)),
        ((0, 0), (2, 0), (3, 2), (1, 3), (-1, 1)),
    ]
    return Polytope2(rng.choice(shapes))


def test_probe_displaces_against_oracle():
    rng = random.Random(55)
    checked = 0
    while checked < 200:
        poly = _random_polygon(rng)
        facet = rng.choice(poly.facets)
        # random base strictly inside the facet
        u = F(rng.randint(1, 9), 10)
        base = (facet.start[0] + u * (facet.end[0] - facet.start[0]),
                facet.start[1] + u * (facet.end[1] - facet.start[1]))
        direction = None
        for dx in range(-3, 4):
            for dy in range(-3, 4):
                if (dx, dy) == (0, 0):
                    continue
                if facet.normal[0] * dx + facet.normal[1] * dy == 1:
                    direction = (dx, dy)
        if direction is None:
            continue
        try:
            probe = make_probe(poly, base, direction)
        except InvalidProbe:
            continue
        length = probe_segment(poly, probe).length
        s = length * F(rng.randint(-2, 12), 10)
        point = (base[0] + s * direction[0], base[1] + s * direction[1])
        expected = oracle_probe_displaces(poly.vertices, base, direction,
                                          point)
        assert probe_displaces(poly, probe, point) == expected
        # also try a point off the probe line
        off = (point[0] + 1, point[1])
        assert probe_displaces(poly, probe, off) == \
            oracle_probe_displaces(poly.vertices, base, direction, off)
        checked += 1


def test_probe_parameter():
    probe = make_probe(SQUARE, (F(1, 2), 0), (0, 1))
    assert probe_parameter(probe, (F(1, 2), F(1, 4))) == F(1, 4)
    assert probe_parameter(probe, (F(1, 3), F(1, 4))) is None


def test_facets_built_once_behind_a_plain_property():
    # the benchmark tracer rewraps this attribute as a property
    assert isinstance(Polytope2.__dict__["facets"], property)
    tri = builtin_polytope("cp2")
    assert tri.facets is tri.facets
    assert isinstance(tri.facets, tuple)
    again = Polytope2(tri.vertices, tri.excluded_vertices)
    assert again == tri and hash(again) == hash(tri)
    assert "_facets" not in repr(tri)


# rational vertices, excluded vertices, points whose backward rays hit
# vertices for some directions, and probes exiting at excluded and at
# included vertices
DIFFERENTIAL_CASES = [
    (builtin_polytope("p1xp1"),
     [(0, F(3, 4)), (0, F(1, 2)), (F(1, 4), F(1, 2)), (F(-1, 3), F(5, 6)),
      (F(1, 10), F(9, 10))]),
    (builtin_polytope("cp2"),
     [(0, F(3, 8)), (0, F(1, 5)), (F(1, 3), F(2, 5)), (F(-1, 2), F(7, 16))]),
    (Polytope2(((0, 0), (F(3, 2), 0), (2, 1), (1, F(5, 2)), (F(-1, 3), 1)),
               (1, 3)),
     [(1, 1), (F(1, 2), F(1, 2)), (F(3, 2), F(3, 4)), (F(1, 5), F(7, 5)),
      (F(5, 4), F(1, 4)), (F(5, 12), F(1, 4))]),
    (Polytope2(((0, 0), (3, 1), (2, 3), (-1, 2)), (0, 2)),
     [(1, 1), (F(1, 2), F(3, 2)), (F(5, 2), F(3, 2))]),
    (Polytope2(((F(-1, 2), F(-1, 3)), (F(5, 3), F(-1, 2)), (2, F(1, 4)),
                (F(3, 4), F(7, 4)), (F(-5, 4), F(3, 2)), (F(-3, 2), 0)), (4,)),
     [(0, 0), (F(1, 3), F(2, 3)), (F(-1, 1), F(1, 2))]),
]


@pytest.mark.parametrize("poly, points", DIFFERENTIAL_CASES)
def test_search_equals_oracle_search(poly, points):
    for point in points:
        for bound in range(1, 9):
            assert search_probes(poly, point, bound) == \
                oracle_search_probes(poly, point, bound), (point, bound)


def _hull(points):
    """Strictly convex counterclockwise hull (monotone chain)."""
    pts = sorted(set(points))

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return half(pts) + half(reversed(pts))


coordinate = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))


@settings(max_examples=60)
@given(st.lists(st.tuples(coordinate, coordinate), min_size=3, max_size=8),
       st.lists(st.integers(1, 5), min_size=8, max_size=8),
       st.integers(1, 4), st.data())
def test_search_property_against_oracles(points, weights, bound, data):
    verts = _hull(points)
    assume(len(verts) >= 3)
    excluded = tuple(sorted(data.draw(
        st.sets(st.integers(0, len(verts) - 1), max_size=2))))
    poly = Polytope2(tuple(verts), excluded)
    w = weights[:len(verts)]
    point = (sum(a * v[0] for a, v in zip(w, verts)) / sum(w),
             sum(a * v[1] for a, v in zip(w, verts)) / sum(w))
    hits = search_probes(poly, point, bound)
    for hit in hits:
        assert oracle_probe_displaces(poly.vertices, hit.probe.base,
                                      hit.probe.direction, point)
    assert hits == oracle_search_probes(poly, point, bound)


def test_search_rejects_bounds_below_one():
    tri = builtin_polytope("p1xp1")
    for bound in (0, -1):
        with pytest.raises(BadParams):
            search_probes(tri, (0, F(3, 4)), bound)


def test_search_work_budget(monkeypatch):
    octagon = Polytope2(((2, 0), (4, 0), (6, 2), (6, 4), (4, 6), (2, 6),
                         (0, 4), (0, 2)))
    # bound 30 on eight facets is inside the budget
    assert search_probes(octagon, (1, 3), 30)
    start = time.perf_counter()
    with pytest.raises(ProbeSearchTooLarge):
        search_probes(octagon, (3, 3), 1_000_000)
    assert time.perf_counter() - start < 1
    # the charge is (nonzero directions in the box) x facets, checked up front
    monkeypatch.setattr(probes, "PROBE_WORK_BUDGET", 24 * 3)
    tri = builtin_polytope("p1xp1")
    assert search_probes(tri, (0, F(3, 4)), 2) == \
        oracle_search_probes(tri, (0, F(3, 4)), 2)
    monkeypatch.setattr(probes, "PROBE_WORK_BUDGET", 24 * 3 - 1)
    with pytest.raises(ProbeSearchTooLarge):
        search_probes(tri, (0, F(3, 4)), 2)


@pytest.mark.parametrize("doc", [
    {},
    [],
    {"vertices": "0,0 1,0 0,1"},
    {"vertices": [["0", "0"], ["1", "0", "0"], ["0", "1"]]},
    {"vertices": [["0", "0"], "1,0", ["0", "1"]]},
    {"vertices": [["0", "0"], ["1", "0"], ["0", "1/0"]]},
    {"vertices": [["0", "0"], [0.5, "0"], ["0", "1"]]},
    {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
     "excluded_vertices": [1.5]},
    {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
     "excluded_vertices": [True]},
    {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]],
     "excluded_vertices": 1},
])
def test_polytope_json_schema_errors(doc):
    with pytest.raises(SchemaError):
        polytope_from_json(doc)


def test_polygon_past_the_vertex_limit_ends_at_once(tmp_path):
    # vertices on the parabola y = x^2 make a strictly convex polygon
    def parabola(n):
        return {"vertices": [[i, i * i] for i in range(n)]}

    path = tmp_path / "polygon.json"
    path.write_text(json.dumps(parabola(probes.MAX_VERTICES + 1)))
    out = io.StringIO()
    start = time.perf_counter()
    code = main(["probes", str(path), "--point", "1,2", "--bound", "1"],
                out=out)
    assert time.perf_counter() - start < 1
    assert (code, json.loads(out.getvalue())["error"]) == (3, {
        "type": "ValidationError",
        "message": f"vertices: {probes.MAX_VERTICES + 1} vertices; the "
                   f"limit is {probes.MAX_VERTICES}"})
    poly = polytope_from_json(parabola(probes.MAX_VERTICES))
    assert len(poly.facets) == probes.MAX_VERTICES


def test_polytope_json_accepts_ints_and_rationals():
    poly = polytope_from_json({"vertices": [[0, 0], ["1/2", 0], [0, "1/3"]],
                               "excluded_vertices": [2]})
    assert poly == Polytope2(((0, 0), (F(1, 2), 0), (0, F(1, 3))), (2,))
