import io
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floerdisk import probes
from floerdisk.cli import main
from floerdisk.errors import (BadParams, InvalidProbe, ProbeSearchTooLarge,
                              SchemaError, ValidationError)
from floerdisk.probes import (Polytope2, Probe, builtin_polytope, make_probe,
                              polytope_from_json, probe_displaces,
                              probe_segment, search_probes, validate_probe)
from floerdisk.rings import rational_str

from oracles import (oracle_probe_displaces, oracle_search_probes,
                     segment_ray_exit)

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"

SQUARE = Polytope2(((0, 0), (1, 0), (1, 1), (0, 1)))
STD_TRIANGLE = Polytope2(((0, 0), (1, 0), (0, 1)))


def test_polytope_validation():
    with pytest.raises(ValidationError):
        Polytope2(((0, 0), (1, 0)))
    with pytest.raises(ValidationError):  # clockwise
        Polytope2(((0, 0), (0, 1), (1, 0)))
    with pytest.raises(ValidationError):  # collinear
        Polytope2(((0, 0), (1, 0), (2, 0), (0, 1)))
    with pytest.raises(ValidationError):  # a pentagram: left turns, twice round
        Polytope2(((0, 3), (-2, -2), (3, 1), (-3, 1), (2, -2)))
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
    # Probe takes any direction and facet index; a probe the search cannot
    # find, a zero direction included, displaces nothing
    tri = builtin_polytope("p1xp1")
    base, point = (F(1, 2), F(1, 2)), (F(1, 5), F(1, 2))
    assert probe_displaces(tri, Probe(0, base, (-1, 0)), point)
    for probe in (Probe(0, base, (0, 0)), Probe(0, base, (2, 2)),
                  Probe(0, base, (-2, 0)), Probe(3, base, (-1, 0)),
                  Probe(-1, base, (-1, 0))):
        assert not probe_displaces(tri, probe, point), probe
    assert not probe_displaces(tri, Probe(0, base, (0, 0)), (0, F(3, 4)))


def test_default_triangles():
    tri = builtin_polytope("p1xp1")
    assert tri.vertices == ((0, 0), (1, 1), (-1, 1))
    assert [tri.vertices[i] for i in tri.excluded_vertices] == [(0, 0)]
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
    pentagon = Polytope2(((0, 0), (F(3, 2), 0), (2, F(2, 3)), (1, F(5, 4)),
                          (F(-1, 7), 1)), (1, 3))
    for poly in (builtin_polytope("cp2"), pentagon):
        doc = poly.to_json_dict()
        assert polytope_from_json(doc) == poly
        assert polytope_from_json(json.loads(json.dumps(doc))) == poly
    assert pentagon.to_json_dict() == {
        "vertices": [["0", "0"], ["3/2", "0"], ["2", "2/3"], ["1", "5/4"],
                     ["-1/7", "1"]],
        "excluded_vertices": [1, 3]}


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
    # vertical facets (normal (a, 0)) as well as horizontal ones (0, b)
    (Polytope2(((0, 0), (2, 0), (3, 1), (3, 2), (1, 2), (0, 1)), (2,)),
     [(1, 1), (F(1, 2), F(1, 3)), (F(5, 2), F(3, 2))]),
    # facet normals (1, 40), (-17, 70) and (-3, -70): up to bound 16 each
    # facet's line of directions n . d = 1 holds at most one box point;
    # from (20, -2/5) the probe along (1, 0) enters through the (1, 40) facet
    (Polytope2(((0, 0), (40, -1), (41, 1), (0, 1))),
     [(1, F(1, 2)), (20, F(-2, 5)), (20, F(1, 4)), (F(81, 2), F(1, 2))]),
    (Polytope2(((0, 0), (70, 17), (0, 20))),
     [(10, 10), (30, 12), (F(1, 2), F(39, 2))]),
    # two vertical and two horizontal facets; from (3/2, 1/2) the probes
    # along (1, 1) and (-1, 1) exit at the included vertex (3, 2) and at the
    # excluded vertex (0, 2)
    (Polytope2(((0, 0), (3, 0), (3, 2), (0, 2)), (3,)),
     [(F(3, 2), F(1, 2)), (1, 1), (F(5, 2), F(3, 2))]),
]


@pytest.mark.parametrize("poly, points", DIFFERENTIAL_CASES)
def test_search_equals_oracle_search(poly, points):
    """The search finds the oracle's hits; each hit's probe_segment has its
    length and flags, and the flags match the segment's exit point."""
    excluded = [poly.vertices[i] for i in poly.excluded_vertices]
    for point in points:
        for bound in range(1, 9):
            hits = search_probes(poly, point, bound)
            assert hits == oracle_search_probes(poly, point, bound), \
                (point, bound)
            for h in hits:
                s = probe_segment(poly, h.probe)
                flags = (s.exits_at_vertex, s.exits_at_excluded_vertex)
                assert (s.length, *flags) == (
                    h.length, h.exits_at_vertex, h.exits_at_excluded_vertex)
                assert flags == (s.exit_point in poly.vertices,
                                 s.exit_point in excluded), h


# the two triangles, the rational pentagon, the hexagon, the polygons with
# large normal entries and the rectangle
@pytest.mark.parametrize("poly, points", [
    DIFFERENTIAL_CASES[i] for i in (0, 1, 2, 5, 6, 7, 8)])
def test_search_equals_oracle_search_at_wide_bounds(poly, points):
    """Directions on the box's edge and entries through every kind of facet
    only give probes at the wider bounds; bound 30, the widest that fits
    the work budget on 268 facets, is tried at the first point."""
    for point in points:
        for bound in range(9, 17):
            assert search_probes(poly, point, bound) == \
                oracle_search_probes(poly, point, bound), (point, bound)
    assert search_probes(poly, points[0], 30) == \
        oracle_search_probes(poly, points[0], 30)


def _chart(mat, shift, vertices):
    """The counterclockwise vertices of the polygon mapped by x -> mat x +
    shift: an orientation-reversing mat reverses their order."""
    mapped = [_apply(mat, shift, v) for v in vertices]
    if mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] < 0:
        mapped.reverse()
    return tuple(mapped)


def _transported(mat, shift, hits, vertices, point):
    """Each hit mapped by x -> mat x + shift, its direction by mat: the
    oracle must accept it for the mapped polygon and point, and its length
    and parameter, in lattice units of its direction, must not change."""
    for hit in hits:
        base = _apply(mat, shift, hit.probe.base)
        direction = _apply(mat, (0, 0), hit.probe.direction)
        assert oracle_probe_displaces(vertices, base, direction, point), hit
        assert segment_ray_exit(vertices, base, direction) == hit.length
        assert point == (base[0] + hit.parameter * direction[0],
                         base[1] + hit.parameter * direction[1])


def test_probes_agree_in_every_integral_chart():
    """McDuff's probes are integral-affine notions: x -> Ux + t, U in
    GL(2, Z) and t rational, carries every displacing probe of (P, x) to one
    of (UP + t, Ux + t), and back.  The bound is a box of directions and not
    invariant, so each hit is checked by transport; the refusals of a point
    that is not interior and of a polygon that is not convex hold in every
    chart."""
    rng = random.Random(32)
    cases = [(poly, point) for poly, points in DIFFERENTIAL_CASES[:6]
             for point in points]
    reflex = ((0, 0), (4, 0), (1, 1), (0, 4))
    for _ in range(60):
        (a, b), (c, d) = mat = _random_unimodular(rng)
        det = a * d - b * c
        inverse = ((d * det, -b * det), (-c * det, a * det))
        shift = (F(rng.randint(-9, 9), rng.randint(1, 6)),
                 F(rng.randint(-9, 9), rng.randint(1, 6)))
        back = _apply(inverse, (0, 0), (-shift[0], -shift[1]))
        poly, point = rng.choice(cases)
        moved = Polytope2(_chart(mat, shift, poly.vertices))
        moved_point = _apply(mat, shift, point)
        bound = rng.randint(2, 5)
        _transported(mat, shift, search_probes(poly, point, bound),
                     moved.vertices, moved_point)
        _transported(inverse, back, search_probes(moved, moved_point, bound),
                     poly.vertices, point)
        for outside in (poly.vertices[0], (point[0] + 100, point[1])):
            with pytest.raises(ValidationError, match="is not interior"):
                search_probes(moved, _apply(mat, shift, outside), bound)
        with pytest.raises(ValidationError, match="strictly convex"):
            Polytope2(_chart(mat, shift, reflex))


def test_search_clips_only_facet_transverse_directions(monkeypatch):
    """One pass over the facets: the facets are read once, through the
    property the benchmark traces, and only the reported hits are clipped,
    each once, along a direction transverse to its facet."""
    clipped, reads = [], []

    def counting_clip(rows, heights, direction):
        clipped.append(direction)
        return clip(rows, heights, direction)

    def counting_facets(poly):
        reads.append(poly)
        return facets.fget(poly)

    clip, facets = probes._clip, Polytope2.facets
    tri = builtin_polytope("p1xp1")
    expected = oracle_search_probes(tri, (0, F(3, 4)), 15)
    monkeypatch.setattr(probes, "_clip", counting_clip)
    monkeypatch.setattr(Polytope2, "facets", property(counting_facets))
    hits = search_probes(tri, (0, F(3, 4)), 15)
    assert hits and hits == expected
    assert reads == [tri]
    assert sorted(clipped) == [h.probe.direction for h in hits]
    normals = [f.normal for f in facets.fget(tri)]
    assert all(normals[h.probe.facet][0] * h.probe.direction[0]
               + normals[h.probe.facet][1] * h.probe.direction[1] == 1
               for h in hits)


def test_builtin_polytopes_are_shared():
    assert builtin_polytope("cp2") is builtin_polytope("cp2")
    assert builtin_polytope("p1xp1") is not builtin_polytope("cp2")


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
       st.integers(1, 10), st.data())
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


def _fraction_build(vertices, excluded):
    """The Fraction build that the integer one replaced, kept as its
    reference: the facets' (normals, offsets), or the refusal's message.
    Convexity is checked by its definition, every other vertex strictly
    left of every edge; the old build checked only the turns, so it took
    star polygons."""
    verts = [(F(x), F(y)) for x, y in vertices]
    n = len(verts)
    if n < 3:
        return "a polygon needs at least three vertices"
    edges = [(b[0] - a[0], b[1] - a[1])
             for a, b in zip(verts, verts[1:] + verts[:1])]
    if any(ex * (y - a[1]) - ey * (x - a[0]) <= 0
           for i, (a, (ex, ey)) in enumerate(zip(verts, edges))
           for j, (x, y) in enumerate(verts) if j not in (i, (i + 1) % n)):
        return "vertices must be strictly convex in counterclockwise order"
    for i in excluded:
        if not 0 <= i < n:
            return f"excluded vertex index {i} out of range"
    normals = []
    for ex, ey in edges:
        scale = math.lcm(ex.denominator, ey.denominator)
        x, y = int(-ey * scale), int(ex * scale)
        normals.append((x // math.gcd(x, y), y // math.gcd(x, y)))
    return normals, [a * x + b * y for (a, b), (x, y) in zip(normals, verts)]


def _fraction_probe(verts, normals, base, direction):
    """make_probe on the Fraction build: the probe's facet, or the message
    of its InvalidProbe."""
    for i, (a, b) in enumerate(zip(verts, verts[1:] + verts[:1])):
        ex, ey = b[0] - a[0], b[1] - a[1]
        rx, ry = base[0] - a[0], base[1] - a[1]
        if rx * ey == ry * ex and 0 < rx * ex + ry * ey < ex * ex + ey * ey:
            break
    else:
        return (f"base ({rational_str(base[0])}, {rational_str(base[1])}) is "
                "not in any facet's relative interior")
    dot = normals[i][0] * direction[0] + normals[i][1] * direction[1]
    if math.gcd(*direction) != 1:
        return f"direction {direction} is not primitive"
    if abs(dot) != 1:
        return (f"direction {direction} is not integrally transverse to "
                f"facet {i} (normal {normals[i]})")
    return i if dot == 1 else f"direction {direction} points outward"


rationals = st.builds(Fraction, st.integers(-12, 12),
                      st.sampled_from([2, 3, 5, 7]))


@settings(max_examples=150)
@given(st.lists(st.tuples(rationals, rationals), min_size=3, max_size=8),
       st.sampled_from(["convex", "clockwise", "collinear", "repeated",
                        "excluded", "shuffled", "two"]), st.data())
def test_integer_build_matches_the_fraction_build(points, change, data):
    verts, excluded = _hull(points), ()
    assume(len(verts) >= 3)
    if change == "clockwise":
        verts.reverse()
    elif change == "collinear":
        verts.insert(1, ((verts[0][0] + verts[1][0]) / 2,
                         (verts[0][1] + verts[1][1]) / 2))
    elif change == "repeated":
        verts.insert(1, verts[1])
    elif change == "excluded":
        excluded = (data.draw(st.sampled_from([-1, len(verts)])),)
    elif change == "shuffled":
        verts = data.draw(st.permutations(verts))
    elif change == "two":
        verts = verts[:2]
    expected = _fraction_build(verts, excluded)
    try:
        poly = Polytope2(tuple(verts), excluded)
    except ValidationError as exc:
        assert str(exc) == expected
        return
    normals, offsets = expected
    assert [f.normal for f in poly.facets] == normals
    assert [f.offset for f in poly.facets] == offsets
    # vertices, points inside edges, and points anywhere
    queries = verts + [(a[0] + u * (b[0] - a[0]), a[1] + u * (b[1] - a[1]))
                       for a, b in zip(verts, verts[1:] + verts[:1])
                       for u in (F(1, 3), F(1, 2))]
    queries += data.draw(st.lists(st.tuples(rationals, rationals), max_size=4))
    for p in queries:
        values = [a * p[0] + b * p[1] - c
                  for (a, b), c in zip(normals, offsets)]
        assert poly.contains(p) == (min(values) >= 0)
        assert poly.contains(p, strict=True) == (min(values) > 0)
        direction = data.draw(st.tuples(st.integers(-3, 3),
                                        st.integers(-3, 3)))
        expected = _fraction_probe(verts, normals, p, direction)
        try:
            assert make_probe(poly, p, direction).facet == expected
        except InvalidProbe as exc:
            assert str(exc) == expected


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


@pytest.mark.parametrize("path, value, where", [
    ((), [], "document"),
    (("vertices",), "0,0 1,0 0,1", "vertices"),
    (("vertices", 1), "1,0", "vertices[1]"),
    (("vertices", 1, 0), 0.5, "vertices[1][0]"),
    (("excluded_vertices",), 1, "excluded_vertices"),
    (("excluded_vertices", 0), "0", "excluded_vertices[0]")])
def test_polygon_errors_name_their_path(path, value, where):
    doc = {"vertices": [[0, 0], [1, 0], [0, 1]], "excluded_vertices": [0]}
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    with pytest.raises(SchemaError) as info:
        polytope_from_json(doc)
    assert str(info.value).startswith(f"{where}: expected ")


def test_polygon_keys_absent_or_null():
    with pytest.raises(SchemaError, match="^document: missing key 'vertices'$"):
        polytope_from_json({"excluded_vertices": []})
    triangle = {"vertices": [[0, 0], [1, 0], [0, 1]]}
    assert polytope_from_json(triangle) == STD_TRIANGLE
    assert polytope_from_json(dict(triangle, excluded_vertices=None)) == \
        STD_TRIANGLE


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


def _probes_error(tmp_path, doc, point, bound):
    path = tmp_path / "polygon.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    start = time.perf_counter()
    code = main(["probes", str(path), "--point", point, "--bound", str(bound)],
                out=out)
    return code, json.loads(out.getvalue()).get("error"), \
        time.perf_counter() - start


@pytest.mark.parametrize("field, value, where, what", [
    ("x", 1 << 32, "vertices[1][0]", "a numerator"),
    ("x", f"1/{1 << 32}", "vertices[1][0]", "a denominator"),
    ("excluded", 1 << 32, "excluded_vertices[0]", "an integer"),
])
def test_polygon_numbers_are_bounded_like_scenario_numbers(
        tmp_path, field, value, where, what):
    def triangle(v):
        doc = {"vertices": [[0, 0], [v if field == "x" else 1, 0], [0, 1]]}
        if field == "excluded":
            doc["excluded_vertices"] = [v]
        return doc

    assert _probes_error(tmp_path, triangle(value), "1/8,1/8", 1)[:2] == (3, {
        "type": "ValidationError",
        "message": f"{where}: {what} of 33 bits; the limit is 32 bits"})
    # one bit less passes the bound; a 32-bit index is then out of range
    smaller = (1 << 32) - 1 if isinstance(value, int) else f"1/{(1 << 32) - 1}"
    if field == "excluded":
        with pytest.raises(ValidationError, match="out of range"):
            polytope_from_json(triangle(smaller))
    else:
        assert polytope_from_json(triangle(smaller)).vertices[1][0] == \
            F(smaller)


def test_wide_denominator_polygon_ends_at_once(tmp_path):
    # 150 vertices near the parabola y = x^2, each with its own 2,001-bit
    # denominator; the search at bound 30 on it ran for tens of seconds
    wide = [F(1, (1 << 2000) + i) for i in range(150)]
    doc = {"vertices": [[str(i + w), str(i * i + w)]
                        for i, w in enumerate(wide)]}
    code, error, seconds = _probes_error(tmp_path, doc, "1,2", 30)
    assert (code, error) == (3, {
        "type": "ValidationError",
        "message": "vertices[0][0]: a denominator of 2001 bits; the limit is "
                   "32 bits"})
    assert seconds < 1


def _circle(n, limit=46340):
    """n points of the unit circle in counterclockwise order, at
    ((q^2 - p^2) / (p^2 + q^2), 2pq / (p^2 + q^2)) with |p|, |q| <= limit,
    so every numerator and denominator fits in 32 bits."""
    vertices = []
    for k in range(n):
        t = math.tan(math.pi * ((k + F(1, 2)) / n - F(1, 2)))
        if abs(t) <= 1:
            r = F(t).limit_denominator(limit)
            p, q = r.numerator, r.denominator
        else:
            r = F(1 / t).limit_denominator(limit)
            p, q = r.denominator * (1 if r > 0 else -1), abs(r.numerator)
        d = p * p + q * q
        vertices.append([str(F(q * q - p * p, d)), str(F(2 * p * q, d))])
    return {"vertices": vertices}


def test_largest_circle_at_bound_30_stays_fast(tmp_path):
    doc = _circle(268)
    numbers = [F(x) for vertex in doc["vertices"] for x in vertex]
    assert len(set(map(tuple, doc["vertices"]))) == 268
    assert max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for x in numbers) == 32
    for point in ("0,0", "1/3,-1/5"):
        code, error, seconds = _probes_error(tmp_path, doc, point, 30)
        assert (code, error) == (0, None)
        assert seconds < 1


def _largest_primes_below(n, count, width=1 << 19):
    """The count largest primes below n, by sieving [n - width, n) with the
    primes up to sqrt(n)."""
    root, low = math.isqrt(n), n - width
    small, window = bytearray([1]) * (root + 1), bytearray([1]) * width
    for p in range(2, root + 1):
        if small[p]:
            small[p * p::p] = bytes(len(range(p * p, root + 1, p)))
            start = -low % p
            window[start::p] = bytes(len(range(start, width, p)))
    return [low + i for i in range(width) if window[i]][-count:]


def test_coprime_denominators_at_the_vertex_limit_stay_fast(tmp_path):
    """Each coordinate of this MAX_VERTICES polygon has its own 32-bit prime
    denominator, so one common denominator of all the vertices would have
    about 500,000 bits.  Facets are built from each edge's own two ends, and
    loading, building and searching at bound 1 take under a second."""
    n = probes.MAX_VERTICES
    primes = _largest_primes_below(1 << 32, 2 * n)
    vertices = []
    for k, (p, q) in enumerate(zip(primes[::2], primes[1::2])):
        angle = 2 * math.pi * (k + F(1, 2)) / n
        vertices.append([f"{round(math.cos(angle) * p)}/{p}",
                         f"{round(math.sin(angle) * q)}/{q}"])
    assert len({F(x).denominator for v in vertices for x in v}) == 2 * n
    code, error, seconds = _probes_error(tmp_path, {"vertices": vertices},
                                         "1/3,-1/5", 1)
    assert (code, error) == (0, None)
    assert seconds < 1


def test_a_13000_bit_point_is_refused_at_once(tmp_path):
    """The search at bound 30 with this point used to take seconds."""
    point = f"1/3,-1/{1 << 12999}"
    code, error, seconds = _probes_error(tmp_path, _circle(268), point, 30)
    assert (code, error["type"]) == (3, "ValidationError")
    assert error["message"] == ("--point: a denominator of 13000 bits; the "
                                "limit is 32 bits")
    assert seconds < 1


def test_probe_messages_print_rationals():
    tri = builtin_polytope("p1xp1")
    out = io.StringIO()
    assert main(["probes", "p1xp1", "--point", "5/2,5"], out=out) == 3
    assert json.loads(out.getvalue())["error"]["message"] == \
        "query point (5/2, 5) is not interior"
    with pytest.raises(InvalidProbe) as info:
        make_probe(tri, (F(1, 3), F(1, 2)), (0, 1))
    assert str(info.value) == \
        "base (1/3, 1/2) is not in any facet's relative interior"
    with pytest.raises(InvalidProbe) as info:
        validate_probe(tri, Probe(0, (F(1, 3), F(1, 2)), (0, 1)))
    assert str(info.value) == \
        "base (1/3, 1/2) is not in the relative interior of facet 0"


# Each run is a child process under a time limit and a 1 GB address space,
# so a reader that blocks or reads without end fails the test rather than
# hanging the suite or using up the host's memory.
_TIMED_MAIN = """
import io, json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from floerdisk.cli import main
out = io.StringIO()
start = time.perf_counter()
code = main(sys.argv[1:], out=out)
print(json.dumps([code, time.perf_counter() - start,
                  json.loads(out.getvalue())["error"]]))
"""


@pytest.mark.parametrize("command", [["validate"],
                                     ["probes", "--point", "0,1"]])
@pytest.mark.parametrize("source", ["fifo", "/dev/zero"])
def test_special_files_are_refused_before_reading(tmp_path, command, source):
    path = source
    if source == "fifo":
        path = str(tmp_path / "document.json")
        os.mkfifo(path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _TIMED_MAIN, command[0], path, *command[1:]],
        env=env, capture_output=True, text=True, timeout=10)
    code, seconds, error = json.loads(done.stdout)
    assert (code, error) == (3, {"type": "ValidationError",
                                 "message": f"{path}: not a regular file"})
    assert seconds < 1
