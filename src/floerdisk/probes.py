"""McDuff-style probes on 2-D rational moment polytopes.

A probe enters the polytope through the relative interior of a facet, along
a primitive integer direction integrally transverse to it, and travels until
it exits.  A toric fibre sitting strictly inside the first half of the probe
(in the affine parameter of the primitive direction -- the notion invariant
under GL(2,Z) affine maps) is displaceable.

Excluded vertices mark non-toric corners.  A probe may exit at a vertex,
excluded or not; such exits are flagged rather than rejected, because the
displacement construction only needs the open probe.  A probe can never meet
a vertex anywhere else: its base is in a facet's relative interior and the
rest of the open segment is interior to the polytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (BadParams, InvalidProbe, ProbeSearchTooLarge, SchemaError,
                     ValidationError)
from .rings import rational_from, rational_str

Point = tuple

# Most work one probe search may plan, in (nonzero direction in the bound's
# box) x (facet) pairs.  Bound 30 fits on polygons of up to 268 facets, and
# the largest accepted search takes about half a second.
PROBE_WORK_BUDGET = 1_000_000

# Most vertices a polygon document may hold, counted before any is read;
# building the slowest polygon admitted and searching it at bound 1 takes
# under a second.
MAX_VERTICES = 8_000


def _frac_point(p) -> Point:
    return (Fraction(p[0]), Fraction(p[1]))


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _primitive(v) -> tuple:
    x, y = Fraction(v[0]), Fraction(v[1])
    if x == 0 and y == 0:
        raise ValidationError("zero vector has no primitive form")
    scale = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    ix, iy = int(x * scale), int(y * scale)
    g = gcd(abs(ix), abs(iy))
    return (ix // g, iy // g)


@dataclass(frozen=True)
class Facet:
    index: int
    start: Point
    end: Point
    normal: tuple          # primitive integer inward normal
    offset: Fraction       # normal . x == offset on the facet line

    def contains_in_relative_interior(self, p: Point) -> bool:
        p = _frac_point(p)
        edge = (self.end[0] - self.start[0], self.end[1] - self.start[1])
        rel = (p[0] - self.start[0], p[1] - self.start[1])
        if _cross(rel, edge) != 0:
            return False
        if edge[0] != 0:
            u = rel[0] / edge[0]
        else:
            u = rel[1] / edge[1]
        return 0 < u < 1


def _facet(index: int, start: Point, end: Point) -> Facet:
    direction = (end[0] - start[0], end[1] - start[1])
    # inward normal for a counterclockwise polygon: left rotation
    normal = _primitive((-direction[1], direction[0]))
    offset = normal[0] * start[0] + normal[1] * start[1]
    return Facet(index, start, end, normal, offset)


@dataclass(frozen=True)
class Polytope2:
    """A convex rational polygon with counterclockwise vertices."""

    vertices: tuple
    excluded_vertices: tuple = ()

    def __post_init__(self):
        verts = tuple(_frac_point(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "excluded_vertices",
                           tuple(int(i) for i in self.excluded_vertices))
        if len(verts) < 3:
            raise ValidationError("a polygon needs at least three vertices")
        n = len(verts)
        for i in range(n):
            a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
            turn = _cross((b[0] - a[0], b[1] - a[1]), (c[0] - b[0], c[1] - b[1]))
            if turn <= 0:
                raise ValidationError(
                    "vertices must be strictly convex in counterclockwise order")
        for i in self.excluded_vertices:
            if not 0 <= i < n:
                raise ValidationError(f"excluded vertex index {i} out of range")
        # built once, kept off the dataclass fields so eq and repr ignore it
        object.__setattr__(self, "_facets", tuple(
            _facet(i, verts[i], verts[(i + 1) % n]) for i in range(n)))

    @property
    def facets(self) -> tuple:
        return self._facets

    def contains(self, p, strict: bool = False) -> bool:
        p = _frac_point(p)
        for f in self.facets:
            value = f.normal[0] * p[0] + f.normal[1] * p[1]
            if strict and value <= f.offset:
                return False
            if not strict and value < f.offset:
                return False
        return True

    def excluded_points(self) -> list[Point]:
        return [self.vertices[i] for i in self.excluded_vertices]

    def to_json_dict(self) -> dict:
        return {"vertices": [[rational_str(x), rational_str(y)]
                             for x, y in self.vertices],
                "excluded_vertices": list(self.excluded_vertices)}


def polytope_from_json(doc) -> Polytope2:
    """Read ``{"vertices": [[x, y], ...], "excluded_vertices": [i, ...]}``.

    Coordinates are ints or rational strings; any other shape is a
    SchemaError.  Geometry (convexity, index range) is Polytope2's to check.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("vertices"), list):
        raise SchemaError("a polytope is an object with a 'vertices' list")
    if len(doc["vertices"]) > MAX_VERTICES:
        raise ValidationError(f"vertices: {len(doc['vertices'])} vertices; "
                              f"the limit is {MAX_VERTICES}")
    verts = []
    for i, vertex in enumerate(doc["vertices"]):
        if not isinstance(vertex, list) or len(vertex) != 2:
            raise SchemaError(f"vertices[{i}]: expected a pair [x, y], "
                              f"got {vertex!r}")
        verts.append((rational_from(vertex[0], f"vertices[{i}][0]"),
                      rational_from(vertex[1], f"vertices[{i}][1]")))
    excluded = doc.get("excluded_vertices", [])
    if not isinstance(excluded, list) or any(
            isinstance(i, bool) or not isinstance(i, int) for i in excluded):
        raise SchemaError("excluded_vertices: expected a list of vertex "
                          f"indices, got {excluded!r}")
    return Polytope2(tuple(verts), tuple(excluded))


@dataclass(frozen=True)
class Probe:
    facet: int
    base: Point
    direction: tuple

    def __post_init__(self):
        object.__setattr__(self, "base", _frac_point(self.base))
        object.__setattr__(self, "direction",
                           (int(self.direction[0]), int(self.direction[1])))


def validate_probe(poly: Polytope2, probe: Probe):
    facets = poly.facets
    if not 0 <= probe.facet < len(facets):
        raise InvalidProbe(f"no facet with index {probe.facet}")
    facet = facets[probe.facet]
    dx, dy = probe.direction
    if gcd(abs(dx), abs(dy)) != 1:
        raise InvalidProbe(f"direction {probe.direction} is not primitive")
    dot = facet.normal[0] * dx + facet.normal[1] * dy
    if abs(dot) != 1:
        raise InvalidProbe(
            f"direction {probe.direction} is not integrally transverse to "
            f"facet {probe.facet} (normal {facet.normal})")
    if dot != 1:
        raise InvalidProbe(f"direction {probe.direction} points outward")
    if not facet.contains_in_relative_interior(probe.base):
        raise InvalidProbe(
            f"base {probe.base} is not in the relative interior of facet "
            f"{probe.facet}")


def make_probe(poly: Polytope2, base, direction) -> Probe:
    """Build a probe by locating the facet whose relative interior holds base."""
    base = _frac_point(base)
    for facet in poly.facets:
        if facet.contains_in_relative_interior(base):
            probe = Probe(facet.index, base, tuple(direction))
            validate_probe(poly, probe)
            return probe
    raise InvalidProbe(f"base {base} is not in any facet's relative interior")


@dataclass(frozen=True)
class ProbeSegment:
    exit_point: Point
    length: Fraction
    exits_at_vertex: bool
    exits_at_excluded_vertex: bool


def _heights(facets, point) -> tuple[list[int], int]:
    """Each facet's height n . point - c over one common denominator: the
    ints H and the denominator D with height_i = H[i] / D."""
    px, py = point
    heights = [f.normal[0] * px + f.normal[1] * py - f.offset for f in facets]
    den = lcm(*(h.denominator for h in heights))
    return [h.numerator * (den // h.denominator) for h in heights], den


def _clip(facets, heights, direction) -> tuple:
    """Both ends of the line point + t * direction, in one pass over the
    facets, given the point's scaled heights H.

    With k = n . direction for each facet, the line leaves backwards through
    the facet minimising H / k over k > 0 and forwards through the one
    minimising H / -k over k < 0; ratios are compared by cross-multiplying.
    Returns (back, forward), each None when no facet bounds that end, or
    (facet index, H, |k|, tie), where tie means a second facet reaches the
    same ratio, i.e. that end is a vertex.
    """
    dx, dy = direction
    back = forward = None
    for f, h in zip(facets, heights):
        k = f.normal[0] * dx + f.normal[1] * dy
        if k > 0:
            if back is None or h * back[2] < back[1] * k:
                back = (f.index, h, k, False)
            elif h * back[2] == back[1] * k:
                back = back[:3] + (True,)
        elif k < 0:
            k = -k
            if forward is None or h * forward[2] < forward[1] * k:
                forward = (f.index, h, k, False)
            elif h * forward[2] == forward[1] * k:
                forward = forward[:3] + (True,)
    return back, forward


def probe_segment(poly: Polytope2, probe: Probe) -> ProbeSegment:
    """Clip the probe ray against the polytope; exact rational exit."""
    validate_probe(poly, probe)
    bx, by = probe.base
    dx, dy = probe.direction
    heights, den = _heights(poly.facets, probe.base)
    _, forward = _clip(poly.facets, heights, probe.direction)
    if forward is None:
        raise InvalidProbe("probe never exits; polytope data is inconsistent")
    _, h, k, _ = forward
    length = Fraction(h, den * k)
    exit_point = (bx + length * dx, by + length * dy)
    at_vertex = exit_point in poly.vertices
    at_excluded = exit_point in poly.excluded_points()
    return ProbeSegment(exit_point, length, at_vertex, at_excluded)


def probe_parameter(probe: Probe, point) -> Fraction | None:
    """The s with point = base + s * direction, or None when off the line."""
    px, py = _frac_point(point)
    bx, by = probe.base
    dx, dy = probe.direction
    if dx == 0:
        if px != bx:
            return None
        return Fraction(py - by, dy)
    s = Fraction(px - bx, dx)
    if by + s * dy != py:
        return None
    return s


def probe_displaces(poly: Polytope2, probe: Probe, point) -> bool:
    """True iff the point sits on the probe strictly inside its first half."""
    try:
        segment = probe_segment(poly, probe)
    except InvalidProbe:
        return False
    s = probe_parameter(probe, point)
    if s is None:
        return False
    return 0 < s and 2 * s < segment.length


def _primitive_directions(bound: int):
    for dx in range(-bound, bound + 1):
        for dy in range(-bound, bound + 1):
            if (dx, dy) == (0, 0):
                continue
            if gcd(abs(dx), abs(dy)) == 1:
                yield (dx, dy)


@dataclass(frozen=True)
class ProbeHit:
    probe: Probe
    parameter: Fraction
    length: Fraction
    exits_at_vertex: bool
    exits_at_excluded_vertex: bool

    def as_dict(self):
        return {"facet": self.probe.facet,
                "base": [rational_str(self.probe.base[0]),
                         rational_str(self.probe.base[1])],
                "direction": list(self.probe.direction),
                "parameter": rational_str(self.parameter),
                "length": rational_str(self.length),
                "exits_at_vertex": self.exits_at_vertex,
                "exits_at_excluded_vertex": self.exits_at_excluded_vertex}


def search_probes(poly: Polytope2, point, direction_bound: int) -> list[ProbeHit]:
    """All probes within the direction bound that displace the given point.

    For each primitive direction, the candidate base is the unique boundary
    point hit by walking backwards from the point; directions whose backward
    ray lands on a vertex or on a non-transverse facet yield no probe.  The
    point's facet heights are scaled to ints once, each direction is one
    integer clipping pass, and Fractions are only built for hits.
    """
    if direction_bound < 1:
        raise BadParams(
            f"probe bound must be at least 1, got {direction_bound}")
    facets = poly.facets
    work = ((2 * direction_bound + 1) ** 2 - 1) * len(facets)
    if work > PROBE_WORK_BUDGET:
        raise ProbeSearchTooLarge(
            f"probe search with bound {direction_bound} over {len(facets)} "
            f"facets exceeds the work budget of {PROBE_WORK_BUDGET}")
    point = _frac_point(point)
    heights, den = _heights(facets, point)
    if min(heights) <= 0:
        raise ValidationError(f"query point {point} is not interior")
    hits = []
    for direction in _primitive_directions(direction_bound):
        back, forward = _clip(facets, heights, direction)
        if back is None or forward is None:
            continue
        entry, back_h, back_k, at_vertex = back
        # the base is a vertex, or d is not integrally transverse to the
        # entry facet
        if at_vertex or back_k != 1:
            continue
        _, forward_h, forward_k, _ = forward
        # displaced iff 2 * back < length = back + forward
        if back_h * forward_k >= forward_h:
            continue
        hits.append(_hit(poly, point, direction, entry, Fraction(back_h, den),
                         Fraction(forward_h, den * forward_k)))
    return hits


def _hit(poly: Polytope2, point: Point, direction: tuple, entry: int,
         back: Fraction, forward: Fraction) -> ProbeHit:
    dx, dy = direction
    base = (point[0] - back * dx, point[1] - back * dy)
    exit_point = (point[0] + forward * dx, point[1] + forward * dy)
    return ProbeHit(Probe(entry, base, direction), back, back + forward,
                    exit_point in poly.vertices,
                    exit_point in poly.excluded_points())


# --- default semitoric pictures -------------------------------------------------

def builtin_polytope(name: str) -> Polytope2:
    """The two semitoric triangles used by the built-in scenarios.

    Both have the non-toric fold at the bottom vertex (0,0), which is
    excluded; the fibres of interest sit over the vertical segment above it.
    """
    if name == "p1xp1":
        return Polytope2(((0, 0), (1, 1), (-1, 1)), (0,))
    if name == "cp2":
        return Polytope2(((0, 0), (1, Fraction(1, 2)), (-1, Fraction(1, 2))),
                         (0,))
    raise ValidationError(f"unknown builtin polytope {name!r}")
