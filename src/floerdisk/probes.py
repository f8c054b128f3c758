"""McDuff-style probes on 2-D rational moment polytopes.

A probe enters the polytope through the relative interior of a facet, along
a primitive integer direction integrally transverse to it, and travels until
it exits.  A toric fibre sitting strictly inside the first half of the probe
(in the affine parameter of the primitive direction -- the notion invariant
under GL(2,Z) affine maps) is displaceable.

Excluded vertices mark non-toric corners.  A probe may exit at a vertex,
excluded or not; the integer clip names that vertex, and the exit is flagged
rather than rejected, as the displacement construction only needs the open
probe.  A probe never meets a vertex anywhere else: its base is in a facet's
relative interior and the rest of the open segment is interior.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (BadParams, InvalidProbe, ProbeSearchTooLarge, SchemaError,
                     ValidationError)
from .rings import rational_str
from .scenario import (INTEGER, RATIONAL, REQUIRED, Kind, _fraction, listof,
                       table)

Point = tuple

# Most work one probe search may plan, in (nonzero direction in the bound's
# box) x (facet) pairs: an upper bound, as only the at most 2B + 1 facet-
# transverse directions per facet are clipped.  Bound 30 fits on polygons of
# up to 268 facets; with 32-bit coordinates the largest accepted search
# takes about 0.06 s.
PROBE_WORK_BUDGET = 1_000_000

# Most vertices a polygon document may hold, counted before any is read;
# building the slowest polygon admitted and searching it at bound 1 takes
# under a second.
MAX_VERTICES = 8_000


def _frac_point(p) -> Point:
    return (_fraction(p[0]), _fraction(p[1]))


def _point_str(p) -> str:
    return f"({rational_str(p[0])}, {rational_str(p[1])})"


def _scaled(p) -> tuple[int, int, int]:
    """(X, Y, W) with p == (X / W, Y / W), W the least common denominator."""
    x, y = p
    w = lcm(x.denominator, y.denominator)
    return (x.numerator * (w // x.denominator),
            y.numerator * (w // y.denominator), w)


@dataclass(frozen=True)
class Facet:
    index: int
    start: Point
    end: Point
    normal: tuple          # primitive integer inward normal
    offset: Fraction       # normal . x == offset on the facet line


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
        # An edge's primitive direction comes from its ends scaled by their
        # own denominators; its left rotation is the inward normal n.  The row
        # (D n, D c, D), D the offset c's denominator, makes _heights all ints.
        # Both are kept off the dataclass fields, so eq and repr ignore them.
        scaled = [_scaled(v) for v in verts]
        facets, rows = [], []
        for i, ((x, y, w), (x1, y1, w1)) in enumerate(
                zip(scaled, scaled[1:] + scaled[:1])):
            ex, ey = x1 * w - x * w1, y1 * w - y * w1
            g = gcd(ex, ey) or 1        # a zero edge fails the turn test
            normal = (-ey // g, ex // g)
            offset = Fraction(normal[0] * x + normal[1] * y, w)
            d = offset.denominator
            facets.append(Facet(i, verts[i], verts[(i + 1) % n], normal,
                                offset))
            rows.append((normal[0] * d, normal[1] * d, offset.numerator, d))
        # Every turn is left (its normals' cross product is positive), and the
        # normals go round once: one step leaves the lower half of directions
        # for the upper.  A star polygon turns left but goes round twice.
        pairs = list(zip(rows, rows[1:] + rows[:1]))
        if any(a[0] * b[1] <= a[1] * b[0] for a, b in pairs) or sum(
                (a[1], a[0]) <= (0, 0) < (b[1], b[0]) for a, b in pairs) != 1:
            raise ValidationError(
                "vertices must be strictly convex in counterclockwise order")
        for i in self.excluded_vertices:
            if not 0 <= i < n:
                raise ValidationError(f"excluded vertex index {i} out of range")
        object.__setattr__(self, "_facets", tuple(facets))
        object.__setattr__(self, "_rows", tuple(rows))

    @property
    def facets(self) -> tuple:
        return self._facets

    def contains(self, p, strict: bool = False) -> bool:
        low = min(_heights(self._rows, _frac_point(p))[0])
        return low > 0 if strict else low >= 0

    def to_json_dict(self) -> dict:
        return _POLYGON.write(self)


_COORDINATES = listof(RATIONAL)


def _read_point(value, where) -> Point:
    if type(value) is not list or len(value) != 2:
        raise SchemaError(f"{where}: expected a pair [x, y], got {value!r}")
    return _COORDINATES.read(value, where)


# Geometry (convexity, index range) is Polytope2's to check.
_POLYGON = table(
    Polytope2,
    ("vertices", "vertices", listof(Kind(_read_point, _COORDINATES.write),
                                    MAX_VERTICES, "vertices"), REQUIRED),
    ("excluded_vertices", "excluded_vertices", listof(INTEGER), []))


def polytope_from_json(doc) -> Polytope2:
    """The Polytope2 of a polygon document, read by the _POLYGON table."""
    return _POLYGON.read(doc, "")


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
    if _facet_at(poly, probe.base) != probe.facet:
        raise InvalidProbe(
            f"base {_point_str(probe.base)} is not in the relative interior "
            f"of facet {probe.facet}")


def make_probe(poly: Polytope2, base, direction) -> Probe:
    """Build a probe by locating the facet whose relative interior holds base."""
    base = _frac_point(base)
    facet = _facet_at(poly, base)
    if facet is None:
        raise InvalidProbe(f"base {_point_str(base)} is not in any facet's "
                           "relative interior")
    probe = Probe(facet, base, tuple(direction))
    validate_probe(poly, probe)
    return probe


@dataclass(frozen=True)
class ProbeSegment:
    exit_point: Point
    length: Fraction
    exits_at_vertex: bool
    exits_at_excluded_vertex: bool


def _heights(rows, point) -> tuple[list[int], int]:
    """The ints H = D q (n . point - c), one per facet, and q, the point's
    denominator.  Every polygon question reads these: their signs, their
    zeros, and their ratios to D n . d along a direction d."""
    x, y, q = _scaled(point)
    return [mx * x + my * y - c * q for mx, my, c, _ in rows], q


def _facet_at(poly: Polytope2, point):
    """The index of the facet whose relative interior holds the point, or
    None: that facet's height is the only zero and every other is positive."""
    heights, _ = _heights(poly._rows, point)
    if min(heights) == 0 and heights.count(0) == 1:
        return heights.index(0)
    return None


def _clip(rows, heights, direction) -> tuple:
    """Both ends of the line point + t * direction, in one pass over the
    facets, given the point's heights H.

    With k = D n . direction for each facet, the line leaves backwards
    through the facet minimising H / k over k > 0 and forwards through the
    one minimising H / -k over k < 0; ratios are compared by
    cross-multiplying.  Returns (back, forward), each (facet index, H, |k|,
    vertex): None, unless a later facet i ties the stored facet f, and then
    the vertex the two share, i if i == f + 1, else 0, where the last facet
    meets the first.  No third facet ties on a strictly convex polygon.
    Both ends exist: the edges of a closed polygon sum to zero and are not
    all parallel, so some k is positive and some negative.
    """
    dx, dy = direction
    back = forward = None
    for i, ((mx, my, _, _), h) in enumerate(zip(rows, heights)):
        k = mx * dx + my * dy
        if k > 0:
            if back is None or h * back[2] < back[1] * k:
                back = (i, h, k, None)
            elif h * back[2] == back[1] * k:
                back = back[:3] + (i if i == back[0] + 1 else 0,)
        elif k < 0:
            k = -k
            if forward is None or h * forward[2] < forward[1] * k:
                forward = (i, h, k, None)
            elif h * forward[2] == forward[1] * k:
                forward = forward[:3] + (i if i == forward[0] + 1 else 0,)
    return back, forward


def probe_segment(poly: Polytope2, probe: Probe) -> ProbeSegment:
    """Clip the probe ray against the polytope; exact rational exit."""
    validate_probe(poly, probe)
    bx, by = probe.base
    dx, dy = probe.direction
    heights, den = _heights(poly._rows, probe.base)
    _, (_, h, k, vertex) = _clip(poly._rows, heights, probe.direction)
    length = Fraction(h, den * k)
    return ProbeSegment((bx + length * dx, by + length * dy), length,
                        vertex is not None, vertex in poly.excluded_vertices)


def probe_displaces(poly: Polytope2, probe: Probe, point) -> bool:
    """True iff the point sits on the probe strictly inside its first half:
    the search's ray test along the probe's direction finds this probe."""
    try:
        return any(hit.probe == probe
                   for hit in _hits(poly, point, [probe.direction]))
    except ValidationError:
        return False


def _transverse_directions(facets, bound: int) -> list:
    """In (dx, dy) order, the d in the box [-bound, bound]^2 with n . d = 1
    for some facet normal n: the only directions that can enter a facet, each
    primitive, and at most 2 * bound + 1 per facet, on one line."""
    span = range(-bound, bound + 1)
    found = set()
    for f in facets:
        a, b = f.normal
        if b == 0:      # a is 1 or -1
            found.update((a, dy) for dy in span)
            continue
        for dx in span:
            dy, rest = divmod(1 - a * dx, b)
            if not rest and -bound <= dy <= bound:
                found.add((dx, dy))
    return sorted(found)


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
    """All probes within the direction bound that displace the given point."""
    if direction_bound < 1:
        raise BadParams(
            f"probe bound must be at least 1, got {direction_bound}")
    n = len(poly.vertices)      # as many facets as vertices
    work = ((2 * direction_bound + 1) ** 2 - 1) * n
    if work > PROBE_WORK_BUDGET:
        raise ProbeSearchTooLarge(
            f"probe search with bound {direction_bound} over {n} "
            f"facets exceeds the work budget of {PROBE_WORK_BUDGET}")
    return _hits(poly, point,
                 _transverse_directions(poly.facets, direction_bound))


def _hits(poly: Polytope2, point, directions) -> list[ProbeHit]:
    """The probes along the given primitive directions that displace the
    interior point; a point that is not interior is a ValidationError.

    For each direction, the candidate base is the unique boundary point hit
    by walking backwards from the point; directions whose backward ray lands
    on a vertex or on a non-transverse facet yield no probe.  The point's
    facet heights are ints taken once, each direction is one integer
    clipping pass, and Fractions are only built for hits.
    """
    point = _frac_point(point)
    rows = poly._rows
    heights, den = _heights(rows, point)
    if min(heights) <= 0:
        raise ValidationError(f"query point {_point_str(point)} is not interior")
    hits = []
    for direction in directions:
        back, forward = _clip(rows, heights, direction)
        entry, back_h, back_k, base_vertex = back
        # the base is a vertex, or d is not integrally transverse to the
        # entry facet: n . d = 1 iff k = D
        if base_vertex is not None or back_k != rows[entry][3]:
            continue
        _, forward_h, forward_k, vertex = forward
        # displaced iff 2 * back < length = back + forward
        if back_h * forward_k >= forward_h * back_k:
            continue
        s = Fraction(back_h, den * back_k)
        dx, dy = direction
        base = (point[0] - s * dx, point[1] - s * dy)
        hits.append(ProbeHit(Probe(entry, base, direction), s,
                             s + Fraction(forward_h, den * forward_k),
                             vertex is not None,
                             vertex in poly.excluded_vertices))
    return hits


# --- default semitoric pictures -------------------------------------------------

@functools.cache
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
