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
from itertools import chain
from math import gcd, lcm

from .errors import (BadParams, InvalidProbe, ProbeSearchTooLarge, SchemaError,
                     ValidationError)
from .rings import rational_str
from .scenario import (INTEGER, RATIONAL, REQUIRED, Kind, _fraction, listof,
                       table)

Point = tuple

# Most work one probe search may plan, in (nonzero direction in the bound's
# box) x (facet) pairs: the cost of clipping every direction, kept as the
# charge although the facet pass clips only the hits, so that no refusal
# moves.  Bound 30 fits on polygons of up to 268 facets; with 32-bit
# coordinates their search takes about 1 ms.
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
        low = min(_heights(self._rows, _scaled(_frac_point(p))))
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


def _heights(rows, scaled) -> list[int]:
    """The ints H = D q (n . p - c), one per facet, of the point p given
    scaled as (x, y, q).  Every polygon question reads these: their signs,
    their zeros, and their ratios to D n . d along a direction d."""
    x, y, q = scaled
    return [mx * x + my * y - c * q for mx, my, c, _ in rows]


def _facet_at(poly: Polytope2, point):
    """The index of the facet whose relative interior holds the point, or
    None: that facet's height is the only zero and every other is positive."""
    heights = _heights(poly._rows, _scaled(point))
    if min(heights) == 0 and heights.count(0) == 1:
        return heights.index(0)
    return None


def _clip(rows, heights, direction) -> tuple:
    """Where the line point + t * direction leaves the polygon forwards, in
    one pass over the facets, given the point's heights H.

    With k = D n . direction for each facet, the line leaves through the
    facet minimising H / -k over k < 0; ratios are compared by
    cross-multiplying.  Returns (facet index, H, |k|, vertex): vertex is
    None, unless a later facet i ties the stored facet f, and then the
    vertex the two share, i if i == f + 1, else 0, where the last facet
    meets the first.  No third facet ties on a strictly convex polygon.
    Some k is negative for every nonzero direction: the edges of a closed
    polygon sum to zero and are not all parallel.
    """
    dx, dy = direction
    end = None
    for i, ((mx, my, _, _), h) in enumerate(zip(rows, heights)):
        k = -mx * dx - my * dy
        if k > 0:
            if end is None or h * end[2] < end[1] * k:
                end = (i, h, k, None)
            elif h * end[2] == end[1] * k:
                end = end[:3] + (i if i == end[0] + 1 else 0,)
    return end


def probe_segment(poly: Polytope2, probe: Probe) -> ProbeSegment:
    """Clip the probe ray against the polytope; exact rational exit."""
    validate_probe(poly, probe)
    bx, by = probe.base
    dx, dy = probe.direction
    scaled = _scaled(probe.base)
    heights = _heights(poly._rows, scaled)
    _, h, k, vertex = _clip(poly._rows, heights, probe.direction)
    length = Fraction(h, scaled[2] * k)
    return ProbeSegment((bx + length * dx, by + length * dy), length,
                        vertex is not None, vertex in poly.excluded_vertices)


def probe_displaces(poly: Polytope2, probe: Probe, point) -> bool:
    """True iff the point sits on the probe strictly inside its first half:
    the search over the box holding only the probe's direction finds it."""
    dx, dy = probe.direction
    try:
        return any(hit.probe == probe
                   for hit in _search(poly, point, (dx, dx, dy, dy)))
    except ValidationError:
        return False


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
    b = direction_bound
    return _search(poly, point, (-b, b, -b, b))


def _interval(tests, lo, hi) -> tuple:
    """The ints t in [lo, hi] with c + t * e > 0 for every (c, e) in tests,
    as (lo, hi); empty when lo > hi."""
    for c, e in tests:
        if e > 0:
            lo = max(lo, -c // e + 1)
        elif e < 0:
            hi = min(hi, (c - 1) // -e)
        elif c <= 0:
            return 1, 0
        if lo > hi:
            break
    return lo, hi


def _search(poly: Polytope2, point, box) -> list[ProbeHit]:
    """The probes with direction in the box (xlo, xhi, ylo, yhi) that
    displace the interior point, sorted by direction; a point that is not
    interior is a ValidationError.

    One pass over the facets (README, "Probe search").  The d entering
    facet f, normal (a, b), are the line n . d = 1, d0 + t (-b, a).  The
    box, the base p - h_f d inside f (positive heights on f's neighbours)
    and the midpoint p + h_f d interior (p displaced) each cut t to an int
    interval, by H_g D_f -/+ H_f k_g(d) > 0; each d left is clipped once.
    """
    point = _frac_point(point)
    rows = poly._rows
    x, y, q = scaled = _scaled(point)
    heights = _heights(rows, scaled)
    if min(heights) <= 0:
        raise ValidationError(f"query point {_point_str(point)} is not interior")
    xlo, xhi, ylo, yhi = box
    reach, n = max(map(abs, box)), len(rows)
    hits = []
    for f, facet in enumerate(poly.facets):
        a, b = facet.normal
        dx0 = pow(a, -1, abs(b)) if b else a     # a is 1 or -1 when b is 0
        dy0 = (1 - a * dx0) // b if b else 0
        # (a, b) is not zero, so a box point's |t| is at most r
        r = abs(dx0) + abs(dy0) + reach
        lo, hi = _interval(((dx0 - xlo + 1, -b), (xhi - dx0 + 1, b),
                            (dy0 - ylo + 1, a), (yhi - dy0 + 1, -a)), -r, r)
        if lo > hi:
            continue
        hf, df, e = heights[f], rows[f][3], (f + 1) % n
        (gx, gy, _, _), (ex, ey, _, _) = rows[f - 1], rows[e]
        # the base's heights on the neighbours f - 1 and f + 1, then the
        # midpoint's on every facet, which _interval skips once t is empty
        lo, hi = _interval(chain(
            ((heights[f - 1] * df - hf * (gx * dx0 + gy * dy0),
              hf * (gx * b - gy * a)),
             (heights[e] * df - hf * (ex * dx0 + ey * dy0),
              hf * (ex * b - ey * a))),
            ((hg * df + hf * (gx * dx0 + gy * dy0), hf * (gy * a - gx * b))
             for (gx, gy, _, _), hg in zip(rows, heights))), lo, hi)
        den = q * df
        for t in range(lo, hi + 1):
            dx, dy = dx0 - t * b, dy0 + t * a
            _, h, k, vertex = _clip(rows, heights, (dx, dy))
            hits.append(ProbeHit(
                Probe(f, (Fraction(x * df - hf * dx, den),
                          Fraction(y * df - hf * dy, den)), (dx, dy)),
                Fraction(hf, den), Fraction(hf * k + h * df, den * k),
                vertex is not None, vertex in poly.excluded_vertices))
    hits.sort(key=lambda hit: hit.probe.direction)
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
