"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (exhaustive search, hand formulas) and
shares no code path with the implementations under test.  The one exception
is oracle_residue_critical_points, the exhaustive RingElement search, which
shares partial_derivative and reduce with the fast residue search;
plain_residue_critical_points checks the same answers with plain ints only.
oracle_search_probes, the old Fraction probe search, reads the facets that
Polytope2 builds and its contains checks, but not the integer clipping.
"""

from fractions import Fraction
from itertools import product
from math import gcd


def brute_force_units(n):
    """Units of Z/n found by scanning for multiplicative inverses."""
    return sorted(x for x in range(n) if any((x * y) % n == 1 for y in range(n)))


def det_2x2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def brute_force_snf_2x2(m, bound=3):
    """Search small unimodular U, V for a diagonal D = U m V with d1 | d2.

    Only feasible for 2x2 matrices with small entries; used to confirm a
    handful of frozen Smith-form answers.
    """
    entries = range(-bound, bound + 1)
    unimodular = [((a, b), (c, d))
                  for a, b, c, d in product(entries, repeat=4)
                  if abs(a * d - b * c) == 1]

    def mul(x, y):
        return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2))
                           for j in range(2)) for i in range(2))

    results = set()
    for u in unimodular:
        um = mul(u, m)
        for v in unimodular:
            d = mul(um, v)
            if d[0][1] == 0 and d[1][0] == 0 and d[0][0] >= 0 and d[1][1] >= 0:
                d1, d2 = d[0][0], d[1][1]
                if d2 == 0 or (d1 != 0 and d2 % d1 == 0) or d1 == 0:
                    if not (d1 == 0 and d2 != 0):
                        results.add((d1, d2))
    return results


def exhaustive_solve_mod(m, b, n):
    """All x in (Z/n)^cols with M x = b mod n, by full enumeration."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    solutions = []
    for x in product(range(n), repeat=cols):
        if all(sum(m[i][j] * x[j] for j in range(cols)) % n == b[i] % n
               for i in range(rows)):
            solutions.append(x)
    return solutions


def balance_slope(term1, term2):
    """Solve t1 + n1*v = t2 + n2*v for the valuation v."""
    (t1, n1), (t2, n2) = term1, term2
    if n1 == n2:
        raise ZeroDivisionError("no balancing slope for equal exponents")
    return Fraction(t1 - t2, n2 - n1)


def segment_ray_exit(vertices, base, direction):
    """Exit parameter of the ray base + t*direction from a convex polygon.

    Independent of the half-plane clipping in the implementation: intersects
    the ray with every closed edge segment via 2x2 determinants.
    """
    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    best = None
    k = len(vertices)
    for i in range(k):
        p = vertices[i]
        q = vertices[(i + 1) % k]
        edge = (q[0] - p[0], q[1] - p[1])
        denom = cross(direction, edge)
        if denom == 0:
            continue
        rel = (p[0] - base[0], p[1] - base[1])
        t = Fraction(cross(rel, edge), denom)
        u = Fraction(cross(rel, direction), denom)
        if 0 <= u <= 1 and t > 0:
            if best is None or t < best:
                best = t
    return best


def oracle_probe_displaces(vertices, base, direction, point):
    """Strict-half criterion evaluated from scratch on exact rationals."""
    dx, dy = direction
    px, py = point[0] - base[0], point[1] - base[1]
    # point = base + s*direction must be consistent in both coordinates
    if dx == 0:
        if px != 0:
            return False
        s = Fraction(py, dy)
    else:
        s = Fraction(px, dx)
        if py != s * dy:
            return False
    length = segment_ray_exit(vertices, base, direction)
    if length is None:
        return False
    return 0 < s and 2 * s < length


def oracle_residue_critical_points(p, ring):
    """Exhaustive residue search: both partials evaluated through
    ``evaluate_partials_at`` (RingElement arithmetic, partials re-derived at
    every point) at every pair of ``units_of(ring)``, in (z, w) order."""
    from floerdisk.potential import evaluate_partials_at
    from floerdisk.rings import units_of

    units = [u.value for u in units_of(ring)]
    return [(z, w) for z in units for w in units
            if all(d.is_zero for d in evaluate_partials_at(p, z, w, ring))]


def plain_residue_critical_points(p, n):
    """Unit pairs mod n where both partials vanish, in (z, w) order.

    Plain ints only: the partials are read off the terms by hand, each
    coefficient is reduced with a modular inverse of its denominator, and
    every unit pair is tried with power tables of z and w."""
    units = [x for x in range(1, n) if gcd(x, n) == 1]
    partials = []
    for var in ("z", "w"):
        terms = []
        for t in p.terms:
            exp = t.z_exp if var == "z" else t.w_exp
            if exp:
                c = Fraction(t.coeff) * exp
                c = c.numerator * pow(c.denominator, -1, n) % n
                terms.append((c, t.z_exp - (var == "z"),
                              t.w_exp - (var == "w")))
        partials.append(terms)
    w_powers = {e: {w: pow(w, e, n) for w in units}
                for terms in partials for _, _, e in terms}
    found = []
    for z in units:
        scaled = [[(c * pow(z, ze, n), w_powers[we]) for c, ze, we in terms]
                  for terms in partials]
        for w in units:
            if all(sum(c * wp[w] for c, wp in terms) % n == 0
                   for terms in scaled):
                found.append((z, w))
    return found


def oracle_search_probes(poly, point, direction_bound):
    """The probe search as first written, all on Fractions.

    For every primitive direction it walks back from the point to the
    boundary, drops vertex bases, finds the entry facet by scanning every
    facet, checks integral transversality, clips the probe again from its
    base and tests the strict-half criterion.  It shares the Polytope2,
    Facet, Probe and ProbeHit records with the library, not its clipping."""
    from floerdisk.errors import ValidationError
    from floerdisk.probes import Probe, ProbeHit

    point = (Fraction(point[0]), Fraction(point[1]))
    if not poly.contains(point, strict=True):
        raise ValidationError(f"query point {point} is not interior")
    facets = poly.facets

    def dot(normal, v):
        return normal[0] * v[0] + normal[1] * v[1]

    hits = []
    for dx in range(-direction_bound, direction_bound + 1):
        for dy in range(-direction_bound, direction_bound + 1):
            if (dx, dy) == (0, 0) or gcd(abs(dx), abs(dy)) != 1:
                continue
            back = None
            for f in facets:
                denom = dot(f.normal, (dx, dy))
                if denom <= 0:
                    continue  # walking backwards exits where normal . d > 0
                t = Fraction(dot(f.normal, point) - f.offset, denom)
                if t > 0 and (back is None or t < back):
                    back = t
            if back is None:
                continue
            base = (point[0] - back * dx, point[1] - back * dy)
            if base in poly.vertices:
                continue
            entry = [f for f in facets if f.contains_in_relative_interior(base)]
            if not entry or dot(entry[0].normal, (dx, dy)) != 1:
                continue
            length = None
            for f in facets:
                denom = dot(f.normal, (dx, dy))
                if denom >= 0:
                    continue  # not an exiting half-plane for this direction
                t = Fraction(f.offset - dot(f.normal, base), denom)
                if t > 0 and (length is None or t < length):
                    length = t
            if length is None:
                continue
            s = (Fraction(point[0] - base[0], dx) if dx
                 else Fraction(point[1] - base[1], dy))
            if not (0 < s and 2 * s < length):
                continue
            exit_point = (base[0] + length * dx, base[1] + length * dy)
            hits.append(ProbeHit(Probe(entry[0].index, base, (dx, dy)), s,
                                 length, exit_point in poly.vertices,
                                 exit_point in poly.excluded_points()))
    return hits
