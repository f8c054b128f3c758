"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive (exhaustive search, hand formulas) and
shares no code path with the implementations under test.  The one exception
is oracle_residue_critical_points, the exhaustive RingElement search, which
shares partial_derivative and reduce with the fast residue search;
plain_residue_critical_points checks the same answers with plain ints only.
oracle_search_probes, the old Fraction probe search, reads the facets that
Polytope2 builds and its contains checks, but not the integer clipping.
The linear-algebra oracles (oracle_solve_linear and the hand-built quotient
matrices after it) share the Smith normal form with the library, and
oracle_oc_low and oracle_cancellation_threshold also its unchanged helpers
for areas, weights and H1 zero tests.
oracle_gate_threshold, the old sampled sweep threshold, reads the library's
area and cancellation functions but not its gate inputs.
oracle_builtin_scenario and oracle_sphere_pair, the hand-written builtin
builders, share the scenario data model and its validation.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from floerdisk.abelian import FgAbelianGroup, GroupHom, IntersectionForm
from floerdisk.errors import BadParams
from floerdisk.rings import Ring
from floerdisk.scenario import (AffineSubspace, DiskClass, DiskLedger,
                                LagrangianSide, Scenario)


def brute_force_units(n):
    """Units of Z/n found by scanning for multiplicative inverses."""
    return sorted(x for x in range(n) if any((x * y) % n == 1 for y in range(n)))


def mat_mul(a, b):
    """Integer matrix product of tuples of row tuples."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix product shape mismatch")
    cols = tuple(zip(*b)) if b else ()
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def determinant(m):
    """Exact integer determinant (Bareiss fraction-free elimination)."""
    n = len(m)
    if n == 0:
        return 1
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


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


def oracle_solve_linear(m, b, ring):
    """solve_linear as first written: Fraction arithmetic over Z and Q, and
    over Z/n the system [M | nI] solved over Z by recursion.  Shares the
    Smith normal form with the library."""
    from floerdisk.abelian import diagonal, freeze, mat_vec, smith_normal_form
    from floerdisk.rings import Ring, reduce

    m = freeze(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if ring.is_finite:
        n = ring.modulus
        if rows == 0:
            return (0,) * cols
        aug = tuple(row + tuple(n if i == k else 0 for k in range(rows))
                    for i, row in enumerate(m))
        sol = oracle_solve_linear(aug, tuple(reduce(x, ring).value for x in b),
                                  Ring.integers())
        return None if sol is None else tuple(x % n for x in sol[:cols])
    rational = ring.name == "Q"
    b = tuple(Fraction(x) for x in b)
    if not rational and any(x.denominator != 1 for x in b):
        return None
    if rows == 0:
        return (0,) * cols
    u, d, v = smith_normal_form(m)
    c = mat_vec(u, b)
    diag = diagonal(d)
    y = []
    for i in range(cols):
        di = diag[i] if i < len(diag) else 0
        ci = c[i] if i < rows else Fraction(0)
        if di == 0:
            if ci != 0:
                return None
            y.append(Fraction(0))
        else:
            q = ci / di
            if not rational and q.denominator != 1:
                return None
            y.append(q)
    if any(c[i] != 0 for i in range(cols, rows)):
        return None
    x = mat_vec(v, tuple(y))
    return tuple(Fraction(t) if rational else int(t) for t in x)


def oracle_kernel(m):
    """Columns of V over the zero Smith invariants: a basis of ker M over Z."""
    from floerdisk.abelian import diagonal, smith_normal_form

    cols = len(m[0])
    _, d, v = smith_normal_form(m)
    diag = diagonal(d)
    return [tuple(v[i][j] for i in range(cols)) for j in range(cols)
            if j >= len(diag) or diag[j] == 0]


def append_relation_columns(matrix, relations, modulus=None):
    """[M | R^T], and [M | R^T | nI] given a modulus n, built by hand as the
    callers of solve_linear once did."""
    if relations:
        rel_cols = tuple(zip(*relations))
        matrix = tuple(row + rel_cols[i] for i, row in enumerate(matrix))
    if modulus:
        matrix = tuple(row + tuple(modulus if r == i else 0
                                   for r in range(len(matrix)))
                       for i, row in enumerate(matrix))
    return tuple(matrix)


def oracle_in_ambiguity_coset(group, coords, other, ambiguity, ring):
    """Is coords - other a multiple of the ambiguity class over the ring?"""
    diff = tuple(a - b for a, b in zip(coords, other))
    matrix = append_relation_columns(tuple((c,) for c in ambiguity),
                                      group.relations)
    return oracle_solve_linear(matrix, diff, ring) is not None


def oracle_kernel_inside_ambiguity(side, ring):
    """Does every ring solution of j(v) = 0 lie in <[L]>?  The quotient
    matrix [j | R^T | nI] is built by hand."""
    ngens = side.h2x.ngens
    matrix = append_relation_columns(side.j.matrix, side.h2_rel.relations,
                                     ring.modulus)
    return all(oracle_in_ambiguity_coset(side.h2x, vec[:ngens], (0,) * ngens,
                                         side.fundamental_class, ring)
               for vec in oracle_kernel(matrix))


def oracle_subspace_contains(subspace, vector):
    """Membership by solving span^T x = vector - base over F_p."""
    p = subspace.field.modulus
    diff = tuple(a - b for a, b in zip(vector, subspace.base))
    if not subspace.span:
        return all(x % p == 0 for x in diff)
    return oracle_solve_linear(tuple(zip(*subspace.span)), diff,
                               subspace.field) is not None


def _oracle_weighted_sum(side, disks, attr, width, ring, local):
    """Sum of count * weight * disk.<attr> on RingElements; every weight is 1
    without a local map."""
    from floerdisk.invariants import _local_weight
    from floerdisk.rings import reduce

    acc = [ring.zero()] * width
    for disk in disks:
        weight = (ring.one() if local is None
                  else _local_weight(side, local, disk.boundary, ring))
        for i, coord in enumerate(getattr(disk, attr)):
            acc[i] = acc[i] + weight * reduce(disk.count * coord, ring)
    return tuple(x.value for x in acc)


def _oracle_cosets(side, level, subspace):
    """(disks at the level with boundary nonzero over Z, their groups): one
    group without a subspace, else cosets grouped by SNF membership."""
    nonzero = [d for d in side.ledger.at_level(level)
               if not side.h1.is_zero(d.boundary, Ring.integers())]
    if subspace is None:
        return nonzero, [nonzero]
    groups = []
    for disk in nonzero:
        for group in groups:
            coset = AffineSubspace(subspace.field, group[0].boundary,
                                   subspace.span)
            if oracle_subspace_contains(coset, disk.boundary):
                group.append(disk)
                break
        else:
            groups.append([disk])
    return nonzero, groups


def _oracle_cancels(side, group, ring, local):
    total = _oracle_weighted_sum(side, group, "boundary", side.h1.ngens,
                                 ring, local)
    return side.h1.is_zero(total, ring)


def oracle_oc_low(side, ring, subspace=None):
    """oc_low as first written: RingElement sums, SNF-based subspace
    membership, cosets grouped by that membership, hand-built quotient
    matrices.  Returns (value coords, disk sum, lift unique), or the name of
    the FloerDiskError raised."""
    from floerdisk.errors import FloerDiskError
    from floerdisk.invariants import least_area

    local = side.local_system_dict()
    try:
        if not side.ledger.disks:
            if side.asserted_invariant is None:
                return "InsufficientLedger"
            return side.asserted_invariant, (), True
        level = least_area(side)
        nonzero, groups = _oracle_cosets(side, level, subspace)
        if not all(_oracle_cancels(side, g, ring, local) for g in groups):
            return "CancellationFails"
        selected = [d for d in nonzero if subspace is None
                    or oracle_subspace_contains(subspace, d.boundary)]
        if not selected:
            return (0,) * side.h2x.ngens, (), True
        disk_sum = _oracle_weighted_sum(side, selected, "rel_class",
                                        side.h2_rel.ngens, ring, local)
        lift = oracle_solve_linear(
            append_relation_columns(side.j.matrix, side.h2_rel.relations),
            disk_sum, ring)
        if lift is None:
            return "NoLift"
        return (lift[:side.h2x.ngens], disk_sum,
                oracle_kernel_inside_ambiguity(side, ring))
    except FloerDiskError as exc:
        return type(exc).__name__


def oracle_cancellation_threshold(side, ring, subspace=None, weighted=False,
                                  local_system=None):
    """cancellation_threshold with its two branches: the whole boundary sum
    at each level without a subspace, each coset sum with one; weighted
    (by local_system, else the side's own) only on request.  Returns
    (threshold, cutoff, levels), or the name of the FloerDiskError raised."""
    from floerdisk.errors import FloerDiskError, MissingLocalSystem

    try:
        local = None
        if weighted:
            local = (local_system if local_system is not None
                     else side.local_system_dict())
            if local is None:
                raise MissingLocalSystem(f"side {side.name}: weighted sum "
                                         f"requested without a local system")
        levels = []
        threshold = None
        for level in side.ledger.levels:
            if subspace is None:
                _, (group,) = _oracle_cosets(side, level, None)
                cancels = _oracle_cancels(side, group, ring, local)
            else:
                _, groups = _oracle_cosets(side, level, subspace)
                cancels = all(_oracle_cancels(side, g, ring, local)
                              for g in groups)
            levels.append((level, cancels))
            if not cancels and threshold is None:
                threshold = level
        return threshold, side.ledger.complete_below, tuple(levels)
    except FloerDiskError as exc:
        return type(exc).__name__


def oracle_gate_threshold(scenario_at, ring, use_subspaces, monotone_variant):
    """The sweep's first gate threshold: the least gate bound A(a) sampled at
    a = 1/97, 1/89 and 1/83, checked for collinearity, and a + b = A(a)
    solved with b read off the second side (the monotone one in the
    variant).  Right only where the swept side is the non-monotone one, one
    bound is the least on the whole interval and the root lies inside it.
    Returns the root as a string, or None."""
    from floerdisk.errors import FloerDiskError
    from floerdisk.invariants import (cancellation_threshold, least_area,
                                      next_area)
    from floerdisk.rings import rational_str

    def bound_at(a):
        left, right = scenario_at(a).sides
        if monotone_variant:
            mono = right if right.monotone else left
            other = left if mono is right else right
            sub = other.subspace if use_subspaces else None
            big_a = cancellation_threshold(other, ring,
                                           subspace=sub).effective_bound
            b = least_area(mono)
        else:
            big_a, big_b = next_area(left), next_area(right)
            if big_b is not None and (big_a is None or big_b < big_a):
                big_a = big_b
            b = least_area(right)
        return big_a, b

    samples = [Fraction(1, 97), Fraction(1, 89), Fraction(1, 83)]
    try:
        points = [(a, *bound_at(a)) for a in samples]
    except FloerDiskError:
        return None
    if any(p[1] is None for p in points):
        return None
    (a1, big1, b), (a2, big2, _), (a3, big3, _) = points
    slope = (big2 - big1) / (a2 - a1)
    intercept = big1 - slope * a1
    if intercept + slope * a3 != big3 or slope == 1:
        return None
    return rational_str((intercept - b) / (1 - slope))


# --- builtins, one hand-written builder each ------------------------------
#
# The builders the scenario table replaced: every group, j, bd and disk
# boundary is written out by hand.  They share the data model and its
# validation with the library, but not the table or the builder.

F2 = Ring.prime_field(2)


def _oracle_cp2_ambient():
    h2x = FgAbelianGroup(("H",))
    return h2x, IntersectionForm(h2x, ((1,),))


def _oracle_cp2_ta(a):
    # Disk data: four index-2 families, three of area a with boundaries
    # -2*dbeta + {-1,0,1}*dalpha (counts 1,2,1) and one of area (1-a)/2 with
    # boundary dbeta.  At a = 1/3 the two levels merge and the torus is
    # monotone.
    h2x, form = _oracle_cp2_ambient()
    h1 = FgAbelianGroup(("dbeta", "dalpha"))
    h2_rel = FgAbelianGroup(("H", "beta", "alpha"))
    j = GroupHom(h2x, h2_rel, ((1,), (0,), (0,)))
    bd = GroupHom(h2_rel, h1, ((0, 1, 0), (0, 0, 1)))
    monotone = a == Fraction(1, 3)
    disks = (
        DiskClass("H-2b-a", (1, -2, -1), (-2, -1), 2, a, 1),
        DiskClass("H-2b", (1, -2, 0), (-2, 0), 2, a, 2),
        DiskClass("H-2b+a", (1, -2, 1), (-2, 1), 2, a, 1),
        DiskClass("b", (0, 1, 0), (1, 0), 2, (1 - a) / 2, 1),
    )
    ledger = DiskLedger(disks, None if monotone else 1 - 2 * a)
    side = LagrangianSide(
        name="T_a", h1=h1, h2_rel=h2_rel, j=j, bd=bd,
        fundamental_class=(0,), ledger=ledger,
        monotone=monotone,
        monotonicity_constant=a if monotone else None,
        lattice_params=None if monotone else (3, 2),
    )
    return Scenario(h2x, form, (side,), Ring.parse("Z/8"))


def _oracle_cp2_clifford():
    h2x, form = _oracle_cp2_ambient()
    h1 = FgAbelianGroup(("db1", "db2"))
    h2_rel = FgAbelianGroup(("H", "beta1", "beta2"))
    j = GroupHom(h2x, h2_rel, ((1,), (0,), (0,)))
    bd = GroupHom(h2_rel, h1, ((0, 1, 0), (0, 0, 1)))
    third = Fraction(1, 3)
    disks = (
        DiskClass("b1", (0, 1, 0), (1, 0), 2, third, 1),
        DiskClass("b2", (0, 0, 1), (0, 1), 2, third, 1),
        DiskClass("H-b1-b2", (1, -1, -1), (-1, -1), 2, third, 1),
    )
    side = LagrangianSide(
        name="T_Cl", h1=h1, h2_rel=h2_rel, j=j, bd=bd,
        fundamental_class=(0,), ledger=DiskLedger(disks, None),
        monotone=True, monotonicity_constant=third,
    )
    return Scenario(h2x, form, (side,), Ring.parse("Z/8"))


def _oracle_p1xp1_ambient():
    h2x = FgAbelianGroup(("H1", "H2"))
    return h2x, IntersectionForm(h2x, ((0, 1), (1, 0)))


def _oracle_p1xp1_ta(a):
    h2x, form = _oracle_p1xp1_ambient()
    h1 = FgAbelianGroup(("dbeta", "dalpha"))
    h2_rel = FgAbelianGroup(("H1", "H2", "beta", "alpha"))
    j = GroupHom(h2x, h2_rel, ((1, 0), (0, 1), (0, 0), (0, 0)))
    bd = GroupHom(h2_rel, h1, ((0, 0, 1, 0), (0, 0, 0, 1)))
    monotone = a == Fraction(1, 2)
    disks = (
        DiskClass("H1-b-a", (1, 0, -1, -1), (-1, -1), 2, a, 1),
        DiskClass("H1-b", (1, 0, -1, 0), (-1, 0), 2, a, 1),
        DiskClass("H2-b", (0, 1, -1, 0), (-1, 0), 2, a, 1),
        DiskClass("H2-b+a", (0, 1, -1, 1), (-1, 1), 2, a, 1),
        DiskClass("b", (0, 0, 1, 0), (1, 0), 2, 1 - a, 1),
    )
    ledger = DiskLedger(disks, None if monotone else 2 - 3 * a)
    side = LagrangianSide(
        name="That_a", h1=h1, h2_rel=h2_rel, j=j, bd=bd,
        fundamental_class=(0, 0), ledger=ledger,
        monotone=monotone,
        monotonicity_constant=a if monotone else None,
        lattice_params=None if monotone else (2, 1),
        subspace=AffineSubspace(F2, (0, 0), ((1, 0),)),
    )
    return Scenario(h2x, form, (side,), Ring.parse("Z/4"))


def _oracle_p1xp1_clifford():
    h2x, form = _oracle_p1xp1_ambient()
    h1 = FgAbelianGroup(("db1", "db2"))
    h2_rel = FgAbelianGroup(("H1", "H2", "beta1", "beta2"))
    j = GroupHom(h2x, h2_rel, ((1, 0), (0, 1), (0, 0), (0, 0)))
    bd = GroupHom(h2_rel, h1, ((0, 0, 1, 0), (0, 0, 0, 1)))
    half = Fraction(1, 2)
    disks = (
        DiskClass("b1", (0, 0, 1, 0), (1, 0), 2, half, 1),
        DiskClass("b2", (0, 0, 0, 1), (0, 1), 2, half, 1),
        DiskClass("H1-b1", (1, 0, -1, 0), (-1, 0), 2, half, 1),
        DiskClass("H2-b2", (0, 1, 0, -1), (0, -1), 2, half, 1),
    )
    side = LagrangianSide(
        name="That_Cl", h1=h1, h2_rel=h2_rel, j=j, bd=bd,
        fundamental_class=(0, 0), ledger=DiskLedger(disks, None),
        monotone=True, monotonicity_constant=half,
        subspace=AffineSubspace(F2, (0, 0), ((0, 1),)),
    )
    return Scenario(h2x, form, (side,), Ring.parse("Z/4"))


def _oracle_bl3_ambient():
    h2x = FgAbelianGroup(("H1", "H2", "E1", "E2"))
    form = IntersectionForm(h2x, ((0, 1, 0, 0), (1, 0, 0, 0),
                                  (0, 0, -1, 0), (0, 0, 0, -1)))
    return h2x, form


def _oracle_bl3_ta(a):
    # Same four least-area families as the p1xp1 torus, plus the two extra
    # area-1/2 disks with boundaries +-dalpha whose classes sum to
    # H1+H2-E1-E2.  The ledger stops below 1-a: that level is where the
    # (monotone-partner) threshold argument takes over, so the single
    # area-(1-a) family is deliberately not listed.
    h2x, form = _oracle_bl3_ambient()
    h1 = FgAbelianGroup(("dbeta", "dalpha"))
    h2_rel = FgAbelianGroup(("H1", "H2", "E1", "E2", "beta", "alpha"))
    j = GroupHom(h2x, h2_rel, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                               (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0)))
    bd = GroupHom(h2_rel, h1, ((0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)))
    half = Fraction(1, 2)
    disks = (
        DiskClass("H1-b-a", (1, 0, 0, 0, -1, -1), (-1, -1), 2, a, 1),
        DiskClass("H1-b", (1, 0, 0, 0, -1, 0), (-1, 0), 2, a, 1),
        DiskClass("H2-b", (0, 1, 0, 0, -1, 0), (-1, 0), 2, a, 1),
        DiskClass("H2-b+a", (0, 1, 0, 0, -1, 1), (-1, 1), 2, a, 1),
        DiskClass("H1-E1+a", (1, 0, -1, 0, 0, 1), (0, 1), 2, half, 1),
        DiskClass("H2-E2-a", (0, 1, 0, -1, 0, -1), (0, -1), 2, half, 1),
    )
    side = LagrangianSide(
        name="Tbar_a", h1=h1, h2_rel=h2_rel, j=j, bd=bd,
        fundamental_class=(0, 0, 0, 0), ledger=DiskLedger(disks, 1 - a),
        subspace=AffineSubspace(F2, (0, 0), ((1, 0),)),
    )
    return Scenario(h2x, form, (side,), Ring.parse("Z/2"))


def _oracle_bl3_clifford():
    # No six-facet ledger is recorded here: the invariant with subspace is an
    # asserted input, so the side carries asserted_invariant instead of disks.
    h2x, form = _oracle_bl3_ambient()
    h1 = FgAbelianGroup(("db1", "db2"))
    h2_rel = FgAbelianGroup(("H1", "H2", "E1", "E2"))
    j = GroupHom(h2x, h2_rel, ((1, 0, 0, 0), (0, 1, 0, 0),
                               (0, 0, 1, 0), (0, 0, 0, 1)))
    bd = GroupHom(h2_rel, h1, ((0, 0, 0, 0), (0, 0, 0, 0)))
    side = LagrangianSide(
        name="Tbar_Cl", h1=h1, h2_rel=h2_rel, j=j, bd=bd,
        fundamental_class=(0, 0, 0, 0), ledger=DiskLedger((), None),
        monotone=True, monotonicity_constant=Fraction(1, 2),
        subspace=AffineSubspace(F2, (0, 0), ((0, 1),)),
        asserted_invariant=(0, 1, 0, 0),
    )
    return Scenario(h2x, form, (side,), Ring.parse("Z/2"))


def _oracle_ts2_la(a):
    # Cotangent-bundle picture of the p1xp1 torus: the beta disk crosses the
    # removed divisor and disappears; the remaining four classes are
    # rewritten in the basis (zero-section S, beta-lift, alpha-lift) of
    # H2(T*S^2, L), where S spans ker(bd) = im(j).
    h2x = FgAbelianGroup(("S",))
    form = IntersectionForm(h2x, ((-2,),))
    h1 = FgAbelianGroup(("dbeta", "dalpha"))
    h2_rel = FgAbelianGroup(("S", "beta", "alpha"))
    j = GroupHom(h2x, h2_rel, ((1,), (0,), (0,)))
    bd = GroupHom(h2_rel, h1, ((0, 1, 0), (0, 0, 1)))
    disks = (
        DiskClass("S-b-a", (1, -1, -1), (-1, -1), 2, a, 1),
        DiskClass("S-b", (1, -1, 0), (-1, 0), 2, a, 1),
        DiskClass("-b", (0, -1, 0), (-1, 0), 2, a, 1),
        DiskClass("-b+a", (0, -1, 1), (-1, 1), 2, a, 1),
    )
    side = LagrangianSide(
        name="Lhat_a", h1=h1, h2_rel=h2_rel, j=j, bd=bd,
        fundamental_class=(0,), ledger=DiskLedger(disks, None),
        monotone=True, monotonicity_constant=a,
        subspace=AffineSubspace(F2, (0, 0), ((1, 0),)),
    )
    return Scenario(h2x, form, (side,), Ring.parse("Z/4"))


def _oracle_trp2_la(a):
    # Cotangent-bundle picture of the CP^2 torus.  H2(T*RP^2; Z/8) is a
    # two-element group generated by four times the generator written here;
    # presenting the bookkeeping group as free rank one keeps 4*[RP2]
    # nonzero mod 8 (it has order two there), which is the faithful model of
    # that coefficient group.  The pairing on it is trivial.
    h2x = FgAbelianGroup(("RP2",))
    form = IntersectionForm(h2x, ((0,),))
    h1 = FgAbelianGroup(("dbeta", "dalpha"))
    h2_rel = FgAbelianGroup(("u", "beta", "alpha"))
    j = GroupHom(h2x, h2_rel, ((1,), (0,), (0,)))
    bd = GroupHom(h2_rel, h1, ((0, 1, 0), (0, 0, 1)))
    disks = (
        DiskClass("u-2b-a", (1, -2, -1), (-2, -1), 2, a, 1),
        DiskClass("u-2b", (1, -2, 0), (-2, 0), 2, a, 2),
        DiskClass("u-2b+a", (1, -2, 1), (-2, 1), 2, a, 1),
    )
    side = LagrangianSide(
        name="L_a", h1=h1, h2_rel=h2_rel, j=j, bd=bd,
        fundamental_class=(0,), ledger=DiskLedger(disks, None),
        monotone=True, monotonicity_constant=a,
    )
    return Scenario(h2x, form, (side,), Ring.parse("Z/8"))


_ORACLE_BUILTINS = {
    "cp2_ta": _oracle_cp2_ta,
    "cp2_clifford": _oracle_cp2_clifford,
    "p1xp1_ta": _oracle_p1xp1_ta,
    "p1xp1_clifford": _oracle_p1xp1_clifford,
    "bl3_ta": _oracle_bl3_ta,
    "bl3_clifford": _oracle_bl3_clifford,
    "ts2_la": _oracle_ts2_la,
    "trp2_la": _oracle_trp2_la,
}


def oracle_builtin_scenario(name, a=None):
    """The builtin as its hand-written builder makes it; a is not checked
    against the interval."""
    builder = _ORACLE_BUILTINS[name]
    return builder() if a is None else builder(Fraction(a))


def oracle_sphere_pair(a, b, k: int) -> Scenario:
    """Two torus families living near once-intersecting spheres S, S'.

    Each side is a ts2-style ledger mapped to its own sphere class; the
    ambient pairing is [[-2, 1], [1, -2]].  The second-area bound comes from
    the lattice parameters (k, N=1), valid for parameters below 1/(k+1).
    """
    a, b = Fraction(a), Fraction(b)
    if a <= 0 or b <= 0:
        raise BadParams("parameters must be positive")
    if k < 1:
        raise BadParams("k must be a positive integer")
    h2x = FgAbelianGroup(("S", "Sp"))
    form = IntersectionForm(h2x, ((-2, 1), (1, -2)))

    def make_side(name, sphere_index, area):
        h1 = FgAbelianGroup(("dbeta", "dalpha"))
        h2_rel = FgAbelianGroup(("S", "Sp", "beta", "alpha"))
        j = GroupHom(h2x, h2_rel, ((1, 0), (0, 1), (0, 0), (0, 0)))
        bd = GroupHom(h2_rel, h1, ((0, 0, 1, 0), (0, 0, 0, 1)))
        s = tuple(1 if t == sphere_index else 0 for t in range(2))
        disks = (
            DiskClass("S-b-a", s + (-1, -1), (-1, -1), 2, area, 1),
            DiskClass("S-b", s + (-1, 0), (-1, 0), 2, area, 1),
            DiskClass("-b", (0, 0, -1, 0), (-1, 0), 2, area, 1),
            DiskClass("-b+a", (0, 0, -1, 1), (-1, 1), 2, area, 1),
        )
        cutoff = area + (1 - k * area)
        if cutoff <= area:
            raise BadParams(f"parameter {area} too large for k = {k}")
        return LagrangianSide(
            name=name, h1=h1, h2_rel=h2_rel, j=j, bd=bd,
            fundamental_class=(0, 0), ledger=DiskLedger(disks, cutoff),
            lattice_params=(k, 1),
            subspace=AffineSubspace(F2, (0, 0), ((1, 0),)),
        )

    return Scenario(h2x, form,
                    (make_side("T_a", 0, a), make_side("T'_b", 1, b)),
                    Ring.parse("Z/2"))
