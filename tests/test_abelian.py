import random
from fractions import Fraction

import pytest

from floerdisk.abelian import (FgAbelianGroup, GroupHom, IntersectionForm,
                               freeze, identity, kernel_basis, mat_vec, pair,
                               smith_normal_form, solve_linear, transpose,
                               vec_sub)
from floerdisk.errors import DimensionMismatch, TorsionGroup
from floerdisk.rings import Ring

from oracles import (brute_force_snf_2x2, determinant, exhaustive_solve_mod,
                     mat_mul)

Z = Ring.integers()
Q = Ring.rationals()


def diag_of(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def test_snf_identity():
    u, d, v = smith_normal_form(identity(2))
    assert d == identity(2)


def test_snf_diag_2_3():
    # Oracle: small unimodular search confirms the divisibility chain (1, 6).
    assert (1, 6) in brute_force_snf_2x2(((2, 0), (0, 3)))
    _, d, _ = smith_normal_form(((2, 0), (0, 3)))
    assert diag_of(d) == [1, 6]


def test_snf_zero_matrix():
    _, d, _ = smith_normal_form(((0,),))
    assert d == ((0,),)


def test_snf_random_identities():
    rng = random.Random(1729)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = freeze([[rng.randint(-9, 9) for _ in range(cols)]
                    for _ in range(rows)])
        u, d, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert abs(determinant(u)) == 1
        assert abs(determinant(v)) == 1
        diag = diag_of(d)
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
        # off-diagonal must vanish
        for i, row in enumerate(d):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0


def rowwise_snf(m):
    """smith_normal_form as it was before V was kept transposed: each
    column operation on V walks V one row at a time."""
    m = freeze(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(row) for row in m]
    u = [list(row) for row in identity(rows)]
    v = [list(row) for row in identity(cols)]

    def row_add(dst, src, c):
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def col_add(dst, src, c):
        for r in range(rows):
            d[r][dst] += c * d[r][src]
        for r in range(cols):
            v[r][dst] += c * v[r][src]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def pivot_at(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0:
                    key = (abs(d[i][j]), i, j)
                    if best is None or key < best:
                        best = key
        return None if best is None else (best[1], best[2])

    for t in range(min(rows, cols)):
        while True:
            pos = pivot_at(t)
            if pos is None:
                break
            row_swap(t, pos[0])
            col_swap(t, pos[1])
            p = d[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    row_add(i, t, -(d[i][t] // p))
                    if d[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j]:
                    col_add(j, t, -(d[t][j] // p))
                    if d[t][j]:
                        dirty = True
            if dirty:
                continue
            # Pull any entry the pivot does not divide into row t, so the
            # pivot shrinks to a gcd and the divisibility chain holds.
            fixed = True
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % p:
                        row_add(t, i, 1)
                        fixed = False
                        break
                if not fixed:
                    break
            if fixed:
                break
        if pivot_at(t) is None and d[t][t] == 0:
            break
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]

    return freeze(u), freeze(d), freeze(v)


def test_snf_matches_the_rowwise_update():
    # keeping V transposed changes no arithmetic: (U, D, V) are the same
    rng = random.Random(2718)
    for _ in range(300):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        # sparse and small, or dense with large entries
        low, high = rng.choice(((-1, 1), (-9, 9), (-10 ** 6, 10 ** 6)))
        m = freeze([[rng.randint(low, high) for _ in range(cols)]
                    for _ in range(rows)])
        assert smith_normal_form(m) == rowwise_snf(m)
    assert smith_normal_form(((),)) == rowwise_snf(((),))


def test_solve_linear_identity_and_parity():
    assert solve_linear(identity(3), (4, -1, 7), Z) == (4, -1, 7)
    assert solve_linear(((2,),), (1,), Z) is None
    assert solve_linear(((2,),), (1,), Q) == (Fraction(1, 2),)


def test_solve_linear_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_linear(identity(2), (1, 2, 3), Z)


def test_solve_linear_cp2_lift():
    # j-matrix of the CP^2 scenario: H2(X) = <H> includes into <H, beta, alpha>.
    j = ((1,), (0,), (0,))
    b = (4, -8, 0)
    ring = Ring.integers_mod(8)
    assert solve_linear(j, b, ring) == (4,)


def test_solve_linear_vs_exhaustive():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(2, 8)
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        b = [rng.randint(-4, 4) for _ in range(rows)]
        got = solve_linear(m, b, Ring.integers_mod(n))
        expected = exhaustive_solve_mod(m, b, n)
        if got is None:
            assert expected == []
        else:
            assert all(x in range(n) for x in got)
            assert got in expected


def test_kernel_basis():
    # ker of (1 1) is spanned by (1, -1)
    basis = kernel_basis(((1, 1),))
    assert len(basis) == 1
    assert mat_vec(((1, 1),), basis[0]) == (0,)


def test_group_structure_examples():
    g = FgAbelianGroup(("x", "y"), ((2, 0),))
    assert g.structure() == (1, [2])
    assert FgAbelianGroup(("a", "b", "c")).structure() == (3, [])
    assert FgAbelianGroup(("t",), ((1,),)).structure() == (0, [])


def test_element_equality_properties():
    rng = random.Random(5)
    g = FgAbelianGroup(("x", "y", "z"), ((2, 0, 4), (0, 3, 1)))
    ring = Ring.integers_mod(6)
    for _ in range(50):
        coords = tuple(rng.randint(-6, 6) for _ in range(3))
        assert g.is_zero(vec_sub(coords, coords), Z)
        # adding a relation row leaves the element unchanged
        rel = g.relations[rng.randrange(len(g.relations))]
        shifted = tuple(c + r for c, r in zip(coords, rel))
        assert g.is_zero(vec_sub(coords, shifted), Z)
        assert g.is_zero(vec_sub(coords, shifted), ring)
        assert g.is_zero(vec_sub(shifted, coords), Z)  # symmetry


def test_equality_transitive():
    g = FgAbelianGroup(("x", "y"), ((4, 2),))
    a, b, c = (0, 0), (4, 2), (8, 4)
    assert g.is_zero(vec_sub(a, b), Z) and g.is_zero(vec_sub(b, c), Z)
    assert g.is_zero(vec_sub(a, c), Z)


def test_hom_validation():
    src = FgAbelianGroup(("g",), ((2,),))
    tgt_good = FgAbelianGroup(("h",), ((2,),))
    GroupHom(src, tgt_good, ((1,),))
    tgt_bad = FgAbelianGroup(("h",))
    with pytest.raises(ValueError):
        GroupHom(src, tgt_bad, ((1,),))


def test_pair_examples():
    h2 = FgAbelianGroup(("H",))
    form = IntersectionForm(h2, ((1,),))
    assert pair(form, (4,), (1,), Ring.integers_mod(8)) == 4

    pxp = FgAbelianGroup(("H1", "H2"))
    hyperbolic = IntersectionForm(pxp, ((0, 1), (1, 0)))
    assert pair(hyperbolic, (1, 1), (0, 1), Ring.integers_mod(2)) == 1

    assert pair(form, (4,), (0,), Z) == 0
    assert pair(hyperbolic, (1, 1), (1, 2), Q) == Fraction(3)
    with pytest.raises(DimensionMismatch):
        pair(form, (4,), (1, 1), Z)


def test_pair_symmetric():
    rng = random.Random(21)
    g = FgAbelianGroup(("a", "b", "c"))
    m = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            m[i][j] = m[j][i] = rng.randint(-3, 3)
    form = IntersectionForm(g, freeze(m))
    for _ in range(50):
        x = tuple(rng.randint(-5, 5) for _ in range(3))
        y = tuple(rng.randint(-5, 5) for _ in range(3))
        assert pair(form, x, y, Q) == pair(form, y, x, Q)


def test_form_rejects_torsion():
    g = FgAbelianGroup(("t",), ((2,),))
    with pytest.raises(TorsionGroup):
        IntersectionForm(g, ((0,),))


def test_in_lattice_mod_n():
    # row lattice of (2) in Z/8: {0, 2, 4, 6}
    z8 = Ring.integers_mod(8)
    assert FgAbelianGroup(("x",), ((2,),)).is_zero((4,), z8)
    assert not FgAbelianGroup(("x",), ((2,),)).is_zero((3,), z8)
    assert not FgAbelianGroup(("x",)).is_zero((3,), z8)
    assert FgAbelianGroup(("x",)).is_zero((8,), z8)
