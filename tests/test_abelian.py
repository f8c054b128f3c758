import random
from fractions import Fraction

import pytest

from floerdisk.abelian import (FgAbelianGroup, GroupElement, GroupHom,
                               IntersectionForm, freeze, identity,
                               kernel_basis, mat_vec, pair, smith_normal_form,
                               solve_linear, transpose)
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
        x = g.element(coords)
        assert x.equals(x, Z)
        # adding a relation row leaves the element unchanged
        rel = g.relations[rng.randrange(len(g.relations))]
        shifted = g.element(tuple(c + r for c, r in zip(coords, rel)))
        assert x.equals(shifted, Z)
        assert x.equals(shifted, ring)
        assert shifted.equals(x, Z)  # symmetry


def test_equality_transitive():
    g = FgAbelianGroup(("x", "y"), ((4, 2),))
    a = g.element((0, 0))
    b = g.element((4, 2))
    c = g.element((8, 4))
    assert a.equals(b, Z) and b.equals(c, Z) and a.equals(c, Z)


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
    four_h = h2.element((4,))
    h = h2.element((1,))
    assert pair(form, four_h, h, Ring.integers_mod(8)).value == 4

    pxp = FgAbelianGroup(("H1", "H2"))
    hyperbolic = IntersectionForm(pxp, ((0, 1), (1, 0)))
    x = pxp.element((1, 1))
    y = pxp.element((0, 1))
    assert pair(hyperbolic, x, y, Ring.integers_mod(2)).value == 1

    assert pair(form, four_h, h2.zero(), Z).value == 0


def test_pair_symmetric():
    rng = random.Random(21)
    g = FgAbelianGroup(("a", "b", "c"))
    m = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            m[i][j] = m[j][i] = rng.randint(-3, 3)
    form = IntersectionForm(g, freeze(m))
    for _ in range(50):
        x = g.element([rng.randint(-5, 5) for _ in range(3)])
        y = g.element([rng.randint(-5, 5) for _ in range(3)])
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
