"""Linear algebra over Z, Q, Z/n and F_p for finitely generated abelian groups.

Matrices are tuples of tuples of Python ints (arbitrary precision); all
dimensions in this artifact are tiny, so no sparse or numpy machinery is
needed.  The one nontrivial kernel is the Smith normal form, which powers
element equality, structure computation, and solve_linear / kernel_basis:
these two solve and take kernels modulo a group's relations over every
ring, and are the only code that builds the quotient matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch, TorsionGroup
from .rings import RATIONALS, Ring, reduce

Matrix = tuple  # tuple of row tuples
Vector = tuple
Z = Ring.integers()


# --- basic matrix helpers ----------------------------------------------------

def freeze(rows) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(m: Matrix) -> Matrix:
    if not m:
        return ()
    return tuple(zip(*m))


def mat_vec(m: Matrix, v) -> Vector:
    if m and len(m[0]) != len(v):
        raise DimensionMismatch("matrix/vector shape mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


# --- Smith normal form --------------------------------------------------------

def smith_normal_form(m) -> tuple[Matrix, Matrix, Matrix]:
    """Diagonalize an integer matrix: returns (U, D, V) with D = U*M*V.

    U and V are unimodular, D is diagonal with nonnegative entries forming a
    divisibility chain d1 | d2 | ...  Pivots are chosen with minimal absolute
    value and smallest (row, col) position, so the output is deterministic.

    >>> u, d, v = smith_normal_form(((2, 0), (0, 3)))
    >>> [d[i][i] for i in range(2)]
    [1, 6]
    """
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


def diagonal(d: Matrix) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def _quotient_matrix(m: Matrix, relations, ring: Ring) -> Matrix:
    """[M | R^T | nI]: x solves M x = b in the target modulo its relation
    rows R, and modulo n over Z/n and F_p, iff some (x, y, z) solves this
    integer system, so one exact Smith normal form serves every ring."""
    rows = len(m)
    relations = freeze(relations)
    if any(len(r) != rows for r in relations):
        raise DimensionMismatch("relation width != matrix rows")
    rel_cols = transpose(relations) or ((),) * rows
    mod_cols = (tuple(tuple(ring.modulus * x for x in row)
                      for row in identity(rows))
                if ring.is_finite else ((),) * rows)
    return tuple(a + r + n for a, r, n in zip(m, rel_cols, mod_cols))


def kernel_basis(m, relations=(), ring: Ring = Z) -> list[Vector]:
    """Integer vectors generating {x : M x = 0} in the target modulo its
    relation rows over the ring, as column vectors; a basis of the kernel
    when there are no relations and the ring is Z or Q."""
    m = freeze(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return list(identity(cols))
    a = _quotient_matrix(m, relations, ring)
    _, d, v = smith_normal_form(a)
    diag = diagonal(d)
    basis = []
    for j in range(len(a[0])):
        if j >= len(diag) or diag[j] == 0:
            x = tuple(v[i][j] for i in range(cols))
            if any(x):
                basis.append(x)
    return basis


def solve_linear(m, b, ring: Ring, relations=()):
    """Solve M x = b over the ring, in the target modulo its relation rows;
    returns x as a tuple, or None exactly when no solution exists.

    The system of _quotient_matrix is solved over Z on plain ints (over Q
    for Q) and the x block is kept, reduced mod n over Z/n and F_p.
    """
    m = freeze(m)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if len(b) != rows:
        raise DimensionMismatch(
            f"rhs has length {len(b)}, matrix has {rows} rows")
    rational = ring.kind == RATIONALS
    if ring.is_finite:
        b = tuple(reduce(x, ring).value for x in b)
    else:
        b = tuple(Fraction(x) for x in b)
        if not rational:
            if any(x.denominator != 1 for x in b):
                return None
            b = tuple(x.numerator for x in b)
    if rows == 0:
        return (0,) * cols
    a = _quotient_matrix(m, relations, ring)
    u, d, v = smith_normal_form(a)
    diag = diagonal(d)
    y = [0] * len(a[0])
    for i, ci in enumerate(mat_vec(u, b)):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if ci:
                return None
        elif rational:
            y[i] = ci / di
        elif ci % di:
            return None
        else:
            y[i] = ci // di
    x = mat_vec(v[:cols], y)
    if rational:
        return tuple(Fraction(t) for t in x)
    if ring.is_finite:
        return tuple(t % ring.modulus for t in x)
    return x


# --- groups --------------------------------------------------------------------

@dataclass(frozen=True)
class FgAbelianGroup:
    """A finitely generated abelian group presented by labelled generators
    and an integer relation matrix (rows = relations, columns = generators).
    """

    generator_labels: tuple
    relations: Matrix = ()

    def __post_init__(self):
        object.__setattr__(self, "generator_labels",
                           tuple(self.generator_labels))
        object.__setattr__(self, "relations", freeze(self.relations))
        labels = self.generator_labels
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be unique")
        for row in self.relations:
            if len(row) != len(labels):
                raise DimensionMismatch("relation width != generator count")

    @property
    def ngens(self) -> int:
        return len(self.generator_labels)

    def structure(self) -> tuple[int, list[int]]:
        """(free rank, invariant factors d1 | d2 | ...) via Smith normal form."""
        if not self.relations:
            return self.ngens, []
        _, d, _ = smith_normal_form(self.relations)
        diag = diagonal(d)
        torsion = [x for x in diag if x not in (0, 1)]
        rank = self.ngens - sum(1 for x in diag if x != 0)
        return rank, torsion

    @property
    def is_free(self) -> bool:
        return self.structure()[1] == []

    def element(self, coords) -> "GroupElement":
        return GroupElement(self, tuple(coords))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.ngens)

    def is_zero(self, coords, ring: Ring) -> bool:
        """Does the coordinate vector represent 0 in the group over the ring?"""
        if len(coords) != self.ngens:
            raise DimensionMismatch("coordinate length != generator count")
        if not self.relations:   # each coordinate alone; the hot path
            if ring.is_finite:
                return all(reduce(x, ring).is_zero for x in coords)
            return all(Fraction(x) == 0 for x in coords)
        return solve_linear(((),) * self.ngens, coords, ring,
                            relations=self.relations) is not None

    def describe(self, coords) -> str:
        """Render coordinates against generator labels, e.g. "4*H - 8*beta"."""
        parts = []
        for c, label in zip(coords, self.generator_labels):
            if c == 0:
                continue
            if c == 1:
                parts.append(f"+ {label}")
            elif c == -1:
                parts.append(f"- {label}")
            elif c > 0:
                parts.append(f"+ {c}*{label}")
            else:
                parts.append(f"- {-c}*{label}")
        if not parts:
            return "0"
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


@dataclass(frozen=True)
class GroupElement:
    group: FgAbelianGroup
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if len(self.coords) != self.group.ngens:
            raise DimensionMismatch("coordinate length != generator count")

    def is_zero(self, ring: Ring) -> bool:
        return self.group.is_zero(self.coords, ring)

    def equals(self, other: "GroupElement", ring: Ring) -> bool:
        return self.group.is_zero(vec_sub(self.coords, other.coords), ring)

    def __str__(self):
        return self.group.describe(self.coords)


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism given by an integer matrix (columns = source generators).

    Construction checks that every source relation lands in the target's
    relation lattice, so the map is well defined on the quotient.
    """

    source: FgAbelianGroup
    target: FgAbelianGroup
    matrix: Matrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", freeze(self.matrix))
        if len(self.matrix) != self.target.ngens:
            raise DimensionMismatch("hom matrix rows != target generators")
        for row in self.matrix:
            if len(row) != self.source.ngens:
                raise DimensionMismatch("hom matrix cols != source generators")
        for relation in self.source.relations:
            image = mat_vec(self.matrix, relation)
            if not self.target.is_zero(image, Ring.integers()):
                raise ValueError(
                    "hom does not kill a source relation; not well defined")

    def apply(self, coords) -> GroupElement:
        return GroupElement(self.target, mat_vec(self.matrix, coords))


@dataclass(frozen=True)
class IntersectionForm:
    """A symmetric integer pairing on a free group."""

    group: FgAbelianGroup
    matrix: Matrix

    def __post_init__(self):
        object.__setattr__(self, "matrix", freeze(self.matrix))
        n = self.group.ngens
        if len(self.matrix) != n or any(len(r) != n for r in self.matrix):
            raise DimensionMismatch("form size != generator count")
        if self.matrix != transpose(self.matrix):
            raise ValueError("intersection form must be symmetric")
        if not self.group.is_free:
            raise TorsionGroup(
                "intersection pairing requires a torsion-free group")


def pair(form: IntersectionForm, x: GroupElement, y: GroupElement, ring: Ring):
    """Evaluate x^T * form * y and reduce into the ring."""
    if x.group != form.group or y.group != form.group:
        raise DimensionMismatch("pairing arguments live in the wrong group")
    total = 0
    for i, xi in enumerate(x.coords):
        if xi == 0:
            continue
        for j, yj in enumerate(y.coords):
            if yj == 0:
                continue
            total += xi * form.matrix[i][j] * yj
    return reduce(total, ring)
