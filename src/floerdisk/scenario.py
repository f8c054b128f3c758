"""Scenario data model: a Lagrangian (or a pair) with its homology groups,
connecting maps, intersection form, holomorphic-disk ledger and coefficient
choices, plus JSON ingestion and the built-in scenarios.

A scenario is pure combinatorial data.  Disk counts are inputs taken from the
literature; nothing here computes holomorphic curves.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import stat
from collections import namedtuple
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter

from .abelian import (FgAbelianGroup, GroupHom, IntersectionForm,
                      kernel_basis, mat_vec, solve_linear, vec_sub)
from .errors import (BadParams, DimensionMismatch, SchemaError, TorsionGroup,
                     UnknownScenario, ValidationError)
from .rings import PRIME_FIELD, Ring, rational_from, rational_str

Z = Ring.integers()
Lattice = namedtuple("Lattice", "k N")     # a side's lattice parameters
# the digest's text: compact, with keys in the sorted order tables write
_CANONICAL = json.JSONEncoder(separators=(",", ":"), check_circular=False)


@dataclass(frozen=True)
class AffineSubspace:
    """An affine subspace base + span over a prime field k.

    The base point fixes which coset is "the" subspace; coset_key labels
    the parallel cosets.  The reduced row-echelon form of the span over
    k is built once, off the dataclass fields, and serves every coset key.
    """

    field: Ring
    base: tuple
    span: tuple  # tuple of spanning vectors

    def __post_init__(self):
        if self.field.kind != PRIME_FIELD:
            raise ValidationError("subspace field must be a prime field")
        p = self.field.modulus
        object.__setattr__(self, "base", tuple(x % p for x in self.base))
        object.__setattr__(
            self, "span",
            tuple(tuple(x % p for x in row) for row in self.span))
        for row in self.span:
            if len(row) != len(self.base):
                raise DimensionMismatch("span vector width != ambient dim")
        # Gaussian elimination over F_p: rows with pivot 1, zero elsewhere
        # in the pivot column
        rows = [list(r) for r in self.span]
        echelon = []
        for col in range(self.ambient_dim):
            r = len(echelon)
            pivot = next((i for i in range(r, len(rows)) if rows[i][col]),
                         None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            inv = pow(rows[r][col], -1, p)
            rows[r] = [(x * inv) % p for x in rows[r]]
            for i in range(len(rows)):
                c = rows[i][col]
                if i != r and c:
                    rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[r])]
            echelon.append((col, tuple(rows[r])))
        object.__setattr__(self, "_echelon", tuple(echelon))

    @property
    def ambient_dim(self) -> int:
        return len(self.base)

    def contains(self, vector) -> bool:
        """Membership of an integer vector, read modulo the field."""
        return self.coset_key(vector) == self.coset_key(self.base)

    def coset_key(self, vector) -> tuple:
        """Canonical label of the span-coset containing the vector.

        Reduces the vector modulo the row-echelon form of the span over k,
        so two vectors get the same key iff they differ by a span element.
        """
        p = self.field.modulus
        v = [x % p for x in vector]
        for piv, row in self._echelon:
            c = v[piv]
            if c:
                v = [(x - c * y) % p for x, y in zip(v, row)]
        return tuple(v)


def _fraction(x) -> Fraction:
    """x itself when its type is exactly Fraction, else Fraction(x)."""
    return x if type(x) is Fraction else Fraction(x)


@dataclass(frozen=True)
class DiskClass:
    """One family of Maslov-index-2 disks through a generic point."""

    label: str
    rel_class: tuple      # coordinates in H2(X, L)
    boundary: tuple       # coordinates in H1(L)
    maslov: int
    area: Fraction
    count: int

    def __post_init__(self):
        object.__setattr__(self, "rel_class", tuple(self.rel_class))
        object.__setattr__(self, "boundary", tuple(self.boundary))
        object.__setattr__(self, "area", _fraction(self.area))
        if self.maslov % 2:
            raise ValidationError(f"disk {self.label}: odd Maslov index")
        if self.area <= 0:
            raise ValidationError(f"disk {self.label}: area must be positive")


@dataclass(frozen=True)
class DiskLedger:
    """The finite list of disk families, asserted complete for areas below
    the cutoff.  complete_below = None means complete at every area (the
    monotone case)."""

    disks: tuple
    complete_below: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "disks", tuple(self.disks))
        if self.complete_below is not None:
            object.__setattr__(self, "complete_below",
                               _fraction(self.complete_below))
        labels = [d.label for d in self.disks]
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate disk labels in ledger")
        if self.complete_below is not None:
            for d in self.disks:
                if d.area >= self.complete_below:
                    raise ValidationError(
                        f"disk {d.label}: area {d.area} not below ledger "
                        f"cutoff {self.complete_below}")
        # sorted once, kept off the dataclass fields so eq and repr ignore it;
        # deduped by identity (a build shares one Fraction per area row), then
        # by equal neighbours, so that no Fraction is hashed
        areas = sorted({id(d.area): d.area for d in self.disks}.values())
        object.__setattr__(self, "_levels", tuple(
            areas[:1] + [y for x, y in zip(areas, areas[1:]) if x != y]))

    @property
    def levels(self) -> list[Fraction]:
        return list(self._levels)

    def at_level(self, level) -> list[DiskClass]:
        level = Fraction(level)
        return [d for d in self.disks if d.area == level]


@dataclass(frozen=True)
class LagrangianSide:
    """One Lagrangian: its homology data, maps, ledger and options."""

    name: str
    h1: FgAbelianGroup
    h2_rel: FgAbelianGroup          # H2(X, L)
    j: GroupHom                     # H2(X) -> H2(X, L)
    bd: GroupHom                    # H2(X, L) -> H1(L)
    fundamental_class: tuple        # [L] in H2(X)
    ledger: DiskLedger
    monotone: bool = False
    monotonicity_constant: Fraction | None = None
    lattice_params: Lattice | None = None
    local_system: tuple | None = None        # sorted ((label, Fraction), ...)
    subspace: AffineSubspace | None = None
    asserted_invariant: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "fundamental_class",
                           tuple(self.fundamental_class))
        if self.monotonicity_constant is not None:
            object.__setattr__(self, "monotonicity_constant",
                               _fraction(self.monotonicity_constant))
        if self.lattice_params is not None:
            object.__setattr__(self, "lattice_params",
                               Lattice(*map(int, self.lattice_params)))
        if self.asserted_invariant is not None:
            object.__setattr__(self, "asserted_invariant",
                               tuple(self.asserted_invariant))
        if self.local_system is not None:
            object.__setattr__(
                self, "local_system",
                tuple(sorted((str(k), _fraction(v))
                             for k, v in dict(self.local_system).items())))

    @property
    def h2x(self) -> FgAbelianGroup:
        return self.j.source

    def local_system_dict(self) -> dict | None:
        return dict(self.local_system) if self.local_system is not None else None


@dataclass(frozen=True)
class Scenario:
    """One or two Lagrangian sides over a common ambient H2(X) and pairing."""

    h2x: FgAbelianGroup
    form: IntersectionForm
    sides: tuple
    ring: Ring

    def __post_init__(self):
        object.__setattr__(self, "sides", tuple(self.sides))
        if not 1 <= len(self.sides) <= 2:
            raise ValidationError("a scenario has one or two sides")
        for side in self.sides:
            # once per side object and H2(X); replace() drops the marker
            if getattr(side, "_valid_in", None) != self.h2x:
                _validate_side(self.h2x, side)
                object.__setattr__(side, "_valid_in", self.h2x)

    @property
    def side(self) -> LagrangianSide:
        return self.sides[0]

    def to_json_dict(self) -> dict:
        return _SCENARIO.write(self)

    def canonical_json(self) -> str:
        return _CANONICAL.encode(self.to_json_dict())

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def combine(first: Scenario, second: Scenario) -> Scenario:
    """Merge two one-sided scenarios over the same ambient data."""
    if (first.h2x != second.h2x or first.form.matrix != second.form.matrix):
        raise ValidationError(
            "cannot combine scenarios with different ambient homology or form")
    return Scenario(first.h2x, first.form,
                    first.sides + second.sides, first.ring)


# --- validation -----------------------------------------------------------

def _validate_side(h2x: FgAbelianGroup, side: LagrangianSide):
    if side.j.source != h2x:
        raise ValidationError(f"side {side.name}: j source is not H2(X)")
    if side.j.target != side.h2_rel:
        raise ValidationError(f"side {side.name}: j target is not H2(X,L)")
    if side.bd.source != side.h2_rel or side.bd.target != side.h1:
        raise ValidationError(f"side {side.name}: bd endpoints are wrong")
    if len(side.fundamental_class) != h2x.ngens:
        raise ValidationError(f"side {side.name}: fundamental class length")

    _check_exactness(side)

    # ledger invariants
    for disk in side.ledger.disks:
        if disk.maslov != 2:
            raise ValidationError(
                f"side {side.name}: disk {disk.label} has Maslov index "
                f"{disk.maslov}; only index 2 is supported")
        if len(disk.rel_class) != side.h2_rel.ngens:
            raise ValidationError(
                f"side {side.name}: disk {disk.label} class length")
        if len(disk.boundary) != side.h1.ngens:
            raise ValidationError(
                f"side {side.name}: disk {disk.label} boundary length")
        expected = mat_vec(side.bd.matrix, disk.rel_class)
        if not side.h1.is_zero(vec_sub(expected, disk.boundary), Z):
            raise ValidationError(
                f"side {side.name}: boundary mismatch for disk {disk.label}")

    _check_areas(side)

    if side.local_system is not None:
        keys = {k for k, _ in side.local_system}
        if keys != set(side.h1.generator_labels):
            raise ValidationError(
                f"side {side.name}: local system must assign a unit to every "
                f"H1 generator")

    if side.subspace is not None and side.subspace.ambient_dim != side.h1.ngens:
        raise ValidationError(
            f"side {side.name}: subspace ambient dimension != rank H1")

    if side.asserted_invariant is not None:
        if len(side.asserted_invariant) != h2x.ngens:
            raise ValidationError(
                f"side {side.name}: asserted invariant length")


def _check_areas(side: LagrangianSide):
    """_validate_side's checks of what a moves (every Maslov index is 2)."""
    if side.monotone:
        if side.monotonicity_constant is None:
            raise ValidationError(
                f"side {side.name}: monotone side needs its constant")
        for disk in side.ledger.disks:
            if disk.area != side.monotonicity_constant:
                raise ValidationError(
                    f"side {side.name}: disk {disk.label} violates "
                    f"area = (b/2) * maslov")
    elif side.ledger.disks and side.ledger.complete_below is None:
        # only monotonicity justifies an unbounded completeness claim
        raise ValidationError(
            f"side {side.name}: a non-monotone ledger needs a finite "
            f"completeness cutoff")
    if side.lattice_params is not None and min(side.lattice_params) < 1:
        raise ValidationError(
            f"side {side.name}: lattice parameters need k >= 1 and N >= 1")


def _check_exactness(side: LagrangianSide):
    """bd o j = 0 and ker bd = im j over Z: the Smith-normal-form part of
    side validation.  It reads j and bd alone, so it runs once per (j, bd)
    object pair; the loader and replace() make new objects, checked anew."""
    j, bd = side.j, side.bd
    if getattr(bd, "_exact_after", None) is j:
        return
    for column in zip(*j.matrix):
        if not bd.target.is_zero(mat_vec(bd.matrix, column), Z):
            raise ValidationError(f"side {side.name}: exactness (bd o j != 0)")
    for v in kernel_basis(bd.matrix, bd.target.relations):
        if solve_linear(j.matrix, v, Z, relations=j.target.relations) is None:
            raise ValidationError(
                f"side {side.name}: exactness (ker bd exceeds im j)")
    object.__setattr__(bd, "_exact_after", j)


# --- JSON documents ------------------------------------------------------------
#
# Each JSON object is declared once, as a table: the kind that reads and
# writes it.  A kind is a pair (read, write): read(value, path) checks a JSON
# value at its path and converts it, and write converts back (None: the
# value is written as it is).

Kind = namedtuple("Kind", "read write")
REQUIRED = object()

# What a document may hold.  Exact elimination grows its entries without
# bound, so these keep the slowest document admitted (dense, at every bound)
# under a second in validate, invariant and criterion.
MAX_GENERATORS = 8      # generators per group
MAX_RELATIONS = 8       # relation rows per group
MAX_DISKS = 32          # disks per side
MAX_INT_BITS = 32       # bit length of every integer, numerator, denominator
MAX_DOCUMENT_BYTES = 8 << 20   # length of a file read, before it is parsed


def _bounded(x: int, where: str, what: str = "an integer") -> int:
    """x, else a ValidationError at its JSON path when it has more than
    MAX_INT_BITS bits."""
    if x.bit_length() > MAX_INT_BITS:
        raise ValidationError(f"{where}: {what} of {x.bit_length()} bits; "
                              f"the limit is {MAX_INT_BITS} bits")
    return x


def _bounded_rational(x: Fraction, where: str) -> Fraction:
    """x, its numerator and its denominator each bounded as by _bounded."""
    _bounded(x.numerator, where, "a numerator")
    _bounded(x.denominator, where, "a denominator")
    return x


def _typed(json_type: type, expected: str, check=None):
    """The read of a JSON value of exactly that type (a bool is no int)."""
    def read(value, where):
        if type(value) is not json_type:
            raise SchemaError(f"{where}: expected {expected}, got {value!r}")
        return value if check is None else check(value, where)
    return read


def listof(kind: Kind, limit: int | None = None, what: str = "",
           too_many: str | None = None) -> Kind:
    """A JSON list of the kind's values, read as a tuple.  A list of more
    than limit entries is a ValidationError, counted before any entry is
    read: too_many, or the count at the path of the object that holds it."""
    read_item, write_item = kind

    def read(value, where):
        if type(value) is not list:
            raise SchemaError(f"{where}: expected a list, got {value!r}")
        if limit is not None and len(value) > limit:
            at = where.rpartition(".")[0] or where
            raise ValidationError(too_many or f"{at}: {len(value)} {what}; "
                                  f"the limit is {limit}")
        return tuple([read_item(x, f"{where}[{i}]")
                      for i, x in enumerate(value)])
    return Kind(read, list if write_item is None
                else lambda items: [write_item(x) for x in items])


def _checked(where: str, build, *args):
    """build(*args); a ValueError or shape error is a ValidationError at
    where (bare when where is empty)."""
    try:
        return build(*args)
    except (ValueError, DimensionMismatch, TorsionGroup) as exc:
        raise ValidationError(f"{where}: {exc}" if where else str(exc)) \
            from exc


def table(build, *rows) -> Kind:
    """The JSON object of the rows (key, field, kind, default): each key is
    read into build's argument `field` and written from the built object's
    attribute `field`.  A key not REQUIRED that is absent or null reads as
    its default: None, left out when written, or a JSON value for the kind.
    A row with key None derives its field from the fields before it.  The
    object's ValueErrors and shape errors are _checked at its path.  The
    object is written with its keys in sorted order."""
    written = sorted(row for row in rows if row[0] is not None)
    plan = [(key, write, default is None)
            for key, _, (_, write), default in written]
    fields_of = attrgetter(*(field for _, field, *_ in written))

    def read(data, path):
        _OBJECT(data, path or "document")
        fields = {}
        for key, field, (read_value, _), default in rows:
            value, where = data.get(key), f"{path}.{key}" if path else key
            if key is None:
                fields[field] = read_value(**fields)
            elif value is not None or key in data and default is REQUIRED:
                fields[field] = read_value(value, where)
            elif default is REQUIRED:
                raise SchemaError(f"{path or 'document'}: missing key {key!r}")
            else:   # absent or null
                fields[field] = (None if default is None
                                 else read_value(default, where))
        return build(**fields)

    def write(obj):
        return {key: value if write is None else write(value)
                for (key, write, optional), value in zip(plan, fields_of(obj))
                if value is not None or not optional}
    return Kind(lambda data, path: _checked(path, read, data, path), write)


_OBJECT = _typed(dict, "an object")
STRING = Kind(_typed(str, "a string"), None)
BOOL = Kind(_typed(bool, "true or false"), None)
INTEGER = Kind(_typed(int, "an integer", _bounded), None)
RATIONAL = Kind(lambda value, where: _bounded_rational(
    rational_from(value, where), where), rational_str)
_CUTOFF = Kind(lambda value, where: None if value == "inf"
               else RATIONAL.read(value, where),
               lambda x: "inf" if x is None else rational_str(x))
_RING = Kind(_typed(str, "a ring name", lambda name, _: Ring.parse(name)),
             lambda ring: ring.name)
_INTS = listof(INTEGER)
_MATRIX = listof(_INTS)
# a GroupHom or IntersectionForm, read as its matrix
_MAP = Kind(_MATRIX.read, lambda x: _MATRIX.write(x.matrix))
# a JSON object of rationals, read as (key, value) pairs
_LOCAL_SYSTEM = Kind(
    lambda value, where: tuple((k, RATIONAL.read(v, f"{where}.{k}"))
                               for k, v in _OBJECT(value, where).items()),
    lambda pairs: {k: rational_str(v) for k, v in pairs})
_GROUP = table(
    FgAbelianGroup,
    ("generators", "generator_labels",
     listof(STRING, MAX_GENERATORS, "generators"), REQUIRED),
    ("relations", "relations",
     listof(_INTS, MAX_RELATIONS, "relation rows"), []))
_DISK = table(
    DiskClass,
    ("label", "label", STRING, REQUIRED),
    ("rel_class", "rel_class", _INTS, REQUIRED),
    ("boundary", "boundary", _INTS, REQUIRED),
    ("maslov", "maslov", INTEGER, REQUIRED),
    ("area", "area", RATIONAL, REQUIRED),
    ("count", "count", INTEGER, REQUIRED))
_LEDGER = table(
    DiskLedger,
    ("complete_below", "complete_below", _CUTOFF, "inf"),
    ("disks", "disks", listof(_DISK, MAX_DISKS, "disks"), REQUIRED))
_SUBSPACE = table(
    AffineSubspace,
    ("field", "field", _RING, REQUIRED),
    ("base", "base", _INTS, REQUIRED),
    ("span", "span", _MATRIX, REQUIRED))
_LATTICE = table(
    Lattice, ("k", "k", INTEGER, REQUIRED), ("N", "N", INTEGER, REQUIRED))
# A side reads to its fields; _side builds it once H2(X) is known.
_SIDE = table(
    dict,
    ("name", "name", STRING, None),
    ("H1_L", "h1", _GROUP, REQUIRED),
    ("H2_XL", "h2_rel", _GROUP, REQUIRED),
    ("j", "j", _MAP, REQUIRED),
    ("bd", "bd", _MAP, REQUIRED),
    ("ledger", "ledger", _LEDGER, REQUIRED),
    ("subspace", "subspace", _SUBSPACE, None),
    ("local_system", "local_system", _LOCAL_SYSTEM, None),
    ("lattice_params", "lattice_params", _LATTICE, None),
    ("b", "monotonicity_constant", RATIONAL, None),
    ("monotone", "monotone", BOOL, False),
    ("asserted_invariant", "asserted_invariant", _INTS, None),
    ("fundamental_class", "fundamental_class", _INTS, REQUIRED))


def _side(h2x, index, name, h1, h2_rel, j, bd, **options) -> LagrangianSide:
    """The side of the fields _SIDE read, its maps built over H2(X)."""
    where = f"sides[{index}]"
    return LagrangianSide(
        name=f"side{index}" if name is None else name, h1=h1, h2_rel=h2_rel,
        j=_checked(where, GroupHom, h2x, h2_rel, j),
        bd=_checked(where, GroupHom, h2_rel, h1, bd), **options)


_SCENARIO = table(
    lambda ring, h2x, form, sides: Scenario(h2x, form, tuple(
        _side(h2x, i, **side) for i, side in enumerate(sides)), ring),
    ("ring", "ring", _RING, REQUIRED),
    ("H2_X", "h2x", _GROUP, REQUIRED),
    ("form", "form", _MAP, REQUIRED),
    # the form is checked as soon as it is read, before any side
    (None, "form", Kind(lambda h2x, form, **_: _checked(
        "form", IntersectionForm, h2x, form), None), None),
    ("sides", "sides",
     listof(_SIDE, 2, too_many="a scenario has one or two sides"), REQUIRED))


def decode_json(data):
    """The JSON value in bytes or text; bytes that are not UTF-8, text that
    is not JSON, holds an integer too long for int() or nests too deep for
    the parser are SchemaError.  Input longer than MAX_DOCUMENT_BYTES bytes
    (characters, for text) is a ValidationError, raised before parsing."""
    if len(data) > MAX_DOCUMENT_BYTES:
        unit = "characters" if isinstance(data, str) else "bytes"
        raise ValidationError(f"document: {len(data)} {unit}; the limit is "
                              f"{MAX_DOCUMENT_BYTES} {unit}")
    try:
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
        return json.loads(data)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc


def read_document(path) -> dict:
    """The JSON object in the regular file at path, by decode_json; another
    top level, such as a string, is a SchemaError.  A FIFO, socket or device
    is a ValidationError before it is opened, a file over MAX_DOCUMENT_BYTES
    bytes one before it is read; a missing path or a directory raises the
    OSError that stat or open gives it."""
    info = os.stat(path)
    if not (stat.S_ISREG(info.st_mode) or stat.S_ISDIR(info.st_mode)):
        raise ValidationError(f"{path}: not a regular file")
    if info.st_size > MAX_DOCUMENT_BYTES:
        raise ValidationError(f"document: {info.st_size} bytes; the limit is "
                              f"{MAX_DOCUMENT_BYTES} bytes")
    with open(path, "rb") as handle:
        document = decode_json(handle.read())
    if not isinstance(document, dict):
        raise SchemaError("top level must be a JSON object")
    return document


def load_scenario(document) -> Scenario:
    """Parse and fully validate a scenario document (bytes, str, or dict)."""
    if isinstance(document, (bytes, bytearray, str)):
        document = decode_json(document)
    return _SCENARIO.read(document, "")


# --- built-in scenarios ---------------------------------------------------
#
# One table entry per builtin.  Only the disk areas and the cutoff move with
# a, affinely: each is a pair (c0, c1) meaning c0 + c1*a.  Derived: j = [I; 0]
# (H2(X) comes first in H2(X,L)); bd sends the i-th other H2(X,L) generator
# to the i-th H1 generator; boundary = bd(rel_class); [L] = 0; Maslov 2.

_A, _THIRD, _HALF = (0, 1), (Fraction(1, 3), 0), (Fraction(1, 2), 0)
_T, _CL = ("dbeta", "dalpha"), ("db1", "db2")   # H1(L) of T_a, of Clifford


# ambient: (H2(X) generators, form, default ring); disks: rows (label,
# rel_class, count, area); cutoff: the completeness cutoff and constant: the
# monotonicity constant, both affine in a; lattice: (k, N); span: an F2
# subspace through 0; interval: the A_INTERVALS row.  The last six default
# to None.
_Builtin = namedtuple("_Builtin", "ambient side h1 h2_rel disks cutoff "
                      "constant lattice span asserted interval",
                      defaults=(None,) * 6)


_CP2 = (("H",), ((1,),), "Z/8")
_P1XP1 = (("H1", "H2"), ((0, 1), (1, 0)), "Z/4")
_BL3 = (("H1", "H2", "E1", "E2"),
        ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -1, 0), (0, 0, 0, -1)), "Z/2")

_TABLE = {
    # At a = 1/3 the levels a and (1-a)/2 merge: the torus is monotone.
    "cp2_ta": _Builtin(_CP2, "T_a", _T, ("H", "beta", "alpha"), (
        ("H-2b-a", (1, -2, -1), 1, _A),
        ("H-2b", (1, -2, 0), 2, _A),
        ("H-2b+a", (1, -2, 1), 1, _A),
        ("b", (0, 1, 0), 1, (Fraction(1, 2), Fraction(-1, 2)))),
        cutoff=(1, -2), lattice=(3, 2), interval=(0, Fraction(1, 3), True)),
    "cp2_clifford": _Builtin(_CP2, "T_Cl", _CL, ("H", "beta1", "beta2"), (
        ("b1", (0, 1, 0), 1, _THIRD),
        ("b2", (0, 0, 1), 1, _THIRD),
        ("H-b1-b2", (1, -1, -1), 1, _THIRD)),
        constant=_THIRD),
    "p1xp1_ta": _Builtin(_P1XP1, "That_a", _T, ("H1", "H2", "beta", "alpha"), (
        ("H1-b-a", (1, 0, -1, -1), 1, _A),
        ("H1-b", (1, 0, -1, 0), 1, _A),
        ("H2-b", (0, 1, -1, 0), 1, _A),
        ("H2-b+a", (0, 1, -1, 1), 1, _A),
        ("b", (0, 0, 1, 0), 1, (1, -1))),
        cutoff=(2, -3), lattice=(2, 1), span=((1, 0),),
        interval=(0, Fraction(1, 2), True)),
    "p1xp1_clifford": _Builtin(
        _P1XP1, "That_Cl", _CL, ("H1", "H2", "beta1", "beta2"), (
            ("b1", (0, 0, 1, 0), 1, _HALF),
            ("b2", (0, 0, 0, 1), 1, _HALF),
            ("H1-b1", (1, 0, -1, 0), 1, _HALF),
            ("H2-b2", (0, 1, 0, -1), 1, _HALF)),
        constant=_HALF, span=((0, 1),)),
    # The p1xp1 rows of area a and two area-1/2 disks.  The ledger stops
    # below 1-a, where the (monotone-partner) threshold argument takes over,
    # so the single area-(1-a) family is deliberately not listed.
    "bl3_ta": _Builtin(
        _BL3, "Tbar_a", _T, ("H1", "H2", "E1", "E2", "beta", "alpha"), (
            ("H1-b-a", (1, 0, 0, 0, -1, -1), 1, _A),
            ("H1-b", (1, 0, 0, 0, -1, 0), 1, _A),
            ("H2-b", (0, 1, 0, 0, -1, 0), 1, _A),
            ("H2-b+a", (0, 1, 0, 0, -1, 1), 1, _A),
            ("H1-E1+a", (1, 0, -1, 0, 0, 1), 1, _HALF),
            ("H2-E2-a", (0, 1, 0, -1, 0, -1), 1, _HALF)),
        cutoff=(1, -1), span=((1, 0),), interval=(0, Fraction(1, 2), False)),
    # No six-facet ledger is recorded here: the invariant with subspace is an
    # asserted input, so the side carries asserted_invariant instead of disks.
    "bl3_clifford": _Builtin(
        _BL3, "Tbar_Cl", _CL, ("H1", "H2", "E1", "E2"), (),
        constant=_HALF, span=((0, 1),), asserted=(0, 1, 0, 0)),
    # Cotangent-bundle picture of the p1xp1 torus: the beta disk crosses the
    # removed divisor and disappears; S is the zero-section, spanning im(j).
    "ts2_la": _Builtin(
        (("S",), ((-2,),), "Z/4"), "Lhat_a", _T, ("S", "beta", "alpha"), (
            ("S-b-a", (1, -1, -1), 1, _A),
            ("S-b", (1, -1, 0), 1, _A),
            ("-b", (0, -1, 0), 1, _A),
            ("-b+a", (0, -1, 1), 1, _A)),
        constant=_A, span=((1, 0),), interval=(0, Fraction(10 ** 9), False)),
    # Cotangent-bundle picture of the CP^2 torus.  H2(T*RP^2; Z/8) has two
    # elements, generated by 4*[RP2]; the free rank-one bookkeeping group
    # keeps 4*[RP2] nonzero (of order two) mod 8.  The pairing is trivial.
    "trp2_la": _Builtin(
        (("RP2",), ((0,),), "Z/8"), "L_a", _T, ("u", "beta", "alpha"), (
            ("u-2b-a", (1, -2, -1), 1, _A),
            ("u-2b", (1, -2, 0), 2, _A),
            ("u-2b+a", (1, -2, 1), 1, _A)),
        constant=_A, interval=(0, Fraction(10 ** 9), False)),
}

BUILTIN_NAMES = tuple(_TABLE)

# Parametric builtins: a in (low, high), or a = high if the flag is set:
# the monotone end of the family (no cutoff, constant a, no lattice).
A_INTERVALS = {name: entry.interval
               for name, entry in _TABLE.items() if entry.interval}


def _make_topology(entry: _Builtin) -> tuple:
    """(H2(X), form, ring, side template, _disk_rows): all that an entry
    fixes for every a, so that sides from one template share (j, bd)."""
    gens, form, ring = entry.ambient
    h2x, h1 = FgAbelianGroup(gens), FgAbelianGroup(entry.h1)
    h2_rel = FgAbelianGroup(entry.h2_rel)
    n, m = len(gens), len(entry.h2_rel)
    j = tuple(tuple(int(r == c) for c in range(n)) for r in range(m))
    bd = tuple(tuple(int(c == n + r) for c in range(m))
               for r in range(len(entry.h1)))
    template = LagrangianSide(
        name=entry.side, h1=h1, h2_rel=h2_rel, j=GroupHom(h2x, h2_rel, j),
        bd=GroupHom(h2_rel, h1, bd), fundamental_class=(0,) * n,
        ledger=DiskLedger(()), asserted_invariant=entry.asserted,
        subspace=(AffineSubspace(Ring.prime_field(2), (0,) * len(entry.h1),
                                 entry.span) if entry.span else None))
    return (h2x, IntersectionForm(h2x, form), Ring.parse(ring), template,
            _disk_rows(entry, bd))


def _disk_rows(entry: _Builtin, bd) -> tuple:
    """(affine rows, disk rows): the distinct area rows, the cutoff and the
    constant; a disk row is (label, rel_class, boundary, count, area row)."""
    areas = tuple(dict.fromkeys(area for *_, area in entry.disks))
    return (*areas, entry.cutoff, entry.constant), tuple(
        (label, rel, mat_vec(bd, rel), count, areas.index(area))
        for label, rel, count, area in entry.disks)


@functools.cache
def _topology(name: str) -> tuple:
    return _make_topology(_TABLE[name])


def _make_side(entry: _Builtin, template: LagrangianSide, rows: tuple,
               a: Fraction) -> LagrangianSide:
    """The entry's side at a (any value for a fixed entry) from its template
    and rows, each affine row taken once.  Only the first side built from
    them is validated in full; the others need only _check_areas."""
    top = entry.interval is not None and a == entry.interval[1]
    affine, disk_rows = rows
    *at, cutoff, constant = [None if r is None else r[0] if not r[1]
                             else r[0] + r[1] * a for r in affine]
    disks = tuple(DiskClass(label, rel, boundary, 2, at[i], count)
                  for label, rel, boundary, count, i in disk_rows)
    if top:
        cutoff, constant = None, a
    side = replace(template, name=entry.side, ledger=DiskLedger(disks, cutoff),
                   monotone=constant is not None,
                   monotonicity_constant=constant,
                   lattice_params=None if top else entry.lattice)
    if getattr(template, "_valid_rows", None) is rows:
        _check_areas(side)
    else:   # a refused side leaves the template unmarked
        _validate_side(template.h2x, side)
        object.__setattr__(template, "_valid_rows", rows)
    object.__setattr__(side, "_valid_in", template.h2x)
    return side


def check_a(name: str, a: Fraction) -> None:
    """BadParams unless a lies in the parametric builtin's A_INTERVALS row."""
    low, high, top_allowed = A_INTERVALS[name]
    if not (low < a < high or (top_allowed and a == high)):
        bracket = "]" if top_allowed else ")"
        raise BadParams(f"a = {a} outside ({low}, {high}{bracket}")


def builtin_row(name: str, value: Fraction, a: Fraction) -> tuple:
    """The row (c0, c1) of the parametric builtin, a disk area, its cutoff
    or its constant, that is worth value at a inside its open interval; no
    two rows cross there, so that one row gives the value at every a."""
    affine, _ = _topology(name)[-1]
    return next(r for r in affine if r is not None and r[0] + r[1] * a == value)


def builtin_scenario(name: str, params=None) -> Scenario:
    """Construct one of the built-in scenarios by name.

    The builtins in A_INTERVALS take exactly one exact rational parameter,
    a, inside their interval; the others (monotone partners) take none.
    """
    if name not in _TABLE:
        raise UnknownScenario(
            f"unknown scenario {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    params = dict(params or {})
    a = params.pop("a", None) if name in A_INTERVALS else 0
    if params:
        raise BadParams(f"unexpected parameters: {sorted(params)}")
    if a is None:
        raise BadParams("this scenario needs the exact rational parameter a")
    a = _fraction(a)
    if name in A_INTERVALS:
        check_a(name, a)
    h2x, form, ring, *template = _topology(name)
    return Scenario(h2x, form, (_make_side(_TABLE[name], *template, a),), ring)


def sphere_pair(a, b, k: int) -> Scenario:
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

    def entry(name, s, area):
        if k * area >= 1:
            raise BadParams(f"parameter {area} too large for k = {k}")
        # ts2-style rows on the sphere s; the cutoff is area + (1 - k*area)
        return _Builtin(
            (("S", "Sp"), ((-2, 1), (1, -2)), "Z/2"), name, _T,
            ("S", "Sp", "beta", "alpha"), (
                ("S-b-a", s + (-1, -1), 1, _A),
                ("S-b", s + (-1, 0), 1, _A),
                ("-b", (0, 0, -1, 0), 1, _A),
                ("-b+a", (0, 0, -1, 1), 1, _A)),
            cutoff=(1, 1 - k), lattice=(k, 1), span=((1, 0),))

    first, second = entry("T_a", (1, 0), a), entry("T'_b", (0, 1), b)
    h2x, form, ring, template, _ = _make_topology(first)
    return Scenario(h2x, form, tuple(
        _make_side(e, template, _disk_rows(e, template.bd.matrix), x)
        for e, x in ((first, a), (second, b))), ring)
