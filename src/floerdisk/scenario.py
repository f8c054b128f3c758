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
from dataclasses import dataclass, replace
from fractions import Fraction

from .abelian import (FgAbelianGroup, GroupHom, IntersectionForm,
                      kernel_basis, mat_vec, solve_linear, vec_sub)
from .errors import (BadParams, DimensionMismatch, SchemaError, TorsionGroup,
                     UnknownScenario, ValidationError)
from .rings import PRIME_FIELD, Ring, rational_from, rational_str

Z = Ring.integers()


@dataclass(frozen=True)
class AffineSubspace:
    """An affine subspace base + span over a prime field k.

    The base point fixes which coset is "the" subspace; parallel cosets are
    produced with shifted(l).  The reduced row-echelon form of the span over
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

    def shifted(self, l) -> "AffineSubspace":
        return AffineSubspace(self.field, tuple(b + x for b, x in zip(self.base, l)),
                              self.span)

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
        object.__setattr__(self, "area", Fraction(self.area))
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
                               Fraction(self.complete_below))
        labels = [d.label for d in self.disks]
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate disk labels in ledger")
        if self.complete_below is not None:
            for d in self.disks:
                if d.area >= self.complete_below:
                    raise ValidationError(
                        f"disk {d.label}: area {d.area} not below ledger "
                        f"cutoff {self.complete_below}")

    @property
    def levels(self) -> list[Fraction]:
        return sorted({d.area for d in self.disks})

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
    lattice_params: tuple | None = None      # (k, N)
    local_system: tuple | None = None        # sorted ((label, Fraction), ...)
    subspace: AffineSubspace | None = None
    asserted_invariant: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "fundamental_class",
                           tuple(self.fundamental_class))
        if self.monotonicity_constant is not None:
            object.__setattr__(self, "monotonicity_constant",
                               Fraction(self.monotonicity_constant))
        if self.lattice_params is not None:
            k, n = self.lattice_params
            object.__setattr__(self, "lattice_params", (int(k), int(n)))
        if self.asserted_invariant is not None:
            object.__setattr__(self, "asserted_invariant",
                               tuple(self.asserted_invariant))
        if self.local_system is not None:
            object.__setattr__(
                self, "local_system",
                tuple(sorted((str(k), Fraction(v))
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
        return _scenario_to_dict(self)

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True,
                          separators=(",", ":"))

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

    if side.monotone:
        if side.monotonicity_constant is None:
            raise ValidationError(
                f"side {side.name}: monotone side needs its constant")
        for disk in side.ledger.disks:
            if disk.area != side.monotonicity_constant * disk.maslov / 2:
                raise ValidationError(
                    f"side {side.name}: disk {disk.label} violates "
                    f"area = (b/2) * maslov")
    elif side.ledger.disks and side.ledger.complete_below is None:
        # only monotonicity justifies an unbounded completeness claim
        raise ValidationError(
            f"side {side.name}: a non-monotone ledger needs a finite "
            f"completeness cutoff")

    if side.local_system is not None:
        keys = {k for k, _ in side.local_system}
        if keys != set(side.h1.generator_labels):
            raise ValidationError(
                f"side {side.name}: local system must assign a unit to every "
                f"H1 generator")

    if side.lattice_params is not None and min(side.lattice_params) < 1:
        raise ValidationError(
            f"side {side.name}: lattice parameters need k >= 1 and N >= 1")

    if side.subspace is not None and side.subspace.ambient_dim != side.h1.ngens:
        raise ValidationError(
            f"side {side.name}: subspace ambient dimension != rank H1")

    if side.asserted_invariant is not None:
        if len(side.asserted_invariant) != h2x.ngens:
            raise ValidationError(
                f"side {side.name}: asserted invariant length")


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


# --- JSON ingestion ----------------------------------------------------------
#
# Top-level schema (UTF-8 JSON):
#   {"ring": "Z/8",
#    "H2_X": {"generators": [str], "relations": [[int]]},
#    "form": [[int]],
#    "sides": [{"name": str,
#               "H1_L": {...}, "H2_XL": {...},
#               "j": [[int]], "bd": [[int]],
#               "fundamental_class": [int],
#               "monotone": bool, "b": "p/q"?,
#               "lattice_params": {"k": int, "N": int}?,
#               "local_system": {gen: "unit"}?,
#               "subspace": {"field": "F2", "base": [int], "span": [[int]]}?,
#               "asserted_invariant": [int]?,
#               "ledger": {"complete_below": "p/q" | "inf",
#                          "disks": [{"label": str, "rel_class": [int],
#                                     "boundary": [int], "maslov": int,
#                                     "area": "p/q", "count": int}]}}]}

def _need(mapping, key, kind, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"{where}: key {key!r} has wrong type")
    return value


def _int(mapping, key, where) -> int:
    """The JSON integer under the key, else a SchemaError at its path."""
    value = _need(mapping, key, None, where)
    if type(value) is not int:
        raise SchemaError(f"{where}.{key}: expected an integer, got {value!r}")
    return value


# What a document may hold.  Exact elimination grows its entries without
# bound, so these keep the slowest document admitted (dense, at every bound)
# under a second in validate, invariant and criterion.
MAX_GENERATORS = 8      # generators per group
MAX_RELATIONS = 8       # relation rows per group
MAX_DISKS = 32          # disks per side
MAX_INT_BITS = 32       # bit length of every integer entry of a list


def _at_most(items, limit: int, what: str, where: str):
    if len(items) > limit:
        raise ValidationError(
            f"{where}: {len(items)} {what}; the limit is {limit}")
    return items


def _ints(value, where, depth=1) -> tuple:
    """A JSON list of ints (depth 1), or a list of such rows (depth 2), as
    tuples; a float, bool, string or other entry is a SchemaError at its
    JSON path, an entry of more than MAX_INT_BITS bits a ValidationError."""
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list, got {value!r}")
    if depth > 1:
        return tuple(_ints(row, f"{where}[{i}]", depth - 1)
                     for i, row in enumerate(value))
    for i, x in enumerate(value):
        if type(x) is not int:
            raise SchemaError(f"{where}[{i}]: expected an integer, got {x!r}")
        if x.bit_length() > MAX_INT_BITS:
            raise ValidationError(
                f"{where}[{i}]: an integer of {x.bit_length()} bits; the "
                f"limit is {MAX_INT_BITS} bits")
    return tuple(value)


def _group_from_dict(data, where) -> FgAbelianGroup:
    gens = _at_most(_need(data, "generators", list, where), MAX_GENERATORS,
                    "generators", where)
    relations = _at_most(
        _ints(data.get("relations", []), f"{where}.relations", 2),
        MAX_RELATIONS, "relation rows", where)
    try:
        return FgAbelianGroup(tuple(str(g) for g in gens), relations)
    except (ValueError, DimensionMismatch) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _side_from_dict(h2x, data, index) -> LagrangianSide:
    where = f"sides[{index}]"
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: a side must be a JSON object")
    name = str(data.get("name", f"side{index}"))
    h1 = _group_from_dict(_need(data, "H1_L", dict, where), f"{where}.H1_L")
    h2_rel = _group_from_dict(_need(data, "H2_XL", dict, where),
                              f"{where}.H2_XL")
    try:
        j = GroupHom(h2x, h2_rel,
                     _ints(_need(data, "j", list, where), f"{where}.j", 2))
        bd = GroupHom(h2_rel, h1,
                      _ints(_need(data, "bd", list, where), f"{where}.bd", 2))
    except (ValueError, DimensionMismatch) as exc:
        raise ValidationError(f"{where}: {exc}") from exc

    ledger_data = _need(data, "ledger", dict, where)
    cutoff_raw = ledger_data.get("complete_below")
    if cutoff_raw in (None, "inf"):
        cutoff = None
    else:
        cutoff = rational_from(cutoff_raw, f"{where}.ledger")
    disks = []
    disks_data = _at_most(_need(ledger_data, "disks", list, f"{where}.ledger"),
                          MAX_DISKS, "disks", f"{where}.ledger")
    for di, disk_data in enumerate(disks_data):
        dwhere = f"{where}.ledger.disks[{di}]"
        disks.append(DiskClass(
            label=str(_need(disk_data, "label", str, dwhere)),
            rel_class=_ints(_need(disk_data, "rel_class", list, dwhere),
                            f"{dwhere}.rel_class"),
            boundary=_ints(_need(disk_data, "boundary", list, dwhere),
                           f"{dwhere}.boundary"),
            maslov=_int(disk_data, "maslov", dwhere),
            area=rational_from(_need(disk_data, "area", None, dwhere), dwhere),
            count=_int(disk_data, "count", dwhere),
        ))
    ledger = DiskLedger(tuple(disks), cutoff)

    subspace = None
    if data.get("subspace") is not None:
        sub = data["subspace"]
        swhere = f"{where}.subspace"
        try:
            field = Ring.parse(str(_need(sub, "field", str, swhere)))
            subspace = AffineSubspace(
                field,
                _ints(_need(sub, "base", list, swhere), f"{swhere}.base"),
                _ints(_need(sub, "span", list, swhere), f"{swhere}.span", 2))
        except (ValueError, DimensionMismatch) as exc:
            raise ValidationError(f"{swhere}: {exc}") from exc

    local_system = None
    if data.get("local_system") is not None:
        local_system = tuple(
            (str(k), rational_from(v, f"{where}.local_system"))
            for k, v in _need(data, "local_system", dict, where).items())

    lattice = None
    if data.get("lattice_params") is not None:
        lp = data["lattice_params"]
        lattice = (_int(lp, "k", f"{where}.lattice_params"),
                   _int(lp, "N", f"{where}.lattice_params"))

    constant = None
    if data.get("b") is not None:
        constant = rational_from(data["b"], where)

    monotone = data.get("monotone", False)
    if type(monotone) is not bool:
        raise SchemaError(
            f"{where}.monotone: expected true or false, got {monotone!r}")

    asserted = None
    if data.get("asserted_invariant") is not None:
        asserted = _ints(data["asserted_invariant"],
                         f"{where}.asserted_invariant")

    return LagrangianSide(
        name=name, h1=h1, h2_rel=h2_rel, j=j, bd=bd,
        fundamental_class=_ints(_need(data, "fundamental_class", list, where),
                                f"{where}.fundamental_class"),
        ledger=ledger,
        monotone=monotone,
        monotonicity_constant=constant,
        lattice_params=lattice,
        local_system=local_system,
        subspace=subspace,
        asserted_invariant=asserted,
    )


def decode_json(data):
    """The JSON value in bytes or text; bytes that are not UTF-8, text that
    is not JSON, holds an integer too long for int() or nests too deep for
    the parser are SchemaError."""
    try:
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
        return json.loads(data)
    except UnicodeDecodeError as exc:
        raise SchemaError(f"not UTF-8: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc


def load_scenario(document) -> Scenario:
    """Parse and fully validate a scenario document (bytes, str, or dict)."""
    if isinstance(document, (bytes, bytearray, str)):
        document = decode_json(document)
    if not isinstance(document, dict):
        raise SchemaError("top level must be a JSON object")

    try:
        ring = Ring.parse(str(_need(document, "ring", str, "document")))
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    h2x = _group_from_dict(_need(document, "H2_X", dict, "document"), "H2_X")
    try:
        form = IntersectionForm(
            h2x, _ints(_need(document, "form", list, "document"), "form", 2))
    except (ValueError, DimensionMismatch, TorsionGroup) as exc:
        raise ValidationError(f"form: {exc}") from exc

    sides_data = _need(document, "sides", list, "document")
    if not 1 <= len(sides_data) <= 2:
        raise ValidationError("a scenario has one or two sides")
    sides = tuple(_side_from_dict(h2x, side, i)
                  for i, side in enumerate(sides_data))
    return Scenario(h2x, form, sides, ring)


def _scenario_to_dict(scenario: Scenario) -> dict:
    def group_dict(g):
        return {"generators": list(g.generator_labels),
                "relations": [list(r) for r in g.relations]}

    sides = []
    for side in scenario.sides:
        entry = {
            "name": side.name,
            "H1_L": group_dict(side.h1),
            "H2_XL": group_dict(side.h2_rel),
            "j": [list(r) for r in side.j.matrix],
            "bd": [list(r) for r in side.bd.matrix],
            "fundamental_class": list(side.fundamental_class),
            "monotone": side.monotone,
            "ledger": {
                "complete_below": ("inf" if side.ledger.complete_below is None
                                   else rational_str(side.ledger.complete_below)),
                "disks": [{
                    "label": d.label,
                    "rel_class": list(d.rel_class),
                    "boundary": list(d.boundary),
                    "maslov": d.maslov,
                    "area": rational_str(d.area),
                    "count": d.count,
                } for d in side.ledger.disks],
            },
        }
        if side.monotonicity_constant is not None:
            entry["b"] = rational_str(side.monotonicity_constant)
        if side.lattice_params is not None:
            entry["lattice_params"] = {"k": side.lattice_params[0],
                                       "N": side.lattice_params[1]}
        if side.local_system is not None:
            entry["local_system"] = {k: rational_str(v)
                                     for k, v in side.local_system}
        if side.subspace is not None:
            entry["subspace"] = {"field": side.subspace.field.name,
                                 "base": list(side.subspace.base),
                                 "span": [list(r) for r in side.subspace.span]}
        if side.asserted_invariant is not None:
            entry["asserted_invariant"] = list(side.asserted_invariant)
        sides.append(entry)

    return {
        "ring": scenario.ring.name,
        "H2_X": group_dict(scenario.h2x),
        "form": [list(r) for r in scenario.form.matrix],
        "sides": sides,
    }


# --- built-in scenarios ---------------------------------------------------
#
# One table entry per builtin.  Only the disk areas and the cutoff move with
# a, affinely: each is a pair (c0, c1) meaning c0 + c1*a.  Derived: j = [I; 0]
# (H2(X) comes first in H2(X,L)); bd sends the i-th other H2(X,L) generator
# to the i-th H1 generator; boundary = bd(rel_class); [L] = 0; Maslov 2.

_A, _THIRD, _HALF = (0, 1), (Fraction(1, 3), 0), (Fraction(1, 2), 0)
_T, _CL = ("dbeta", "dalpha"), ("db1", "db2")   # H1(L) of T_a, of Clifford


@dataclass(frozen=True)
class _Builtin:
    ambient: tuple               # (H2(X) generators, form, default ring)
    side: str
    h1: tuple
    h2_rel: tuple
    disks: tuple                 # rows (label, rel_class, count, area)
    cutoff: tuple | None = None      # completeness cutoff, affine in a
    constant: tuple | None = None    # monotonicity constant, affine in a
    lattice: tuple | None = None     # (k, N)
    span: tuple | None = None        # F2 subspace through 0
    asserted: tuple | None = None
    interval: tuple | None = None    # the A_INTERVALS row


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
    """(H2(X), form, ring, side template): all that an entry fixes for every
    a.  Sides from one template share (j, bd), so exactness is checked once."""
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
    return h2x, IntersectionForm(h2x, form), Ring.parse(ring), template


@functools.cache
def _topology(name: str) -> tuple:
    return _make_topology(_TABLE[name])


def _make_side(entry: _Builtin, template: LagrangianSide,
               a: Fraction) -> LagrangianSide:
    """The entry's side at a (any value for a fixed entry)."""
    top = entry.interval is not None and a == entry.interval[1]

    def at(value):
        return None if value is None else value[0] + value[1] * a

    disks = tuple(DiskClass(label, rel, mat_vec(template.bd.matrix, rel), 2,
                            at(area), count)
                  for label, rel, count, area in entry.disks)
    constant = a if top else at(entry.constant)
    cutoff = None if top else at(entry.cutoff)
    return replace(template, name=entry.side,
                   ledger=DiskLedger(disks, cutoff),
                   monotone=constant is not None,
                   monotonicity_constant=constant,
                   lattice_params=None if top else entry.lattice)


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
    entry = _TABLE[name]
    rows = [area for *_, area in entry.disks] + [entry.cutoff, entry.constant]
    return next(r for r in rows if r is not None and r[0] + r[1] * a == value)


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
    a = Fraction(a)
    if name in A_INTERVALS:
        check_a(name, a)
    h2x, form, ring, template = _topology(name)
    return Scenario(h2x, form, (_make_side(_TABLE[name], template, a),), ring)


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
    h2x, form, ring, template = _make_topology(first)
    return Scenario(h2x, form, (_make_side(first, template, a),
                                _make_side(second, template, b)), ring)
