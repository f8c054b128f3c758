"""Scenario data model: a Lagrangian (or a pair) with its homology groups,
connecting maps, intersection form, holomorphic-disk ledger and coefficient
choices, plus JSON ingestion and the built-in scenarios.

A scenario is pure combinatorial data.  Disk counts are inputs taken from the
literature; nothing here computes holomorphic curves.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from .abelian import (FgAbelianGroup, GroupElement, GroupHom,
                      IntersectionForm, kernel_basis, solve_linear)
from .errors import (BadParams, DimensionMismatch, SchemaError, UnknownScenario,
                     ValidationError)
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

    def fundamental_element(self) -> GroupElement:
        return GroupElement(self.h2x, self.fundamental_class)


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

    # bd o j = 0
    for i in range(h2x.ngens):
        unit = tuple(1 if t == i else 0 for t in range(h2x.ngens))
        image = side.bd.apply(side.j.apply(unit))
        if not image.is_zero(Z):
            raise ValidationError(f"side {side.name}: exactness (bd o j != 0)")

    # ker bd = im j, as subgroups of H2(X,L) over Z
    for v in kernel_basis(side.bd.matrix, side.h1.relations):
        if solve_linear(side.j.matrix, v, Z,
                        relations=side.h2_rel.relations) is None:
            raise ValidationError(
                f"side {side.name}: exactness (ker bd exceeds im j)")

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
        expected = side.bd.apply(disk.rel_class)
        if not expected.equals(GroupElement(side.h1, disk.boundary), Z):
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


def _ints(value, where, depth=1) -> tuple:
    """A JSON list of ints (depth 1), or a list of such rows (depth 2), as
    tuples; a float, bool, string or other entry is a SchemaError at its
    JSON path."""
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list, got {value!r}")
    if depth > 1:
        return tuple(_ints(row, f"{where}[{i}]", depth - 1)
                     for i, row in enumerate(value))
    for i, x in enumerate(value):
        if type(x) is not int:
            raise SchemaError(f"{where}[{i}]: expected an integer, got {x!r}")
    return tuple(value)


def _group_from_dict(data, where) -> FgAbelianGroup:
    gens = _need(data, "generators", list, where)
    relations = _ints(data.get("relations", []), f"{where}.relations", 2)
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
    for di, disk_data in enumerate(_need(ledger_data, "disks", list,
                                         f"{where}.ledger")):
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


def load_scenario(document) -> Scenario:
    """Parse and fully validate a scenario document (bytes, str, or dict)."""
    if isinstance(document, (bytes, bytearray)):
        document = document.decode("utf-8")
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"not valid JSON: {exc}") from exc
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
    except (ValueError, DimensionMismatch) as exc:
        raise ValidationError(f"form: {exc}") from exc

    sides_data = _need(document, "sides", list, "document")
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

BUILTIN_NAMES = ("cp2_ta", "cp2_clifford", "p1xp1_ta", "p1xp1_clifford",
                 "bl3_ta", "bl3_clifford", "ts2_la", "trp2_la")

F2 = Ring.prime_field(2)


# The parametric builtins.  a must lie in the open interval (low, high), on
# which every disk area is affine in a; top_allowed also admits a = high,
# where the family ends at a monotone torus with a different ledger.
A_INTERVALS = {
    "cp2_ta": (Fraction(0), Fraction(1, 3), True),
    "p1xp1_ta": (Fraction(0), Fraction(1, 2), True),
    "bl3_ta": (Fraction(0), Fraction(1, 2), False),
    "ts2_la": (Fraction(0), Fraction(10 ** 9), False),
    "trp2_la": (Fraction(0), Fraction(10 ** 9), False),
}


def _cp2_ambient():
    h2x = FgAbelianGroup(("H",))
    return h2x, IntersectionForm(h2x, ((1,),))


def _cp2_ta(a):
    # Disk data: four index-2 families, three of area a with boundaries
    # -2*dbeta + {-1,0,1}*dalpha (counts 1,2,1) and one of area (1-a)/2 with
    # boundary dbeta.  At a = 1/3 the two levels merge and the torus is
    # monotone.
    h2x, form = _cp2_ambient()
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


def _cp2_clifford():
    h2x, form = _cp2_ambient()
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


def _p1xp1_ambient():
    h2x = FgAbelianGroup(("H1", "H2"))
    return h2x, IntersectionForm(h2x, ((0, 1), (1, 0)))


def _p1xp1_ta(a):
    h2x, form = _p1xp1_ambient()
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


def _p1xp1_clifford():
    h2x, form = _p1xp1_ambient()
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


def _bl3_ambient():
    h2x = FgAbelianGroup(("H1", "H2", "E1", "E2"))
    form = IntersectionForm(h2x, ((0, 1, 0, 0), (1, 0, 0, 0),
                                  (0, 0, -1, 0), (0, 0, 0, -1)))
    return h2x, form


def _bl3_ta(a):
    # Same four least-area families as the p1xp1 torus, plus the two extra
    # area-1/2 disks with boundaries +-dalpha whose classes sum to
    # H1+H2-E1-E2.  The ledger stops below 1-a: that level is where the
    # (monotone-partner) threshold argument takes over, so the single
    # area-(1-a) family is deliberately not listed.
    h2x, form = _bl3_ambient()
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


def _bl3_clifford():
    # No six-facet ledger is recorded here: the invariant with subspace is an
    # asserted input, so the side carries asserted_invariant instead of disks.
    h2x, form = _bl3_ambient()
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


def _ts2_la(a):
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


def _trp2_la(a):
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


_BUILTINS = {
    "cp2_ta": _cp2_ta,
    "cp2_clifford": _cp2_clifford,
    "p1xp1_ta": _p1xp1_ta,
    "p1xp1_clifford": _p1xp1_clifford,
    "bl3_ta": _bl3_ta,
    "bl3_clifford": _bl3_clifford,
    "ts2_la": _ts2_la,
    "trp2_la": _trp2_la,
}


def builtin_scenario(name: str, params=None) -> Scenario:
    """Construct one of the built-in scenarios by name.

    The builtins in A_INTERVALS take exactly one exact rational parameter,
    a, inside their interval; the others (monotone partners) take none.
    """
    if name not in _BUILTINS:
        raise UnknownScenario(
            f"unknown scenario {name!r}; choose from {', '.join(BUILTIN_NAMES)}")
    params = dict(params or {})
    a = params.pop("a", None) if name in A_INTERVALS else None
    if params:
        raise BadParams(f"unexpected parameters: {sorted(params)}")
    if name not in A_INTERVALS:
        return _BUILTINS[name]()
    if a is None:
        raise BadParams("this scenario needs the exact rational parameter a")
    a = Fraction(a)
    low, high, top_allowed = A_INTERVALS[name]
    if not (low < a < high or (top_allowed and a == high)):
        bracket = "]" if top_allowed else ")"
        raise BadParams(f"a = {a} outside ({low}, {high}{bracket}")
    return _BUILTINS[name](a)


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
