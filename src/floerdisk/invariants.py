"""Area spectra, cancellation conditions, and low-area string invariants.

The string invariant of a side is the lift through j of the signed sum of
its least-area disk classes with homologically nontrivial boundary, defined
up to the fundamental class [L].  Everything is computed over an explicit
coefficient ring; the disk-selection rule ("boundary nonzero") is always
tested over Z, regardless of the ring the sums live in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .abelian import GroupElement, kernel_basis, solve_linear, vec_sub
from .errors import (CancellationFails, HypothesisViolated, InsufficientLedger,
                     MissingLocalSystem, NoLift, ValidationError,
                     WeightTooLarge)
from .rings import Ring, rational_str, reduce
from .scenario import AffineSubspace, LagrangianSide

Z = Ring.integers()

# A power value ** coord in a local-system weight over Z or Q is refused
# before it is taken when its numerator or denominator would surely pass
# this many bits, |coord| * (bit length - 1).  An accepted one has under
# twice as many, well inside Python's 4300-digit int-to-str limit.
WEIGHT_BIT_LIMIT = 4096


# --- area spectrum ------------------------------------------------------------

@dataclass(frozen=True)
class Progression:
    """The arithmetic progression base + step * Z of admissible disk areas."""

    base: Fraction
    step: Fraction

    @property
    def bound(self) -> Fraction:
        return self.base + self.step

    def contains(self, x) -> bool:
        return ((Fraction(x) - self.base) / self.step).denominator == 1


def area_progression(k: int, n: int, a) -> Progression:
    """Admissible areas {a + (1/N)(1-ka) Z} for a torus scaled into a
    Weinstein neighbourhood; valid only under a < 1/(k+N)."""
    a = Fraction(a)
    if k < 1 or n < 1:
        raise ValidationError("progression parameters must be >= 1")
    if a >= Fraction(1, k + n):
        raise HypothesisViolated(
            f"a = {a} is not below 1/(k+N) = 1/{k + n}")
    return Progression(a, Fraction(1 - k * a, n))


def least_area(side: LagrangianSide) -> Fraction:
    levels = side.ledger.levels
    if levels:
        return levels[0]
    if side.monotone and side.monotonicity_constant is not None:
        return side.monotonicity_constant
    raise InsufficientLedger(
        f"side {side.name}: empty ledger and no monotonicity constant")


def next_area(side: LagrangianSide) -> Fraction | None:
    """Second-smallest admissible area; None stands for +infinity."""
    levels = side.ledger.levels
    if len(levels) >= 2:
        return levels[1]
    if side.monotone:
        return None
    if side.lattice_params is not None:
        k, n = side.lattice_params
        return area_progression(k, n, least_area(side)).bound
    raise InsufficientLedger(
        f"side {side.name}: one area level, not monotone, and no lattice "
        f"parameters; the next area is undetermined")


@dataclass(frozen=True)
class AreaSpectrum:
    least: Fraction
    next: Fraction | None        # None = +infinity

    def as_dict(self):
        return {"a": rational_str(self.least),
                "A": "inf" if self.next is None else rational_str(self.next)}


def area_spectrum(side: LagrangianSide) -> AreaSpectrum:
    return AreaSpectrum(least_area(side), next_area(side))


# --- boundary sums and cancellation --------------------------------------------

def _local_weight(side, local_map, boundary, ring):
    """Multiplicative weight of a boundary class under a local system."""
    weight = ring.one()
    for label, coord in zip(side.h1.generator_labels, boundary):
        if coord == 0:
            continue
        if label not in local_map:
            raise MissingLocalSystem(
                f"side {side.name}: local system misses generator {label}")
        value = reduce(local_map[label], ring)
        if not value.is_unit:
            raise ValidationError(
                f"side {side.name}: local system value {value} for {label} "
                f"is not a unit in {ring.name}")
        if not ring.is_finite:
            size = max(abs(value.value.numerator), value.value.denominator)
            if abs(coord) * (size.bit_length() - 1) > WEIGHT_BIT_LIMIT:
                raise WeightTooLarge(
                    f"side {side.name}: local-system weight ({value})^{coord} "
                    f"for {label} needs more than {WEIGHT_BIT_LIMIT} bits")
        weight = weight * (value ** coord)
    return weight


def _selected_disks(side, level, coset: AffineSubspace | None):
    """Ledger disks at the level with boundary nonzero in H1(L; Z),
    optionally restricted to an affine coset read modulo the coset's field."""
    picked = []
    for disk in side.ledger.at_level(level):
        if side.h1.is_zero(disk.boundary, Z):
            continue
        if coset is not None and not coset.contains(disk.boundary):
            continue
        picked.append(disk)
    return picked


def _weighted_sum(side, disks, attr, ring, local_map) -> tuple:
    """Sum of count * weight * disk.<attr> ("boundary" or "rel_class") over
    the disks, on plain values reduced into the ring once per coordinate;
    every weight is 1 without a local map."""
    width = side.h1.ngens if attr == "boundary" else side.h2_rel.ngens
    acc = [0] * width
    for disk in disks:
        scale = disk.count
        if local_map is not None:
            scale *= _local_weight(side, local_map, disk.boundary, ring).value
        for idx, coord in enumerate(getattr(disk, attr)):
            acc[idx] += scale * coord
    return tuple(reduce(x, ring).value for x in acc)


def boundary_sum(side: LagrangianSide, ring: Ring, level,
                 coset: AffineSubspace | None = None,
                 local_system=None) -> GroupElement:
    """Sum of count * weight * boundary over the selected disks, in H1(L; ring)."""
    disks = _selected_disks(side, level, coset)
    return GroupElement(side.h1, _weighted_sum(side, disks, "boundary", ring,
                                               local_system))


@dataclass(frozen=True)
class CosetReport:
    key: tuple
    labels: tuple
    total: tuple
    cancels: bool


def grouped_cancellation(side: LagrangianSide,
                         subspace: AffineSubspace | None, ring: Ring, level,
                         local_system=None):
    """Check that boundaries cancel over the ring coset by coset.

    Two disks share a coset when their boundaries differ by a subspace
    element over its field; without a subspace all share the coset ().
    Returns (all_cancel, per-coset reports); an empty level cancels.
    """
    groups: dict[tuple, list] = {}
    for disk in _selected_disks(side, level, None):
        key = () if subspace is None else subspace.coset_key(disk.boundary)
        groups.setdefault(key, []).append(disk)

    reports = []
    all_cancel = True
    for key in sorted(groups):
        disks = groups[key]
        total = _weighted_sum(side, disks, "boundary", ring, local_system)
        cancels = side.h1.is_zero(total, ring)
        all_cancel = all_cancel and cancels
        reports.append(CosetReport(key, tuple(d.label for d in disks),
                                   total, cancels))
    return all_cancel, reports


# --- the string invariant -------------------------------------------------------

@dataclass(frozen=True)
class StringInvariantClass:
    """An element of H2(X; ring) defined up to the cyclic subgroup generated
    by the side's fundamental class."""

    value: GroupElement
    ring: Ring
    ambiguity: GroupElement
    asserted: bool = False
    lift_unique: bool = True
    subspace: AffineSubspace | None = None
    selected: tuple = ()
    disk_sum: tuple = ()
    notes: tuple = ()

    def is_zero(self) -> bool:
        return _in_ambiguity_coset(self.value.group, self.value.coords,
                                   (0,) * len(self.value.coords),
                                   self.ambiguity.coords, self.ring)

    def equals(self, other: "StringInvariantClass") -> bool:
        if self.ring != other.ring or self.value.group != other.value.group:
            return False
        return _in_ambiguity_coset(self.value.group, self.value.coords,
                                   other.value.coords,
                                   self.ambiguity.coords, self.ring)

    def describe(self) -> str:
        return self.value.group.describe(self.value.coords)


def _in_ambiguity_coset(group, coords, other, ambiguity, ring) -> bool:
    """Is coords - other a multiple of the ambiguity class over the ring?"""
    return solve_linear(tuple((c,) for c in ambiguity), vec_sub(coords, other),
                        ring, relations=group.relations) is not None


def oc_low(side: LagrangianSide, ring: Ring,
           subspace: AffineSubspace | None = None) -> StringInvariantClass:
    """The least-area string invariant of the side over the ring, each disk
    weighted by the side's local system when it has one.

    Raises CancellationFails when the boundary cancellation condition does
    not hold over the ring (coset by coset when a subspace is given), and
    NoLift when the disk sum has no preimage under j.
    """
    h2x = side.h2x
    ambiguity = side.fundamental_element()

    if not side.ledger.disks:
        if side.asserted_invariant is not None:
            return StringInvariantClass(
                value=GroupElement(h2x, side.asserted_invariant),
                ring=ring, ambiguity=ambiguity, asserted=True,
                notes=("asserted invariant: no ledger backs this value",))
        raise InsufficientLedger(f"side {side.name}: empty ledger")

    level = least_area(side)
    local_map = side.local_system_dict()
    ok, reports = grouped_cancellation(side, subspace, ring, level, local_map)
    if not ok:
        bad = next(r for r in reports if not r.cancels)
        where = "boundary" if subspace is None else f"coset {bad.key}"
        raise CancellationFails(
            f"side {side.name}: {where} sum "
            f"{side.h1.describe(bad.total)} is nonzero over {ring.name}",
            boundary_sum=bad.total)

    selected = _selected_disks(side, level, subspace)
    notes = []
    if local_map is not None and subspace is not None:
        notes.append("extension: local-system weights inside coset sums")
    if not selected:
        notes.append("no least-area disks with nonzero boundary; "
                     "invariant is zero by empty selection")
        return StringInvariantClass(
            value=h2x.zero(), ring=ring, ambiguity=ambiguity,
            subspace=subspace, notes=tuple(notes))

    disk_sum = _weighted_sum(side, selected, "rel_class", ring, local_map)
    solution = solve_linear(side.j.matrix, disk_sum, ring,
                            relations=side.h2_rel.relations)
    if solution is None:
        raise NoLift(
            f"side {side.name}: disk sum {side.h2_rel.describe(disk_sum)} "
            f"has no j-preimage over {ring.name}; scenario is inconsistent")
    value = GroupElement(h2x, solution)

    lift_unique = _kernel_inside_ambiguity(side, ring)
    if not lift_unique:
        notes.append("lift not unique: ker j exceeds the ambiguity subgroup")

    return StringInvariantClass(
        value=value, ring=ring, ambiguity=ambiguity,
        lift_unique=lift_unique, subspace=subspace,
        selected=tuple(d.label for d in selected),
        disk_sum=disk_sum, notes=tuple(notes))


def _kernel_inside_ambiguity(side, ring: Ring) -> bool:
    """Does every ring solution of j(v) = 0 lie in <[L]>?

    When true, the lift coset is unique and the invariant is well defined up
    to its declared ambiguity.
    """
    zero = (0,) * side.h2x.ngens
    return all(_in_ambiguity_coset(side.h2x, v, zero,
                                   side.fundamental_class, ring)
               for v in kernel_basis(side.j.matrix, side.h2_rel.relations,
                                     ring))


# --- the threshold of the monotone-partner criterion ----------------------------

@dataclass(frozen=True)
class ThresholdResult:
    """First ledger level whose unweighted boundary sums fail to cancel.

    threshold None means no level below the cutoff fails; callers must then
    read the bound as ">= cutoff" (or unbounded when the ledger is complete
    at every area, cutoff None).
    """

    threshold: Fraction | None
    cutoff: Fraction | None
    levels: tuple  # (level, cancels) pairs in increasing order

    @property
    def effective_bound(self) -> Fraction | None:
        return self.threshold if self.threshold is not None else self.cutoff


def cancellation_threshold(side: LagrangianSide, ring: Ring,
                           subspace: AffineSubspace | None = None
                           ) -> ThresholdResult:
    levels = []
    for level in side.ledger.levels:
        cancels, _ = grouped_cancellation(side, subspace, ring, level)
        levels.append((level, cancels))
    threshold = next((level for level, ok in levels if not ok), None)
    return ThresholdResult(threshold, side.ledger.complete_below,
                           tuple(levels))
