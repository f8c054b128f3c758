"""Superpotential algebra over the Novikov ring.

Polynomials here are finite sums of terms c * t^lambda * e^{c mu} * z^n * w^m
with exact rational lambda and integer n, m, mu.  The bulk symbol e^c is a
formal unit with integer exponents: it is never expanded and it carries
valuation zero, so it can only ever affect residue equations, not slopes.

The critical-point analysis is deliberately restricted to the structured
family where the w-derivative factors as a monomial times a one-variable
polynomial in w; everything built from a rank-two boundary ledger has this
shape, and anything else errors loudly rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import isqrt

from .errors import (BasisMismatch, Degenerate, InfiniteRing, NotSingleLevel,
                     ResidueSearchTooLarge, UnknownLabel, UnsupportedShape)
from .rings import Ring, rational_str, reduce
from .scenario import LagrangianSide


@dataclass(frozen=True)
class NovikovTerm:
    coeff: Fraction
    t_exp: Fraction
    bulk_exp: int = 0
    z_exp: int = 0
    w_exp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        object.__setattr__(self, "t_exp", Fraction(self.t_exp))

    @property
    def key(self):
        return (self.t_exp, self.z_exp, self.w_exp, self.bulk_exp)

    def __str__(self):
        pieces = [str(self.coeff)]
        if self.t_exp:
            pieces.append(f"t^{rational_str(self.t_exp)}")
        if self.bulk_exp:
            pieces.append(f"e^{self.bulk_exp}c")
        if self.z_exp:
            pieces.append(f"z^{self.z_exp}")
        if self.w_exp:
            pieces.append(f"w^{self.w_exp}")
        return "*".join(pieces)


@dataclass(frozen=True)
class NovikovPolynomial:
    """Canonical form: terms sorted by (t_exp, z_exp, w_exp, bulk_exp),
    like terms merged, zero coefficients dropped."""

    terms: tuple

    @classmethod
    def from_terms(cls, terms) -> "NovikovPolynomial":
        merged: dict[tuple, Fraction] = {}
        for term in terms:
            merged[term.key] = merged.get(term.key, Fraction(0)) + term.coeff
        cleaned = [NovikovTerm(c, k[0], bulk_exp=k[3], z_exp=k[1], w_exp=k[2])
                   for k, c in merged.items() if c != 0]
        return cls(tuple(sorted(cleaned, key=lambda t: t.key)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def t_levels(self) -> list[Fraction]:
        return sorted({t.t_exp for t in self.terms})

    def to_dicts(self) -> list[dict]:
        return [{"coeff": rational_str(t.coeff), "t": rational_str(t.t_exp),
                 "ec": t.bulk_exp, "z": t.z_exp, "w": t.w_exp}
                for t in self.terms]

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(str(t) for t in self.terms)


# --- building potentials from ledgers -------------------------------------------

def potential_from_ledger(side: LagrangianSide,
                          divisor_hits=None) -> NovikovPolynomial:
    """Sum count * t^area * z^b1 * w^b2 over the ledger, where (b1, b2) is
    the disk boundary in the ordered basis of H1(L).

    divisor_hits (label -> integer) multiplies each disk monomial by the
    bulk unit e^{c*hits}: the bulk deformation, keyed by ledger labels
    because merged monomials forget which disk they came from.
    """
    if side.h1.ngens != 2 or side.h1.relations:
        raise BasisMismatch(
            f"side {side.name}: potentials need H1(L) free of rank 2")
    hits = dict(divisor_hits or {})
    known = {d.label for d in side.ledger.disks}
    for label in hits:
        if label not in known:
            raise UnknownLabel(f"no ledger disk labelled {label!r}")
    terms = []
    for disk in side.ledger.disks:
        terms.append(NovikovTerm(
            coeff=Fraction(disk.count),
            t_exp=disk.area,
            bulk_exp=int(hits.get(disk.label, 0)),
            z_exp=disk.boundary[0],
            w_exp=disk.boundary[1]))
    return NovikovPolynomial.from_terms(terms)


def truncate_to_level(p: NovikovPolynomial, level) -> NovikovPolynomial:
    level = Fraction(level)
    return NovikovPolynomial(tuple(t for t in p.terms if t.t_exp == level))


def partial_derivative(p: NovikovPolynomial, var: str) -> NovikovPolynomial:
    """Formal Laurent derivative in z or w; t and e^c are inert."""
    if var not in ("z", "w"):
        raise ValueError("var must be 'z' or 'w'")
    terms = []
    for t in p.terms:
        exp = t.z_exp if var == "z" else t.w_exp
        if exp == 0:
            continue
        if var == "z":
            terms.append(NovikovTerm(t.coeff * exp, t.t_exp, t.bulk_exp,
                                     t.z_exp - 1, t.w_exp))
        else:
            terms.append(NovikovTerm(t.coeff * exp, t.t_exp, t.bulk_exp,
                                     t.z_exp, t.w_exp - 1))
    return NovikovPolynomial.from_terms(terms)


# --- Newton-polygon valuations ---------------------------------------------------

def newton_valuations(terms) -> tuple:
    """Slopes v at which min over terms of (t_exp + z_exp * v) is attained
    at least twice -- the only possible valuations of a one-monomial solution
    of a balanced equation.

    Input: iterable of (t_exp, z_exp) pairs; duplicates are collapsed.
    """
    support = sorted({(Fraction(t), int(n)) for t, n in terms})
    exps = {n for _, n in support}
    if len(exps) < 2:
        raise Degenerate(
            "fewer than two distinct exponents; nothing can balance")
    candidates = set()
    for i, (t1, n1) in enumerate(support):
        for t2, n2 in support[i + 1:]:
            if n1 != n2:
                candidates.add(Fraction(t1 - t2, n2 - n1))
    out = []
    for v in sorted(candidates):
        values = [t + n * v for t, n in support]
        m = min(values)
        if sum(1 for x in values if x == m) >= 2:
            out.append(v)
    return tuple(out)


# --- unit critical points ---------------------------------------------------------


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """Nonzero rational roots of sum coeffs[i] * x^i, by the rational root
    test after clearing denominators.  Degrees here are tiny."""
    from math import gcd

    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    low = 0
    while low < len(coeffs) and coeffs[low] == 0:
        low += 1
    coeffs = coeffs[low:]
    if len(coeffs) <= 1:
        return []
    lcm = 1
    for c in coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in coeffs]
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(n):
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return out

    roots = []
    for p in divisors(a0):
        for q in divisors(an):
            for sign in (1, -1):
                candidate = Fraction(sign * p, q)
                if sum(c * candidate ** i for i, c in enumerate(ints)) == 0:
                    if candidate not in roots:
                        roots.append(candidate)
    return sorted(roots)


@dataclass(frozen=True)
class BranchReport:
    w0: Fraction
    valuations: tuple
    any_unit_z: bool
    residue_rational_root: Fraction | None
    candidate: bool
    note: str

    def as_dict(self):
        return {"w0": rational_str(self.w0),
                "valuations": [rational_str(v) for v in self.valuations],
                "any_unit_z": self.any_unit_z,
                "residue_rational_root":
                    None if self.residue_rational_root is None
                    else rational_str(self.residue_rational_root),
                "candidate": self.candidate,
                "note": self.note}


@dataclass(frozen=True)
class CriticalReport:
    has_unit_candidate: bool
    branches: tuple

    def as_dict(self):
        return {"has_unit_candidate": self.has_unit_candidate,
                "branches": [b.as_dict() for b in self.branches]}


def unit_critical_analysis(p: NovikovPolynomial) -> CriticalReport:
    """Decide whether the two formal partials can vanish simultaneously at a
    point with unit (valuation-zero) coordinates.

    Requires the w-derivative to factor as monomial * (polynomial in w); its
    roots w0 give the branches.  On each branch the z-derivative becomes a
    one-variable balance problem solved by Newton valuations: a branch is a
    candidate exactly when valuation 0 balances (the residue equation then
    has a root over a characteristic-zero closed residue field; a rational
    root is reported too when one exists)."""
    pw = partial_derivative(p, "w")
    if pw.is_zero:
        raise UnsupportedShape(
            "w-derivative vanishes identically; outside the supported family")
    heads = {(t.t_exp, t.z_exp, t.bulk_exp) for t in pw.terms}
    if len(heads) != 1:
        raise UnsupportedShape(
            "w-derivative does not factor through a single w-polynomial")
    w_min = min(t.w_exp for t in pw.terms)
    degree = max(t.w_exp for t in pw.terms) - w_min
    coeffs = [Fraction(0)] * (degree + 1)
    for t in pw.terms:
        coeffs[t.w_exp - w_min] = t.coeff

    pz = partial_derivative(p, "z")
    branches = []
    for w0 in _rational_roots(coeffs):
        collapsed: dict[tuple, Fraction] = {}
        for t in pz.terms:
            key = (t.t_exp, t.z_exp, t.bulk_exp)
            collapsed[key] = collapsed.get(key, Fraction(0)) \
                + t.coeff * w0 ** t.w_exp
        support = {(te, ze) for (te, ze, _), c in collapsed.items() if c != 0}
        if not support:
            branches.append(BranchReport(
                w0, (), True, None, True,
                "z-derivative vanishes identically on this branch; every "
                "unit z is critical"))
            continue
        if len({ze for _, ze in support}) < 2:
            branches.append(BranchReport(
                w0, (), False, None, False,
                "single z-exponent survives; no balance is possible"))
            continue
        vals = newton_valuations(support)
        candidate = Fraction(0) in vals
        root = None
        if candidate:
            min_t = min(te for te, _ in support)
            achievers = {ze: Fraction(0) for te, ze in support if te == min_t}
            for (te, ze, _), c in collapsed.items():
                if te == min_t and ze in achievers:
                    achievers[ze] += c
            z_min = min(achievers)
            poly = [Fraction(0)] * (max(achievers) - z_min + 1)
            for ze, c in achievers.items():
                poly[ze - z_min] = c
            roots = _rational_roots(poly)
            root = roots[0] if roots else None
        note = ("balances at valuation zero" if candidate
                else "no valuation-zero balance; any solution has "
                     "non-unit z")
        branches.append(BranchReport(w0, vals, False, root, candidate, note))
    return CriticalReport(any(b.candidate for b in branches), tuple(branches))


# --- residue search over finite rings ---------------------------------------------

# Most work one residue search may plan.  A unit is one partial term evaluated
# at one candidate pair, so each candidate costs the number of compiled terms
# (at least one); the bound keeps the largest accepted search to a few seconds.
RESIDUE_WORK_BUDGET = 3_000_000
# Building, sorting and printing one output pair costs about as much as this
# many term evaluations; roots kept between stages are capped at the same
# rate, so no stage holds more pairs than the budget could output.
_PAIR_WORK = 16


def evaluate_partials_at(p: NovikovPolynomial, z0, w0, ring: Ring):
    """Both formal partials at a unit point, with t and e^c read as 1.

    Re-derives the partials on every call; it is the per-point reference
    the residue search is tested against, not part of that search."""
    out = []
    for var in ("z", "w"):
        total = ring.zero()
        for t in partial_derivative(p, var).terms:
            term = reduce(t.coeff, ring)
            term = term * (reduce(z0, ring) ** t.z_exp)
            term = term * (reduce(w0, ring) ** t.w_exp)
            total = total + term
        out.append(total)
    return tuple(out)


def _compile_partials(p: NovikovPolynomial, ring: Ring) -> tuple:
    """Both partials as tuples of (coeff mod n, z_exp, w_exp) int triples,
    with t and e^c read as 1, like monomials merged and zeros dropped.

    Coefficients go through ``reduce`` in the order ``evaluate_partials_at``
    uses, so a non-invertible denominator raises the same error."""
    n = ring.modulus
    out = []
    for var in ("z", "w"):
        merged: dict[tuple, int] = {}
        for t in partial_derivative(p, var).terms:
            key = (t.z_exp, t.w_exp)
            merged[key] = (merged.get(key, 0) + reduce(t.coeff, ring).value) % n
        out.append(tuple((c, ze, we) for (ze, we), c in merged.items() if c))
    return tuple(out)


def _vanishes(partials, z: int, w: int, q: int) -> bool:
    """Whether every compiled partial is zero mod q at the unit pair (z, w)."""
    return not any(
        sum(c * pow(z, ze, q) * pow(w, we, q) for c, ze, we in terms) % q
        for terms in partials)


class _WorkBudget:
    """The work one residue search has charged against RESIDUE_WORK_BUDGET."""

    def __init__(self, ring_name: str):
        self.ring_name = ring_name
        self.spent = 0

    def _refuse(self):
        raise ResidueSearchTooLarge(
            f"residue search over {self.ring_name} exceeds the work budget "
            f"of {RESIDUE_WORK_BUDGET}")

    def charge(self, work: int):
        self.spent += work
        if self.spent > RESIDUE_WORK_BUDGET:
            self._refuse()

    def keep(self, pairs) -> list:
        """The pairs as a list, refused once the budget could not output
        them all."""
        room = (RESIDUE_WORK_BUDGET - self.spent) // _PAIR_WORK
        kept = list(islice(pairs, room + 1))
        if len(kept) > room:
            self._refuse()
        return kept


def _prime_powers(n: int, ring_name: str) -> list[tuple]:
    """[(p, k)] with n = prod p^k, p ascending, by trial division up to
    isqrt(budget) + 1.  A factor left above that bound is a prime whose
    (p - 1)^2 brute force alone exceeds the budget, so it is refused."""
    limit = isqrt(RESIDUE_WORK_BUDGET) + 1
    out = []
    d = 2
    while d * d <= n and d <= limit:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1
    if n > limit:
        raise ResidueSearchTooLarge(
            f"{ring_name} has a prime factor above {limit}; its residue "
            f"search exceeds the work budget of {RESIDUE_WORK_BUDGET}")
    if n > 1:
        out.append((n, 1))
    return out


def _prime_power_roots(partials, p: int, k: int, weight: int,
                       budget: _WorkBudget) -> list[tuple]:
    """Unit roots mod p^k: brute force mod p, then lift one power at a time.

    Lifting is complete with no non-singularity condition: reduction mod p^j
    sends unit roots mod p^(j+1) to unit roots mod p^j, so every root mod
    p^(j+1) lies among the p^2 candidates above some root mod p^j."""
    budget.charge((p - 1) ** 2 * weight)
    roots = budget.keep((z, w) for z in range(1, p) for w in range(1, p)
                        if _vanishes(partials, z, w, p))
    q = p
    for _ in range(k - 1):
        budget.charge(len(roots) * p * p * weight)
        lifted = q * p
        roots = budget.keep((z1, w1) for z, w in roots
                            for z1 in range(z, lifted, q)
                            for w1 in range(w, lifted, q)
                            if _vanishes(partials, z1, w1, lifted))
        q = lifted
    return roots


def residue_critical_points(p: NovikovPolynomial, ring: Ring) -> list[tuple]:
    """All unit pairs (z, w) where both partials vanish in the finite ring,
    sorted ascending.

    The polynomial must sit at a single t-level, so that reading t as 1 is
    meaningful.  The partials are compiled to int triples once; n is split
    into prime powers, each solved by lifting roots from p up to p^k, and
    the parts are joined by CRT.  A search whose planned work exceeds
    RESIDUE_WORK_BUDGET is refused with ResidueSearchTooLarge."""
    if not ring.is_finite:
        raise InfiniteRing("residue search needs a finite ring")
    if len(p.t_levels()) > 1:
        raise NotSingleLevel(
            f"polynomial spans t-levels {[rational_str(l) for l in p.t_levels()]}")
    partials = _compile_partials(p, ring)
    weight = max(1, sum(len(terms) for terms in partials))
    budget = _WorkBudget(ring.name)
    n = ring.modulus
    found = [(0, 0)]
    for prime, k in _prime_powers(n, ring.name):
        roots = _prime_power_roots(partials, prime, k, weight, budget)
        if not roots:
            return []
        q = prime ** k
        m = n // q
        basis = m * pow(m, -1, q) % n   # 1 mod q, 0 mod n / q
        budget.charge(len(found) * len(roots) * _PAIR_WORK)
        found = [((z + zq * basis) % n, (w + wq * basis) % n)
                 for z, w in found for zq, wq in roots]
    return sorted(found)
