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
from itertools import groupby
from math import gcd, isqrt, lcm

from .errors import (BasisMismatch, Degenerate, InfiniteRing, NotSingleLevel,
                     ResidueSearchTooLarge, UnknownLabel, UnsupportedShape)
from .rings import Ring, RingElement, rational_str, reduce
from .scenario import LagrangianSide, _fraction


@dataclass(frozen=True)
class NovikovTerm:
    coeff: Fraction
    t_exp: Fraction
    bulk_exp: int = 0
    z_exp: int = 0
    w_exp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "coeff", _fraction(self.coeff))
        object.__setattr__(self, "t_exp", _fraction(self.t_exp))

    @property
    def key(self):
        return (self.t_exp, self.z_exp, self.w_exp, self.bulk_exp)


@dataclass(frozen=True)
class NovikovPolynomial:
    """Canonical form: terms sorted by (t_exp, z_exp, w_exp, bulk_exp),
    like terms merged, zero coefficients dropped."""

    terms: tuple

    @classmethod
    def from_terms(cls, terms) -> "NovikovPolynomial":
        merged: dict[tuple, NovikovTerm] = {}
        for term in terms:
            t = term.t_exp
            key = (t.numerator, t.denominator, term.z_exp, term.w_exp,
                   term.bulk_exp)
            if old := merged.get(key):
                term = NovikovTerm(old.coeff + term.coeff, t, term.bulk_exp,
                                   term.z_exp, term.w_exp)
            merged[key] = term
        return cls(tuple(sorted((t for t in merged.values() if t.coeff),
                                key=lambda t: t.key)))

    def t_levels(self) -> list[Fraction]:
        return [level for level, _ in groupby(t.t_exp for t in self.terms)]

    def to_dicts(self) -> list[dict]:
        return [{"coeff": rational_str(t.coeff), "t": rational_str(t.t_exp),
                 "ec": t.bulk_exp, "z": t.z_exp, "w": t.w_exp}
                for t in self.terms]


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
    level = _fraction(level)
    return NovikovPolynomial(tuple(t for t in p.terms if t.t_exp == level))


def partial_derivative(p: NovikovPolynomial, var: str) -> NovikovPolynomial:
    """Formal Laurent derivative in z or w; t and e^c are inert."""
    if var not in ("z", "w"):
        raise ValueError("var must be 'z' or 'w'")
    dz, dw = (1, 0) if var == "z" else (0, 1)
    return NovikovPolynomial.from_terms(
        NovikovTerm(t.coeff * n, t.t_exp, t.bulk_exp, t.z_exp - dz,
                    t.w_exp - dw)
        for t in p.terms if (n := t.z_exp * dz + t.w_exp * dw))


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


# Most work one unit analysis may plan.  The w exponents may span this much,
# which bounds the powers of each root w0; the rational root test may try
# degree * candidates up to it, and trial division may take this many steps.
UNIT_WORK_BUDGET = 10_000


def _charge_units(work: int, what: str):
    if work > UNIT_WORK_BUDGET:
        raise UnsupportedShape(f"unit analysis: {what} exceeds the work "
                               f"budget of {UNIT_WORK_BUDGET}")


def _rational_roots(coeffs: dict, den: int) -> list[Fraction]:
    """Nonzero rational roots of the Laurent polynomial sum c/den * x^e over
    the {e: c} items of int c, by the rational root test on the c/g,
    g = gcd(den, c...), the ints that clearing the denominators gives:
    p/q is a root iff the sum c * p^e * q^(degree - e) is zero."""
    coeffs = {e: c for e, c in coeffs.items() if c}
    if len(coeffs) <= 1:
        return []
    low, degree = min(coeffs), max(coeffs) - min(coeffs)
    g = gcd(den, *coeffs.values())
    ints = {e - low: c // g for e, c in coeffs.items()}
    a0, an = abs(ints[0]), abs(ints[degree])
    _charge_units(isqrt(a0) + isqrt(an),
                  "trial division in the rational root test")

    def divisors(n):
        small = [d for d in range(1, isqrt(n) + 1) if not n % d]
        return {*small, *(n // d for d in small)}

    tops, bottoms = divisors(a0), divisors(an)
    _charge_units(2 * len(tops) * len(bottoms) * degree,
                  f"the rational root test at degree {degree}")
    return sorted(Fraction(top, q) for p in tops for q in bottoms
                  if gcd(p, q) == 1 for top in (p, -p)
                  if not sum(c * top ** e * q ** (degree - e)
                             for e, c in ints.items()))


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
    root is reported too when one exists).  An analysis whose planned work
    passes UNIT_WORK_BUDGET is refused with UnsupportedShape."""
    heads = {(t.t_exp.numerator, t.t_exp.denominator, t.z_exp, t.bulk_exp)
             for t in p.terms if t.w_exp}
    if not heads:
        raise UnsupportedShape(
            "w-derivative vanishes identically; outside the supported family")
    if len(heads) != 1:
        raise UnsupportedShape(
            "w-derivative does not factor through a single w-polynomial")
    w_exps = [t.w_exp for t in p.terms]
    low, high = min(w_exps), max(w_exps)
    _charge_units(high - low, "the span of the w exponents")

    # Both partials, read off the terms (nothing merges), scaled by den, the
    # lcm of the denominators: a common scale moves no zero and no root.
    den = lcm(*(t.coeff.denominator for t in p.terms))
    ints = [t.coeff.numerator * (den // t.coeff.denominator) for t in p.terms]
    levels = {(t.t_exp.numerator, t.t_exp.denominator): t.t_exp
              for t in p.terms}
    pz = [(((t.t_exp.numerator, t.t_exp.denominator), t.z_exp - 1,
            t.bulk_exp), c * t.z_exp, t.w_exp)
          for t, c in zip(p.terms, ints) if t.z_exp]
    branches = []
    for w0 in _rational_roots({t.w_exp - 1: c * t.w_exp for t, c
                               in zip(p.terms, ints) if t.w_exp}, den):
        # each coefficient at w0 = u/v, scaled alike by u^-low * v^high
        u, v = w0.numerator, w0.denominator
        collapsed: dict[tuple, int] = {}
        for key, c, we in pz:
            collapsed[key] = (collapsed.get(key, 0)
                              + c * u ** (we - low) * v ** (high - we))
        support = {(te, ze) for (te, ze, _), c in collapsed.items() if c}
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
        vals = newton_valuations((levels[te], ze) for te, ze in support)
        candidate = Fraction(0) in vals
        root = None
        if candidate:
            min_t = min(support, key=lambda s: levels[s[0]])[0]
            achievers = {ze: 0 for te, ze in support if te == min_t}
            for (te, ze, _), c in collapsed.items():
                if te == min_t and ze in achievers:
                    achievers[ze] += c
            roots = _rational_roots(achievers, den)
            root = roots[0] if roots else None
        note = ("balances at valuation zero" if candidate
                else "no valuation-zero balance; any solution has "
                     "non-unit z")
        branches.append(BranchReport(w0, vals, False, root, candidate, note))
    return CriticalReport(any(b.candidate for b in branches), tuple(branches))


# --- residue search over finite rings ---------------------------------------------

# Most work one residue search may plan.  A unit is one partial term evaluated
# at one candidate pair, so each candidate costs the number of compiled terms
# (at least one).  In-process on a 2-core host, the largest accepted searches
# take 1 ms (F773), 0.19 s (a synthetic F701) and 0.06 s (Z/65536, output).
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
        total = RingElement(ring, reduce(0, ring))
        for t in partial_derivative(p, var).terms:
            term = RingElement(ring, reduce(t.coeff, ring))
            term = term * (RingElement(ring, reduce(z0, ring)) ** t.z_exp)
            term = term * (RingElement(ring, reduce(w0, ring)) ** t.w_exp)
            total = total + term
        out.append(total)
    return tuple(out)


def _compile_partials(p: NovikovPolynomial, ring: Ring) -> tuple:
    """Both partials as tuples of (coeff mod n, z_exp, w_exp) int triples,
    with t and e^c read as 1, like monomials merged and zeros dropped.

    An integer coefficient is taken mod n directly; the others go through
    ``reduce`` in the order ``evaluate_partials_at`` uses, so a
    non-invertible denominator raises the same error."""
    n = ring.modulus
    out = []
    for dz, dw in ((1, 0), (0, 1)):
        merged: dict[tuple, int] = {}
        for t in p.terms:
            if exp := t.z_exp * dz + t.w_exp * dw:
                key = (t.z_exp - dz, t.w_exp - dw)
                c = t.coeff
                c = (c.numerator * exp if c.denominator == 1
                     else reduce(c * exp, ring))
                merged[key] = (merged.get(key, 0) + c) % n
        out.append(tuple((c, ze, we) for (ze, we), c in merged.items() if c))
    return tuple(out)


def _row(terms, z_powers: dict, q: int) -> tuple:
    """A compiled partial at z, as the nonzero (w_exp, coeff mod q) items."""
    row: dict[int, int] = {}
    for c, ze, we in terms:
        row[we] = (row.get(we, 0) + c * z_powers[ze]) % q
    return tuple((we, c) for we, c in row.items() if c)


def _zeros(row, ws, q: int, tables: dict) -> list:
    """The ws where the row vanishes mod q, read off tables {w_exp: the
    powers of the ws}; the powers the row needs are added to them."""
    sums = [0] * len(ws)
    for we, c in row:
        if we not in tables:
            tables[we] = [pow(w, we, q) for w in ws]
        sums = [s + c * x for s, x in zip(sums, tables[we])]
    return [w for w, s in zip(ws, sums) if not s % q]


def _roots(fixed, varying, blocks, q: int):
    """Lazily, the blocks (zs, ws) inside the candidate blocks such that
    every partial vanishes mod q at every pair of zs × ws.

    fixed holds the z-free partials' rows, the same at every z up to a
    unit: each is scanned once per block, and the ws where it vanishes go on
    to the next.  If no partial varies, the roots are zs × the ws left.
    Otherwise each varying partial is built as a row at each z and scanned
    over the ws left, over one power table per block, once per distinct row."""
    z_exps = {ze for terms in varying for _, ze, _ in terms}
    for zs, ws in blocks:
        for row in fixed:
            ws = _zeros(row, ws, q, {})
        if ws and not varying:
            yield zs, ws
        if not (ws and varying):
            continue
        scanned, tables, every = {}, {}, frozenset(ws)
        for z in zs:
            z_powers = {e: pow(z, e, q) for e in z_exps}
            survivors = every
            for terms in varying:
                row = _row(terms, z_powers, q)
                if row not in scanned:
                    scanned[row] = frozenset(_zeros(row, ws, q, tables))
                survivors = survivors & scanned[row]
                if not survivors:
                    break
            if survivors:
                yield [z], list(survivors)


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

    def keep(self, blocks) -> list:
        """The blocks as a list, refused once their pairs outgrow the room."""
        room = (RESIDUE_WORK_BUDGET - self.spent) // _PAIR_WORK
        kept = []
        for zs, ws in blocks:
            if (room := room - len(zs) * len(ws)) < 0:
                self._refuse()
            kept.append((zs, ws))
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


def _prime_power_roots(fixed, varying, p: int, k: int, weight: int,
                       budget: _WorkBudget) -> list[tuple]:
    """Unit roots mod p^k: brute force mod p, then lift one power at a time.

    Lifting is complete with no non-singularity condition: reduction mod p^j
    sends unit roots mod p^(j+1) to unit roots mod p^j, so every root mod
    p^(j+1) lies among the p^2 candidates above some root mod p^j.  The
    roots are (zs, ws) blocks, and the candidates above a block are the
    block of the p lifts of each of its zs and each of its ws."""
    budget.charge((p - 1) ** 2 * weight)
    roots = budget.keep(_roots(fixed, varying,
                               [(range(1, p), range(1, p))], p))
    q = p
    for _ in range(k - 1):
        budget.charge(sum(len(zs) * len(ws) for zs, ws in roots)
                      * p * p * weight)
        lifted = q * p
        roots = budget.keep(_roots(fixed, varying, (
            ([z1 for z in zs for z1 in range(z, lifted, q)],
             [w1 for w in ws for w1 in range(w, lifted, q)])
            for zs, ws in roots), lifted))
        q = lifted
    return [(z, w) for zs, ws in roots for z in zs for w in ws]


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
    n = ring.modulus
    weight = max(1, sum(len(terms) for terms in partials))
    # A z-free partial, whose terms share one z exponent, is at each unit z
    # a unit times its row at 1, with the same zeros.
    fixed = [_row(terms, {ze: 1 for _, ze, _ in terms}, n)
             for terms in partials if len({ze for _, ze, _ in terms}) <= 1]
    varying = [terms for terms in partials
               if len({ze for _, ze, _ in terms}) > 1]
    budget = _WorkBudget(ring.name)
    found = [(0, 0)]
    for prime, k in _prime_powers(n, ring.name):
        roots = _prime_power_roots(fixed, varying, prime, k, weight, budget)
        if not roots:
            return []
        q = prime ** k
        m = n // q
        basis = m * pow(m, -1, q) % n   # 1 mod q, 0 mod n / q
        budget.charge(len(found) * len(roots) * _PAIR_WORK)
        found = [((z + zq * basis) % n, (w + wq * basis) % n)
                 for z, w in found for zq, wq in roots]
    return sorted(found)
