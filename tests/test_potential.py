import random
from fractions import Fraction

import pytest

from floerdisk import potential
from floerdisk.errors import (BasisMismatch, Degenerate, InfiniteRing,
                              NonInvertibleDenominator, NotSingleLevel,
                              ResidueSearchTooLarge, UnknownLabel,
                              UnsupportedShape)
from floerdisk.potential import (NovikovPolynomial, NovikovTerm,
                                 evaluate_partials_at, newton_valuations,
                                 partial_derivative, potential_from_ledger,
                                 residue_critical_points, truncate_to_level,
                                 unit_critical_analysis)
from floerdisk.rings import Ring
from floerdisk.scenario import builtin_scenario

from oracles import (balance_slope, oracle_residue_critical_points,
                     plain_residue_critical_points)

F = Fraction
Z8 = Ring.parse("Z/8")
Z3 = Ring.parse("Z/3")


def cp2_potential(a=F(1, 5), hits=None):
    side = builtin_scenario("cp2_ta", {"a": a}).side
    return potential_from_ledger(side, divisor_hits=hits)


def term(coeff, t, ec=0, z=0, w=0):
    return NovikovTerm(F(coeff), F(t), bulk_exp=ec, z_exp=z, w_exp=w)


# --- construction -------------------------------------------------------------

def test_cp2_potential_terms():
    p = cp2_potential()
    assert p.to_dicts() == [
        {"coeff": "1", "t": "1/5", "ec": 0, "z": -2, "w": -1},
        {"coeff": "2", "t": "1/5", "ec": 0, "z": -2, "w": 0},
        {"coeff": "1", "t": "1/5", "ec": 0, "z": -2, "w": 1},
        {"coeff": "1", "t": "2/5", "ec": 0, "z": 1, "w": 0},
    ]


def test_p1xp1_potential_merges_equal_monomials():
    side = builtin_scenario("p1xp1_ta", {"a": F(1, 5)}).side
    p = potential_from_ledger(side)
    # the two distinct disks with boundary -dbeta merge into one 2/z monomial
    assert p.to_dicts() == [
        {"coeff": "1", "t": "1/5", "ec": 0, "z": -1, "w": -1},
        {"coeff": "2", "t": "1/5", "ec": 0, "z": -1, "w": 0},
        {"coeff": "1", "t": "1/5", "ec": 0, "z": -1, "w": 1},
        {"coeff": "1", "t": "4/5", "ec": 0, "z": 1, "w": 0},
    ]


def test_empty_ledger_gives_zero():
    side = builtin_scenario("bl3_clifford").side
    assert potential_from_ledger(side).is_zero


def test_bulk_deform():
    side = builtin_scenario("cp2_ta", {"a": F(1, 5)}).side
    p = potential_from_ledger(side, divisor_hits={"b": 1})
    beta_terms = [t for t in p.terms if t.z_exp == 1]
    assert beta_terms[0].bulk_exp == 1
    assert all(t.bulk_exp == 0 for t in p.terms if t.z_exp != 1)
    double = potential_from_ledger(side, divisor_hits={"b": 2})
    assert [t for t in double.terms if t.z_exp == 1][0].bulk_exp == 2
    same = potential_from_ledger(side, divisor_hits={})
    assert same == cp2_potential()
    with pytest.raises(UnknownLabel):
        potential_from_ledger(side, divisor_hits={"nope": 1})


def test_truncate():
    p = cp2_potential()
    low = truncate_to_level(p, F(1, 5))
    assert low.t_levels() == [F(1, 5)]
    assert len(low.terms) == 3
    assert truncate_to_level(p, F(1, 3)).is_zero
    assert truncate_to_level(low, F(1, 5)) == low


def test_chekanov_levels_merge_at_one_third():
    # below 1/3 the potential has two t-levels; at 1/3 they merge into the
    # monotone torus potential
    assert len(cp2_potential(F(1, 5)).t_levels()) == 2
    monotone = cp2_potential(F(1, 3))
    assert monotone.t_levels() == [F(1, 3)]
    assert monotone.to_dicts() == [
        {"coeff": "1", "t": "1/3", "ec": 0, "z": -2, "w": -1},
        {"coeff": "2", "t": "1/3", "ec": 0, "z": -2, "w": 0},
        {"coeff": "1", "t": "1/3", "ec": 0, "z": -2, "w": 1},
        {"coeff": "1", "t": "1/3", "ec": 0, "z": 1, "w": 0},
    ]


# --- canonical form and calculus ---------------------------------------------------

def _random_poly(rng, nterms=None):
    terms = []
    for _ in range(nterms or rng.randint(0, 6)):
        terms.append(term(rng.randint(-5, 5), F(rng.randint(0, 9), 10),
                          ec=rng.randint(0, 2), z=rng.randint(-3, 3),
                          w=rng.randint(-3, 3)))
    return NovikovPolynomial.from_terms(terms)


def test_derivative_examples():
    # d/dw of t^a (1+w)^2 / (z^2 w), expanded by hand:
    # (w + 2 + w^-1)' = 1 - w^-2, so the answer is t^a (z^-2 - z^-2 w^-2)
    low = truncate_to_level(cp2_potential(), F(1, 5))
    dw = partial_derivative(low, "w")
    assert dw == NovikovPolynomial.from_terms(
        [term(-1, F(1, 5), z=-2, w=-2), term(1, F(1, 5), z=-2)])
    single = NovikovPolynomial.from_terms([term(1, F(2, 5), ec=1, z=1)])
    assert partial_derivative(single, "z") == NovikovPolynomial.from_terms(
        [term(1, F(2, 5), ec=1)])
    constant = NovikovPolynomial.from_terms([term(7, 0)])
    assert partial_derivative(constant, "z").is_zero


def _plus(p, q):
    return NovikovPolynomial.from_terms(p.terms + q.terms)


def _times(p, q):
    return NovikovPolynomial.from_terms(
        NovikovTerm(s.coeff * t.coeff, s.t_exp + t.t_exp,
                    s.bulk_exp + t.bulk_exp, s.z_exp + t.z_exp,
                    s.w_exp + t.w_exp)
        for s in p.terms for t in q.terms)


def test_derivative_linear_and_leibniz():
    rng = random.Random(77)
    for _ in range(50):
        p = _random_poly(rng)
        q = _random_poly(rng)
        for var in ("z", "w"):
            assert partial_derivative(_plus(p, q), var) == \
                _plus(partial_derivative(p, var), partial_derivative(q, var))
        m = _random_poly(rng, nterms=1)
        if m.is_zero:
            continue
        prod = _times(p, m)
        for var in ("z", "w"):
            lhs = partial_derivative(prod, var)
            rhs = _plus(_times(partial_derivative(m, var), p),
                        _times(partial_derivative(p, var), m))
            assert lhs == rhs


# --- Newton valuations ----------------------------------------------------------

def test_newton_valuations_examples():
    # balance of the two z-derivative terms of the bulk potential; the
    # independent oracle solves (1-a)/2 + 0*v = a - 3v directly
    a = F(1, 5)
    expected = balance_slope((F((1 - a) / 2), 0), (a, -3))
    assert expected == F(-1, 15)
    assert newton_valuations([((1 - a) / 2, 0), (a, -3)]) == (F(-1, 15),)
    assert newton_valuations([(0, 0), (0, 1)]) == (0,)
    with pytest.raises(Degenerate):
        newton_valuations([(1, 2), (0, 2)])


def test_newton_valuations_double_attainment():
    rng = random.Random(3)
    for _ in range(200):
        support = {(F(rng.randint(-6, 6), rng.randint(1, 4)),
                    rng.randint(-4, 4))
                   for _ in range(rng.randint(2, 6))}
        if len({n for _, n in support}) < 2:
            continue
        for v in newton_valuations(support):
            values = [t + n * v for t, n in support]
            m = min(values)
            assert sum(1 for x in values if x == m) >= 2


# --- unit critical analysis ---------------------------------------------------------

def test_bulk_analysis_below_one_third():
    for a in (F(1, 10), F(1, 5), F(3, 10)):
        side = builtin_scenario("cp2_ta", {"a": a}).side
        report = unit_critical_analysis(
            potential_from_ledger(side, divisor_hits={"b": 1}))
        assert not report.has_unit_candidate
        by_root = {b.w0: b for b in report.branches}
        assert by_root[F(1)].valuations == ((3 * a - 1) / 6,)
        assert by_root[F(-1)].valuations == ()
        assert "single z-exponent" in by_root[F(-1)].note


def test_bulk_analysis_at_one_third():
    side = builtin_scenario("cp2_ta", {"a": F(1, 3)}).side
    report = unit_critical_analysis(
        potential_from_ledger(side, divisor_hits={"b": 1}))
    assert report.has_unit_candidate
    branch = {b.w0: b for b in report.branches}[F(1)]
    assert branch.candidate
    assert F(0) in branch.valuations
    assert branch.residue_rational_root == 2  # z^3 = 8


def test_truncated_potential_critical_line():
    low = truncate_to_level(cp2_potential(), F(1, 5))
    report = unit_critical_analysis(low)
    assert report.has_unit_candidate
    branch = {b.w0: b for b in report.branches}[F(-1)]
    assert branch.candidate and branch.any_unit_z


def test_unsupported_shape():
    mixed = NovikovPolynomial.from_terms(
        [term(1, 0, z=0, w=1), term(1, 0, z=1, w=2)])
    with pytest.raises(UnsupportedShape):
        unit_critical_analysis(mixed)
    constant = NovikovPolynomial.from_terms([term(1, 0, z=2)])
    with pytest.raises(UnsupportedShape):
        unit_critical_analysis(constant)


# --- residue search -------------------------------------------------------------------

def test_residue_points_mod8():
    low = truncate_to_level(cp2_potential(), F(1, 5))
    points = residue_critical_points(low, Z8)
    assert (1, 1) in points
    # independent check of every returned point, term by term
    for z0, w0 in points:
        for var in ("z", "w"):
            total = 0
            for t in low.terms:
                exp = t.z_exp if var == "z" else t.w_exp
                if exp == 0:
                    continue
                znew = t.z_exp - 1 if var == "z" else t.z_exp
                wnew = t.w_exp - 1 if var == "w" else t.w_exp
                value = int(t.coeff * exp)
                value *= pow(z0, znew, 8) if znew >= 0 \
                    else pow(pow(z0, -1, 8), -znew, 8)
                value *= pow(w0, wnew, 8) if wnew >= 0 \
                    else pow(pow(w0, -1, 8), -wnew, 8)
                total += value
            assert total % 8 == 0


def test_residue_points_mod3():
    low = truncate_to_level(cp2_potential(), F(1, 5))
    assert residue_critical_points(low, Z3) == [(1, 2), (2, 2)]


def test_residue_constant_poly_all_units():
    constant = NovikovPolynomial.from_terms([term(5, F(1, 5))])
    assert len(residue_critical_points(constant, Z8)) == 16


def test_residue_errors():
    with pytest.raises(NotSingleLevel):
        residue_critical_points(cp2_potential(), Z8)
    low = truncate_to_level(cp2_potential(), F(1, 5))
    with pytest.raises(InfiniteRing):
        residue_critical_points(low, Ring.rationals())


def lowest_level(name, a=None, hits=None):
    side = builtin_scenario(name, {"a": a} if a is not None else None).side
    p = potential_from_ledger(side, divisor_hits=hits)
    return truncate_to_level(p, p.t_levels()[0])


RESIDUE_POLYS = {
    "cp2_a=1/5": lowest_level("cp2_ta", F(1, 5)),
    "cp2_a=1/3": lowest_level("cp2_ta", F(1, 3)),
    "cp2_a=1/5_bulk": lowest_level("cp2_ta", F(1, 5), {"b": 1}),
    "cp2_a=1/3_bulk": lowest_level("cp2_ta", F(1, 3), {"b": 1}),
    "p1xp1_a=1/5": lowest_level("p1xp1_ta", F(1, 5)),
    "bl3_a=1/5": lowest_level("bl3_ta", F(1, 5)),
    "constant": NovikovPolynomial.from_terms([term(5, F(1, 5))]),
    # negative exponents and a fractional coefficient: the partials carry
    # -6/7 and 4/7, so every ring where 7 is a zero divisor must raise
    "synthetic": NovikovPolynomial.from_terms([
        term(F(2, 7), 0, z=-3, w=2), term(5, 0, ec=1, z=2, w=-1),
        term(-1, 0, z=1, w=1), term(3, 0, ec=2, z=2, w=-1)]),
}
PRIMES = [p for p in range(2, 62) if all(p % d for d in range(2, p))]
RESIDUE_RINGS = ([Ring.integers_mod(n) for n in range(2, 65)]
                 + [Ring.prime_field(p) for p in PRIMES])


def outcome(search, p, ring):
    """The search result, or the error a non-invertible coefficient raises."""
    try:
        return search(p, ring)
    except NonInvertibleDenominator as exc:
        return ("NonInvertibleDenominator", str(exc))


@pytest.mark.parametrize("name", sorted(RESIDUE_POLYS))
def test_residue_matches_exhaustive_search(name):
    p = RESIDUE_POLYS[name]
    for ring in RESIDUE_RINGS:
        if ring.modulus <= 12 or ring.modulus == 30:
            assert outcome(residue_critical_points, p, ring) \
                == outcome(oracle_residue_critical_points, p, ring), ring


@pytest.mark.parametrize("name", sorted(RESIDUE_POLYS))
def test_residue_matches_plain_int_search(name):
    p = RESIDUE_POLYS[name]
    for ring in RESIDUE_RINGS:
        try:
            expected = plain_residue_critical_points(p, ring.modulus)
        except ValueError:   # no inverse of a denominator
            with pytest.raises(NonInvertibleDenominator):
                residue_critical_points(p, ring)
            continue
        assert residue_critical_points(p, ring) == expected, ring


def test_residue_noninvertible_coefficient_error():
    p = RESIDUE_POLYS["synthetic"]
    for name in ("Z/14", "Z/49", "F7"):
        ring = Ring.parse(name)
        got = outcome(residue_critical_points, p, ring)
        assert got[0] == "NonInvertibleDenominator"
        assert got == outcome(oracle_residue_critical_points, p, ring)


def test_residue_lifting_mod_1024():
    low = RESIDUE_POLYS["cp2_a=1/5"]
    ring = Ring.integers_mod(1024)
    points = residue_critical_points(low, ring)
    for z0, w0 in points:
        assert all(d.is_zero for d in evaluate_partials_at(low, z0, w0, ring))
    assert points == plain_residue_critical_points(low, 1024)


def test_residue_budget_refuses_large_primes():
    low = RESIDUE_POLYS["cp2_a=1/5"]
    for name in ("Z/1000000007", "F1000000000000000009",
                 "Z/" + str(2 * 1000000007)):
        with pytest.raises(ResidueSearchTooLarge):
            residue_critical_points(low, Ring.parse(name))


def test_residue_budget_stages(monkeypatch):
    monkeypatch.setattr(potential, "RESIDUE_WORK_BUDGET", 10_000)
    low = RESIDUE_POLYS["cp2_a=1/5"]
    constant = RESIDUE_POLYS["constant"]
    assert len(residue_critical_points(constant, Ring.integers_mod(32))) == 256
    # trial division stops at isqrt(10000) + 1 = 101
    with pytest.raises(ResidueSearchTooLarge, match="above 101"):
        residue_critical_points(low, Ring.prime_field(103))
    # 100^2 candidates times five compiled terms
    with pytest.raises(ResidueSearchTooLarge):
        residue_critical_points(low, Ring.prime_field(101))
    # 1024 roots mod 64 cannot all be output
    with pytest.raises(ResidueSearchTooLarge):
        residue_critical_points(constant, Ring.integers_mod(64))


def test_basis_mismatch():
    side = builtin_scenario("cp2_ta", {"a": F(1, 5)}).side
    from dataclasses import replace
    from floerdisk.abelian import FgAbelianGroup, GroupHom
    h1 = FgAbelianGroup(("only",))
    bad = replace(side, h1=h1,
                  bd=GroupHom(side.h2_rel, h1, ((0, 1, 0),)),
                  ledger=side.ledger.__class__((), None))
    with pytest.raises(BasisMismatch):
        potential_from_ledger(bad)
