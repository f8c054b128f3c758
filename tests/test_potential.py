import io
import json
import random
import re
import time
from fractions import Fraction
from math import isqrt, lcm

import pytest
from hypothesis import given, settings, strategies as st

from floerdisk import potential
from floerdisk.cli import main
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
from test_probes import _random_unimodular

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
    assert not potential_from_ledger(side).terms


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
    assert not truncate_to_level(p, F(1, 3)).terms
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


def _random_term_list(rng):
    """Terms over several levels, each t_exp an int or an equal Fraction,
    with repeated monomials whose coefficients often cancel."""
    monomials = [(rng.choice([0, 1, F(1, 3), F(2, 5)]), rng.randint(-2, 2),
                  rng.randint(-2, 2), rng.randint(0, 1))
                 for _ in range(rng.randint(1, 5))]
    terms = []
    for _ in range(rng.randint(0, 10)):
        t, z, w, ec = rng.choice(monomials)
        c = F(rng.randint(-3, 3), rng.randint(1, 3))
        t = rng.choice([t, F(t)]) if t == int(t) else t
        terms.append(NovikovTerm(c, t, bulk_exp=ec, z_exp=z, w_exp=w))
        if rng.randint(0, 2) == 0:   # cancelled later in the list
            terms.append(NovikovTerm(-c, F(t), bulk_exp=ec, z_exp=z, w_exp=w))
    rng.shuffle(terms)
    return terms


def test_canonical_form_matches_its_set_definitions():
    rng = random.Random(29)
    seen_levels, seen_cancel = set(), 0
    for _ in range(500):
        terms = _random_term_list(rng)
        sums = {}
        for t in terms:
            key = (F(t.t_exp), t.z_exp, t.w_exp, t.bulk_exp)
            sums[key] = sums.get(key, 0) + t.coeff
        expected = sorted((k, c) for k, c in sums.items() if c)
        seen_cancel += len(sums) - len(expected)
        p = NovikovPolynomial.from_terms(terms)
        assert [(t.key, t.coeff) for t in p.terms] == expected
        assert all(type(t.coeff) is F and type(t.t_exp) is F
                   for t in p.terms)
        levels = sorted({t.t_exp for t in p.terms})
        assert p.t_levels() == levels
        seen_levels.add(len(levels))
        for level in levels + [F(1, 7)]:
            for given in {level, level.numerator if level.denominator == 1
                          else level}:
                assert truncate_to_level(p, given).terms == tuple(
                    t for t in p.terms if t.t_exp == level)
                assert truncate_to_level(p, given) == \
                    NovikovPolynomial.from_terms(
                        t for t in terms if F(t.t_exp) == level)
    assert seen_levels >= {0, 1, 2, 3} and seen_cancel > 50


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
    assert not partial_derivative(constant, "z").terms


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
        if not m.terms:
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


def test_branch_at_a_root_that_is_not_an_integer():
    # W = z(w^2 - w) + z^2/16: the w-derivative z(2w - 1) vanishes at
    # w0 = 1/2, where dW/dz = (1/4 - 1/2) + z/8 balances at z = 2
    p = NovikovPolynomial.from_terms([term(-1, 0, z=1, w=1),
                                      term(1, 0, z=1, w=2),
                                      term(F(1, 16), 0, z=2)])
    (branch,) = unit_critical_analysis(p).branches
    assert branch.w0 == F(1, 2) and branch.candidate
    assert branch.residue_rational_root == 2


def test_branch_root_is_read_at_the_least_level():
    # W = t^(1/3) (w^2/2 - w + z + z^2/2) + t^(1/5) (z - z^2/4): on the
    # branch w0 = 1, dW/dz is t^(1/5) (1 - z/2) + t^(1/3) (1 + z), which
    # balances at valuation zero on the least level 1/5, where z = 2; the
    # level 1/3 (written (1, 3), before (1, 5) as a pair) would give -1
    p = NovikovPolynomial.from_terms([
        term(F(1, 2), F(1, 3), w=2), term(-1, F(1, 3), w=1),
        term(1, F(1, 3), z=1), term(F(1, 2), F(1, 3), z=2),
        term(1, F(1, 5), z=1), term(F(-1, 4), F(1, 5), z=2)])
    (branch,) = unit_critical_analysis(p).branches
    assert branch.w0 == 1 and branch.candidate
    assert branch.residue_rational_root == 2
    assert unit_critical_analysis(p) == reference_unit_critical_analysis(p)


def test_unsupported_shape():
    mixed = NovikovPolynomial.from_terms(
        [term(1, 0, z=0, w=1), term(1, 0, z=1, w=2)])
    with pytest.raises(UnsupportedShape):
        unit_critical_analysis(mixed)
    constant = NovikovPolynomial.from_terms([term(1, 0, z=2)])
    with pytest.raises(UnsupportedShape):
        unit_critical_analysis(constant)


@pytest.mark.parametrize("alpha, count, what", [
    ((1, 2, 10 ** 6), 1, "span of the w exponents"),
    ((1, 2), 2 ** 31 - 1, "trial division")])
def test_unit_analysis_is_bounded_before_it_starts(tmp_path, alpha, count,
                                                   what):
    # disks at one area with boundaries (0, e): a document validate accepts
    doc = builtin_scenario("cp2_ta", {"a": F(1, 10)}).to_json_dict()
    doc["sides"][0]["ledger"]["disks"] = [
        {"label": f"d{e}", "rel_class": [0, 0, e], "boundary": [0, e],
         "maslov": 2, "area": "1/10", "count": count} for e in alpha]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)], out=io.StringIO()) == 0
    out = io.StringIO()
    started = time.perf_counter()
    code = main(["potential", "--scenario", str(path), "--analyze-units"],
                out=out)
    assert time.perf_counter() - started < 1
    error = json.loads(out.getvalue())["error"]
    assert code == 4 and error["type"] == "UnsupportedShape"
    assert what in error["message"]
    assert f"budget of {potential.UNIT_WORK_BUDGET}" in error["message"]


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
    # roots (1, 3) and (6, 4) mod 7: the z-partial's rows at z and -z mod 49
    # agree, but the candidate ws above the two roots differ, so a zero set
    # scanned above one root must not be reused above the other
    "two_roots": NovikovPolynomial.from_terms([
        term(2, 0, w=2), term(3, 0, z=1, w=3), term(-2, 0, z=3, w=1)]),
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


# The budget each search charged and its outcome (points, or "refused") at
# the commit before rows and shared zero sets, per builtin over the rings of
# ROADMAP item O, and Z/4, where a compiled coefficient can vanish.  "-"
# skips a Z/65536 search bound by its 65,536 output pairs: each takes about
# a second, and cp2_ta:a=1/5 runs the same stages.
O_RINGS = ["Z/4", "Z/8", "Z/128", "Z/1024", "Z/65536", "Z/27", "Z/243",
           "Z/2187", "Z/3125", "Z/720", "Z/4096"]
O_CHARGES = {
    "cp2_ta:a=1/5": "84:4 361:16 4713:128 36969:1024 2359401:65536 668:18 "
                    "6212:162 56108:1458 118080:2500 8551:384 147561:4096",
    "cp2_ta:a=1/3": "5:0 6:0 6:0 6:0 6:0 288:3 612:3 936:3 712:1 6:0 6:0",
    "cp2_clifford": "36:1 52:1 116:1 164:1 260:1 208:3 424:3 640:3 480:1 "
                    "280:3 196:1",
    "p1xp1_ta:a=1/5": "89:4 233:8 4553:128 36809:1024 - 668:18 6212:162 "
                      "56108:1458 118080:2500 8391:384 147401:4096",
    "p1xp1_clifford": "84:4 340:16 1364:16 2132:16 3668:16 368:4 656:4 "
                      "944:4 1728:4 5940:256 2644:16",
    "bl3_ta:a=1/5": "89:4 233:8 4553:128 36809:1024 - 668:18 6212:162 "
                    "56108:1458 118080:2500 8391:384 147401:4096",
    "bl3_clifford": "69:4 277:16 70997:4096 349525:refused 349525:refused "
                    "5548:324 449428:26244 265720:refused 260416:refused "
                    "627853:36864 349525:refused",
    "ts2_la:a=1/5": "89:4 233:8 4553:128 36809:1024 - 668:18 6212:162 "
                    "56108:1458 118080:2500 8391:384 147401:4096",
    "trp2_la:a=1/5": "84:4 361:16 4713:128 36969:1024 - 668:18 6212:162 "
                     "56108:1458 118080:2500 8551:384 147561:4096",
}


@pytest.mark.parametrize("name", sorted(O_CHARGES))
def test_residue_charges_and_refusals_do_not_move(monkeypatch, name):
    budgets = []

    class Recorded(potential._WorkBudget):
        def __init__(self, ring_name):
            super().__init__(ring_name)
            budgets.append(self)

    monkeypatch.setattr(potential, "_WorkBudget", Recorded)
    base, _, a = name.partition(":a=")
    side = builtin_scenario(base, {"a": F(a)} if a else None).side
    p = potential_from_ledger(side)
    low = truncate_to_level(p, p.t_levels()[0]) if p.t_levels() else p
    for ring, cell in zip(O_RINGS, O_CHARGES[name].split()):
        if cell == "-":
            continue
        budgets.clear()
        try:
            outcome = str(len(residue_critical_points(low, Ring.parse(ring))))
        except ResidueSearchTooLarge:
            outcome = "refused"
        assert f"{budgets[0].spent}:{outcome}" == cell, ring


def test_largest_accepted_prime_field_search_is_fast():
    # 772^2 candidates times five compiled terms is within the budget; the
    # terms of each partial share one z exponent, so each row is scanned once
    low = RESIDUE_POLYS["cp2_a=1/5"]
    start = time.perf_counter()
    points = residue_critical_points(low, Ring.prime_field(773))
    assert time.perf_counter() - start < 1
    assert points == [(z, 772) for z in range(1, 773)]


coefficients = st.builds(F, st.integers(-9, 9), st.integers(1, 7))
exponents = st.integers(-4, 4)


@st.composite
def laurent_polynomials(draw):
    """Single-level polynomials of 1-6 terms; sometimes every z or every w
    exponent is 0, so that one partial is zero."""
    flat = draw(st.sampled_from([None, "z", "w"]))
    terms = draw(st.lists(st.builds(
        lambda c, ec, z, w: term(c, F(1, 5), ec=ec, z=0 if flat == "z" else z,
                                 w=0 if flat == "w" else w),
        coefficients, st.integers(0, 2), exponents, exponents),
        min_size=1, max_size=6))
    return NovikovPolynomial.from_terms(terms)


@settings(max_examples=200)
@given(laurent_polynomials(),
       st.sampled_from([Ring.integers_mod(n) for n in range(2, 65)]
                       + [Ring.prime_field(p) for p in range(2, 100)
                          if all(p % d for d in range(2, p))]))
def test_residue_matches_plain_search_on_random_polynomials(p, ring):
    try:
        expected = plain_residue_critical_points(p, ring.modulus)
    except ValueError:   # a denominator is a zero divisor mod n
        with pytest.raises(NonInvertibleDenominator):
            residue_critical_points(p, ring)
        return
    assert residue_critical_points(p, ring) == expected


def _shaped_polynomial(rng, shape):
    """A random single-level polynomial whose two partials are both z-free
    (one z exponent each), only the w-partial z-free, or neither."""
    nonzero = [e for e in range(-3, 4) if e]
    z0 = rng.choice(nonzero)

    def some(z, w):
        return term(F(rng.choice(nonzero), rng.choice([1, 1, 2, 3])), 0,
                    ec=rng.randint(0, 2), z=z, w=w)

    # terms at z0 alone give each partial one z exponent
    terms = [some(z0, w) for w in [rng.choice(nonzero)] + [
        rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]]
    if shape != "both z-free":
        # a term free of w adds a second z exponent to the z-partial only
        terms.append(some(rng.choice([e for e in nonzero if e != z0]), 0))
    if shape == "neither":
        terms.append(some(rng.choice([e for e in nonzero if e != z0]),
                          rng.choice(nonzero)))
    return NovikovPolynomial.from_terms(terms)


@pytest.mark.parametrize("shape", ["both z-free", "one z-free", "neither"])
def test_residue_matches_plain_search_on_each_shape_of_partials(shape):
    rng = random.Random(f"residue blocks {shape}")
    for _ in range(3):
        p = _shaped_polynomial(rng, shape)
        partials = potential._compile_partials(p, Ring.prime_field(101))
        assert [len({ze for _, ze, _ in terms}) > 1 for terms in partials] \
            == {"both z-free": [False, False], "one z-free": [True, False],
                "neither": [True, True]}[shape], p
        for ring in RESIDUE_RINGS:
            try:
                expected = plain_residue_critical_points(p, ring.modulus)
            except ValueError:   # a denominator is a zero divisor mod n
                with pytest.raises(NonInvertibleDenominator):
                    residue_critical_points(p, ring)
                continue
            assert residue_critical_points(p, ring) == expected, (p, ring)


def test_z_varying_partial_is_evaluated_only_where_the_z_free_one_vanishes(
        monkeypatch):
    # At a = 1/3 the w-partial z^-2 (1 - w^-2) is z-free and vanishes only
    # at w = 1 and w = -1, while the z-partial's row changes with z.  Each
    # evaluation of a row at one w multiplies the row's first coefficient.
    evaluated = []

    class Counted(int):
        def __mul__(self, other):
            evaluated.append(other)
            return int(self) * other

        __rmul__ = __mul__

    row = potential._row

    def counted_row(terms, z_powers, q):
        out = row(terms, z_powers, q)
        if out and len({ze for _, ze, _ in terms}) > 1:
            (we, c), *rest = out
            out = ((we, Counted(c)), *rest)
        return out

    monkeypatch.setattr(potential, "_row", counted_row)
    points = residue_critical_points(RESIDUE_POLYS["cp2_a=1/3"],
                                     Ring.prime_field(653))
    # the z-partial at w = 1 is 1 - 8 z^-3, and it is 1 at w = -1
    assert points == [(2, 1)]
    assert 0 < len(evaluated) <= 2 * 652


# --- changes of basis on H1(L) -------------------------------------------------

def _rebased(p, mat):
    """The potential in the basis of H1(L) that mat changes to: the monomial
    z^m w^n becomes z^m' w^n', with (m', n') = mat (m, n)."""
    (a, b), (c, d) = mat
    return NovikovPolynomial.from_terms(
        NovikovTerm(t.coeff, t.t_exp, t.bulk_exp, a * t.z_exp + b * t.w_exp,
                    c * t.z_exp + d * t.w_exp) for t in p.terms)


def _pulled_back(mat, point, n):
    """The unit pair (z, w) = (z'^a w'^c, z'^b w'^d) mod n at the unit pair
    (z', w') of the new basis, so that z^m w^n = z'^m' w'^n'."""
    (a, b), (c, d) = mat
    z, w = point
    return (pow(z, a, n) * pow(w, c, n) % n, pow(z, b, n) * pow(w, d, n) % n)


# no modulus divisible by 7, which the synthetic polynomial divides by
CHART_RINGS = [Ring.parse(name) for name in
               ("Z/8", "Z/9", "Z/12", "Z/25", "F5", "F11", "F13", "F31")]


@pytest.mark.parametrize("name", sorted(RESIDUE_POLYS))
def test_residue_points_correspond_in_every_basis_of_h1(name):
    # the rebased potential's logarithmic partials (z d/dz, w d/dw) are mat
    # times the old ones at the corresponding point, and mat is invertible
    # over every ring, so the monomial map is a bijection of the unit
    # critical points
    rng = random.Random(f"charts:{name}")
    p = RESIDUE_POLYS[name]
    for ring in CHART_RINGS:
        points = residue_critical_points(p, ring)
        for _ in range(4):
            mat = _random_unimodular(rng)
            moved = residue_critical_points(_rebased(p, mat), ring)
            assert sorted(_pulled_back(mat, point, ring.modulus)
                          for point in moved) == points, (ring, mat)


# z -> z^s and w -> w^t: the changes of basis that keep the analysis' shape
# (one head for the terms with a w) on every builtin
SIGN_CHANGES = [((s, 0), (0, t)) for s in (1, -1) for t in (1, -1)]


@pytest.mark.parametrize("p", [
    cp2_potential(a, hits) for a in (F(1, 10), F(1, 5), F(1, 3))
    for hits in (None, {"b": 1})] + [
    potential_from_ledger(builtin_scenario("p1xp1_ta", {"a": F(1, 5)}).side),
    # the branch w0 = 1/2 of test_branch_at_a_root_that_is_not_an_integer
    NovikovPolynomial.from_terms([term(-1, 0, z=1, w=1), term(1, 0, z=1, w=2),
                                  term(F(1, 16), 0, z=2)])])
def test_unit_analysis_valuations_transform_with_the_basis(p):
    # the valuation of a critical point is linear in the basis: w0 goes to
    # w0^t, and each Newton valuation v of z on its branch to s * v
    report = unit_critical_analysis(p)
    for mat in SIGN_CHANGES:
        (s, _), (_, t) = mat
        moved = unit_critical_analysis(_rebased(p, mat))
        assert moved.has_unit_candidate == report.has_unit_candidate
        before = {branch.w0 ** t: branch for branch in report.branches}
        assert sorted(branch.w0 for branch in moved.branches) == sorted(before)
        for branch in moved.branches:
            old = before[branch.w0]
            assert branch.valuations == tuple(sorted(s * v for v in
                                                     old.valuations))
            assert (branch.candidate, branch.any_unit_z) == (
                old.candidate, old.any_unit_z)
            assert (branch.residue_rational_root is None) == (
                old.residue_rational_root is None)


def test_potential_echoes_one_ring_name():
    out = io.StringIO()
    assert main(["potential", "--builtin", "cp2_ta:a=1/5",
                 "--residue-ring", " Z/08 "], out=out) == 0
    report = json.loads(out.getvalue())
    assert report["options"]["residue_ring"] == "Z/8"
    assert report["result"]["residue_ring"] == "Z/8"


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


# --- the unit analysis against its Fraction reference ---------------------------

def reference_rational_roots(coeffs: dict) -> list:
    """``potential._rational_roots`` as it was on Fraction coefficients:
    clear the denominators, then try every candidate as a Fraction power
    sum."""
    coeffs = {e: c for e, c in coeffs.items() if c}
    if len(coeffs) <= 1:
        return []
    low, degree = min(coeffs), max(coeffs) - min(coeffs)
    den = lcm(*(c.denominator for c in coeffs.values()))
    ints = {e - low: int(c * den) for e, c in coeffs.items()}
    a0, an = abs(ints[0]), abs(ints[degree])
    potential._charge_units(isqrt(a0) + isqrt(an),
                            "trial division in the rational root test")

    def divisors(n):
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return out

    tops, bottoms = divisors(a0), divisors(an)
    potential._charge_units(2 * len(tops) * len(bottoms) * degree,
                            f"the rational root test at degree {degree}")
    roots = set()
    for p in tops:
        for q in bottoms:
            for sign in (1, -1):
                candidate = Fraction(sign * p, q)
                if sum(c * candidate ** e for e, c in ints.items()) == 0:
                    roots.add(candidate)
    return sorted(roots)


def reference_unit_critical_analysis(p):
    """``unit_critical_analysis`` as it was on Fraction keys: both partials
    through ``partial_derivative``, every branch collapsed in Fractions."""
    pw = partial_derivative(p, "w")
    if not pw.terms:
        raise UnsupportedShape(
            "w-derivative vanishes identically; outside the supported family")
    heads = {(t.t_exp, t.z_exp, t.bulk_exp) for t in pw.terms}
    if len(heads) != 1:
        raise UnsupportedShape(
            "w-derivative does not factor through a single w-polynomial")
    w_exps = [t.w_exp for t in p.terms]
    low, high = min(w_exps), max(w_exps)
    potential._charge_units(high - low, "the span of the w exponents")

    pz = partial_derivative(p, "z")
    branches = []
    for w0 in reference_rational_roots({t.w_exp: t.coeff
                                        for t in pw.terms}):
        u, v = w0.numerator, w0.denominator
        collapsed = {}
        for t in pz.terms:
            key = (t.t_exp, t.z_exp, t.bulk_exp)
            collapsed[key] = collapsed.get(key, Fraction(0)) \
                + t.coeff * u ** (t.w_exp - low) * v ** (high - t.w_exp)
        support = {(te, ze) for (te, ze, _), c in collapsed.items() if c != 0}
        if not support:
            branches.append(potential.BranchReport(
                w0, (), True, None, True,
                "z-derivative vanishes identically on this branch; every "
                "unit z is critical"))
            continue
        if len({ze for _, ze in support}) < 2:
            branches.append(potential.BranchReport(
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
            roots = reference_rational_roots(achievers)
            root = roots[0] if roots else None
        note = ("balances at valuation zero" if candidate
                else "no valuation-zero balance; any solution has "
                     "non-unit z")
        branches.append(potential.BranchReport(w0, vals, False, root,
                                               candidate, note))
    return potential.CriticalReport(any(b.candidate for b in branches),
                                    tuple(branches))


def analysis_outcome(analysis, p):
    """The report as a dict, or the refusal as its type and message."""
    try:
        return analysis(p).as_dict()
    except Exception as exc:  # compared by type and message
        return type(exc).__name__, str(exc)


PLANTED_ROOTS = [F(1, 2), F(-3), F(2, 3), F(1), F(-1), F(-1, 2), F(3, 2)]
LEVELS = [F(0), F(1, 5), F(1, 3), F(2, 5)]
# end coefficients with many divisors, or whose trial division alone
# passes the unit budget
SCALES = [1, 1, 1, 1, 5040, 720720, 2 ** 31 - 1]


def one_head_polynomial(integer, choice):
    """W = t^a z^k e^(c b) f(w) + w-free terms, where f' is w^s times
    linear factors with planted roots, a small cofactor and a rational
    scale; so dW/dw factors through one w-polynomial.  One in ten has a w
    exponent far enough out to pass the unit budget.

    integer(lo, hi) and choice(seq) draw the parameters: from hypothesis
    or from a seeded random.Random."""
    def coeff():
        return F(integer(-9, 9), integer(1, 7))

    derivative = {0: F(integer(1, 9), integer(1, 7)) * choice(SCALES)}
    for _ in range(integer(0, 3)):
        root, grown = choice(PLANTED_ROOTS), {}
        for e, c in derivative.items():   # times (q w - p), root = p/q
            grown[e + 1] = grown.get(e + 1, 0) + c * root.denominator
            grown[e] = grown.get(e, 0) - c * root.numerator
        derivative = grown
    for e in range(1, integer(1, 3)):
        derivative[e] = derivative.get(e, 0) + coeff()
    # shifted so that no w^-1 term needs integrating
    span = max(derivative)
    shift = (integer(0, 2) if integer(0, 1)
             else integer(-4 - span, -2 - span))
    if integer(0, 9) == 0:
        shift += potential.UNIT_WORK_BUDGET
    head_t, head_ec, head_z = choice(LEVELS), integer(0, 1), integer(-3, 3)
    terms = [term(F(c) / (e + shift + 1), head_t, ec=head_ec, z=head_z,
                  w=e + shift + 1) for e, c in derivative.items()]
    terms += [term(coeff(), choice(LEVELS), ec=integer(0, 2),
                   z=integer(-4, 4)) for _ in range(integer(0, 4))]
    return NovikovPolynomial.from_terms(terms)


def any_polynomial(integer, choice):
    """Up to six terms over several levels, most with w exponents under
    more than one head or with no w at all: mostly outside the supported
    family."""
    return NovikovPolynomial.from_terms(
        term(F(integer(-9, 9), integer(1, 7)), choice(LEVELS),
             ec=integer(0, 1), z=integer(-4, 4),
             w=choice([0, 0, 1, -1, 2, integer(-4, 4)]))
        for _ in range(integer(0, 6)))


@st.composite
def unit_analysis_inputs(draw):
    def integer(lo, hi):
        return draw(st.integers(lo, hi))

    def choice(seq):
        return draw(st.sampled_from(seq))

    return choice([one_head_polynomial, one_head_polynomial,
                   any_polynomial])(integer, choice)


@settings(max_examples=200)
@given(unit_analysis_inputs())
def test_unit_analysis_matches_its_fraction_reference(p):
    assert analysis_outcome(unit_critical_analysis, p) == \
        analysis_outcome(reference_unit_critical_analysis, p)


def test_unit_analysis_matches_its_reference_on_every_outcome():
    # the same comparison on seeded draws, which reach every kind of branch
    # and every refusal
    rng = random.Random(29)
    seen = set()
    for i in range(600):
        p = (any_polynomial if i % 3 == 2 else one_head_polynomial)(
            rng.randint, rng.choice)
        outcome = analysis_outcome(unit_critical_analysis, p)
        assert outcome == analysis_outcome(reference_unit_critical_analysis,
                                           p)
        if isinstance(outcome, tuple):
            seen.add(re.sub("[0-9]+", "#", outcome[1]))
        else:
            seen.update((b["note"].split(";")[0],
                         b["residue_rational_root"] is not None)
                        for b in outcome["branches"])
    budget = "exceeds the work budget of #"
    assert seen == {
        "w-derivative vanishes identically; outside the supported family",
        "w-derivative does not factor through a single w-polynomial",
        f"unit analysis: the span of the w exponents {budget}",
        f"unit analysis: trial division in the rational root test {budget}",
        f"unit analysis: the rational root test at degree # {budget}",
        ("z-derivative vanishes identically on this branch", False),
        ("single z-exponent survives", False),
        ("balances at valuation zero", True),
        ("balances at valuation zero", False),
        ("no valuation-zero balance", False)}
