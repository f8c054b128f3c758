import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from floerdisk.errors import InfiniteRing, NonInvertibleDenominator, SchemaError
from floerdisk.rings import (Ring, RingElement, _is_prime, parse_integer,
                             parse_rational, rational_from, rational_str,
                             reduce, units_of)

from oracles import brute_force_units

Z = Ring.integers()
Q = Ring.rationals()
Z8 = Ring.integers_mod(8)


def element(v, ring):
    """v reduced into the ring, as a RingElement for the reference
    arithmetic."""
    return RingElement(ring, reduce(v, ring))


def test_parse_and_names():
    for name in ["Z", "Q", "Z/8", "Z/2", "F5", "F2"]:
        assert Ring.parse(name).name == name


def test_parse_takes_only_ascii_digits():
    # int() would read each of these as 8, 1000 or 7
    for name in ["Z/ 8", "Z/+8", "Z/1_000", "F 7", "F+7", "Z/\u0668", "Z/8 8",
                 "Z/", "F", "Z/x"]:
        with pytest.raises(ValueError, match="cannot parse ring name"):
            Ring.parse(name)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        Ring.prime_field(6)
    with pytest.raises(ValueError):
        Ring.parse("F9")


def test_is_prime_matches_trial_division():
    for p in range(10_000):
        assert _is_prime(p) == (p > 1 and all(p % d for d in range(2, p)
                                              if d * d <= p)), p


def test_prime_field_large_moduli():
    assert Ring.parse("F1000000000000000009").modulus == 10**18 + 9
    with pytest.raises(ValueError):   # 101 * 9901 * 999999000001
        Ring.parse("F1000000000000000001")
    # the 13 Miller-Rabin bases are exact only below this bound
    with pytest.raises(ValueError):
        Ring.prime_field(3_317_044_064_679_887_385_961_981)


def repeated_power(x, exponent):
    base = x if exponent >= 0 else x.inverse()
    result = RingElement(x.ring, reduce(1, x.ring))
    for _ in range(abs(exponent)):
        result = result * base
    return result


def test_pow_matches_repeated_multiplication():
    samples = {Z: [-1, 0, 1, 3, -2], Q: [Fraction(-3, 2), Fraction(5)],
               Ring.integers_mod(12): [0, 4, 5, 7], Ring.prime_field(7): [3, 6]}
    for ring, values in samples.items():
        for v in values:
            x = element(v, ring)
            for e in range(-5, 41):
                if e < 0 and not x.is_unit:
                    with pytest.raises(NonInvertibleDenominator):
                        x ** e
                    continue
                got = x ** e
                want = repeated_power(x, e)
                assert got == want and type(got.value) is type(want.value)


def test_modulus_bounds():
    with pytest.raises(ValueError):
        Ring.integers_mod(1)


def test_reduce_examples():
    assert reduce(-8, Z8) == 0
    assert reduce(16, Z8) == 0
    assert reduce(Fraction(4, 6), Q) == Fraction(2, 3)
    assert reduce(Fraction(1, 3), Z8) == 3  # 3 * 3 = 9 = 1 mod 8


def test_reduce_keeps_an_int_over_z_and_makes_a_fraction_over_q():
    for x in (5, -7, 0, 10 ** 30):
        assert type(reduce(x, Z)) is int and reduce(x, Z) == x
        assert type(reduce(x, Q)) is Fraction and reduce(x, Q) == x
        assert type(reduce(x, Z8)) is int and reduce(x, Z8) == x % 8
    assert type(reduce(Fraction(6, 3), Z)) is int
    assert type(reduce(Fraction(6, 3), Q)) is Fraction
    for ring in (Z, Q):
        for x in (True, False):
            with pytest.raises(TypeError, match="cannot reduce"):
                reduce(x, ring)


def test_reduce_noninvertible_denominator():
    with pytest.raises(NonInvertibleDenominator):
        reduce(Fraction(1, 2), Z8)
    with pytest.raises(NonInvertibleDenominator):
        reduce(Fraction(1, 2), Z)


def test_units_examples():
    assert [u.value for u in units_of(Z8)] == [1, 3, 5, 7]
    assert [u.value for u in units_of(Ring.integers_mod(2))] == [1]
    assert [u.value for u in units_of(Ring.prime_field(5))] == [1, 2, 3, 4]


def test_units_infinite_ring():
    with pytest.raises(InfiniteRing):
        units_of(Z)
    with pytest.raises(InfiniteRing):
        units_of(Q)


def test_units_against_brute_force():
    for n in range(2, 65):
        ring = Ring.integers_mod(n)
        assert [u.value for u in units_of(ring)] == brute_force_units(n)


def test_reduce_idempotent():
    rng = random.Random(11)
    for ring in [Z, Q, Z8, Ring.integers_mod(12), Ring.prime_field(7)]:
        for _ in range(200):
            x = rng.randint(-1000, 1000)
            once = reduce(x, ring)
            assert reduce(once, ring) == once


def test_reduce_is_ring_homomorphism():
    rng = random.Random(7)
    for ring in [Z, Q, Z8, Ring.integers_mod(12), Ring.prime_field(7)]:
        for _ in range(1000):
            a = rng.randint(-500, 500)
            b = rng.randint(-500, 500)
            assert element(a + b, ring) == element(a, ring) + element(b, ring)
            assert element(a * b, ring) == element(a, ring) * element(b, ring)


def test_inverse_and_pow():
    five = element(5, Z8)
    assert (five * five.inverse()).value == 1
    assert (five ** -1) == five.inverse()
    assert (element(3, Q) ** -2).value == Fraction(1, 9)
    with pytest.raises(NonInvertibleDenominator):
        element(2, Z8).inverse()


def test_rational_io():
    assert parse_rational("1/10") == Fraction(1, 10)
    assert parse_rational("-7") == Fraction(-7)
    assert rational_str(Fraction(9, 20)) == "9/20"
    assert rational_str(Fraction(4)) == "4"
    with pytest.raises(ValueError):
        parse_rational("0.5")


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")


def test_a_decimal_is_refused_by_name():
    for text in ("0.1", "1e-1", "3/", "1/2.5", "1_0/2_0", "\u0661/\u0662",
                 "3 / 4", "1/ 2"):
        with pytest.raises(ValueError, match=f"'{text}' is not an exact "
                                             f"rational: give it as p/q"):
            parse_rational(text)
    with pytest.raises(SchemaError, match=r"x: bad rational '0\.1'"):
        rational_from("0.1", "x")


def test_rational_from_documents():
    assert rational_from("3/6", "x") == Fraction(1, 2)
    assert rational_from(-4, "x") == Fraction(-4)
    for bad in ("inf", "1/0", "0.5", 0.5, True, None, [1]):
        with pytest.raises(SchemaError):
            rational_from(bad, "x")


def test_exact_numbers_take_signs_and_surrounding_blanks():
    assert parse_rational(" -3/-6\t") == Fraction(1, 2)
    assert parse_rational("+7") == Fraction(7)
    assert parse_integer(" -0012 ") == -12
    for bad in ("1_0", "\u0663", "1 2", "", "+", "--1", "0x10"):
        with pytest.raises(ValueError, match="is not an integer"):
            parse_integer(bad)


def _reduce_as_written_before_residue(x, ring):
    """reduce as it was written before its plain int fast path, kept here
    so that a fault in that path still shows."""
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"cannot reduce {x!r} into {ring.name}")
    if ring.kind == "Q":
        return Fraction(x)
    frac = Fraction(x)
    if ring.kind == "Z":
        if frac.denominator != 1:
            raise NonInvertibleDenominator(
                f"{frac} has no integer representative")
        return int(frac)
    n = ring.modulus
    num, den = frac.numerator, frac.denominator
    if den != 1:
        if gcd(den, n) != 1:
            raise NonInvertibleDenominator(
                f"denominator {den} is a zero divisor in {ring.name}")
        return (num * pow(den, -1, n)) % n
    return num % n


RESIDUE_RINGS = ([Z, Q] + [Ring.integers_mod(n) for n in range(2, 65)]
                 + [Ring.prime_field(p) for p in range(100) if _is_prime(p)])


@st.composite
def ring_and_number(draw):
    """A ring and an int, a bool or a Fraction whose denominator often
    shares a factor with the ring's modulus."""
    ring = draw(st.sampled_from(RESIDUE_RINGS))
    n = ring.modulus or draw(st.integers(2, 64))
    factor = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    den = factor * draw(st.integers(1, 30))
    number = draw(st.one_of(
        st.integers(-10 ** 30, 10 ** 30), st.booleans(),
        st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.just(den))))
    return ring, number


def _outcome(reduction, x, ring):
    try:
        value = reduction(x, ring)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return type(value), value


@settings(max_examples=500)
@given(ring_and_number())
def test_residue_matches_reduce(case):
    ring, x = case
    expected = _outcome(_reduce_as_written_before_residue, x, ring)
    assert _outcome(reduce, x, ring) == expected


def test_residue_refuses_bools_and_ring_elements():
    for ring in (Z, Q, Z8, Ring.prime_field(7)):
        for x in (True, False, RingElement(ring, reduce(5, ring))):
            with pytest.raises(TypeError, match="cannot reduce"):
                reduce(x, ring)
