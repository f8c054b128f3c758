"""Canonical exact arithmetic over Z, Z/n, Q and prime fields.

reduce gives canonical plain representatives: residues in [0, n), and
rationals in lowest terms with positive denominator.  RingElement, a value
that carries its ring, is the reference arithmetic, built only where ring
arithmetic is wanted.  No floating point is used anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InfiniteRing, NonInvertibleDenominator, SchemaError

INTEGERS = "Z"
INTEGERS_MOD = "Z/n"
RATIONALS = "Q"
PRIME_FIELD = "F_p"


# With the first 13 primes as bases, Miller-Rabin is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin.  Raises ValueError for p at or above
    _MR_LIMIT, where these bases no longer decide primality exactly."""
    if p >= _MR_LIMIT:
        raise ValueError(f"cannot decide exactly whether {p} is prime; "
                         f"prime fields need p < {_MR_LIMIT}")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Ring:
    """One of Z, Z/n (n >= 2), Q, or F_p (p prime).

    >>> Ring.parse("Z/8").name
    'Z/8'
    >>> Ring.parse("F5").is_finite
    True
    """

    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind == INTEGERS_MOD:
            if self.modulus is None or self.modulus < 2:
                raise ValueError("Z/n requires n >= 2")
        elif self.kind == PRIME_FIELD:
            if self.modulus is None or not _is_prime(self.modulus):
                raise ValueError("prime field requires a prime modulus")
        elif self.kind in (INTEGERS, RATIONALS):
            if self.modulus is not None:
                raise ValueError("modulus only applies to finite rings")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

    @classmethod
    def integers(cls) -> "Ring":
        return cls(INTEGERS)

    @classmethod
    def integers_mod(cls, n: int) -> "Ring":
        return cls(INTEGERS_MOD, n)

    @classmethod
    def rationals(cls) -> "Ring":
        return cls(RATIONALS)

    @classmethod
    def prime_field(cls, p: int) -> "Ring":
        return cls(PRIME_FIELD, p)

    @classmethod
    def parse(cls, name: str) -> "Ring":
        """Parse "Z", "Z/<n>", "Q" or "F<p>", n and p in ASCII digits."""
        name = name.strip()
        if name == "Z":
            return cls.integers()
        if name == "Q":
            return cls.rationals()
        if match := re.fullmatch(r"(Z/|F)([0-9]+)", name):
            kind = INTEGERS_MOD if match[1] == "Z/" else PRIME_FIELD
            return cls(kind, int(match[2]))
        raise ValueError(f"cannot parse ring name {name!r}")

    @property
    def name(self) -> str:
        if self.kind == INTEGERS:
            return "Z"
        if self.kind == RATIONALS:
            return "Q"
        if self.kind == INTEGERS_MOD:
            return f"Z/{self.modulus}"
        return f"F{self.modulus}"

    @property
    def is_finite(self) -> bool:
        return self.kind in (INTEGERS_MOD, PRIME_FIELD)


@dataclass(frozen=True)
class RingElement:
    """A canonical representative together with its ring."""

    ring: Ring
    value: object  # int for Z and finite rings, Fraction for Q

    def _check(self, other: "RingElement"):
        if not isinstance(other, RingElement) or other.ring != self.ring:
            raise ValueError("ring mismatch in arithmetic")

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, reduce(self.value + other.value,
                                             self.ring))

    def __mul__(self, other):
        self._check(other)
        return RingElement(self.ring, reduce(self.value * other.value,
                                             self.ring))

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_unit(self) -> bool:
        if self.ring.kind == INTEGERS:
            return self.value in (1, -1)
        if self.ring.kind == RATIONALS:
            return self.value != 0
        return gcd(int(self.value), self.ring.modulus) == 1

    def inverse(self) -> "RingElement":
        if not self.is_unit:
            raise NonInvertibleDenominator(
                f"{self.value} is not a unit in {self.ring.name}")
        return RingElement(self.ring, reduce(Fraction(1, self.value), self.ring))

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if self.ring.is_finite:
            return RingElement(self.ring,
                               pow(self.value, exponent, self.ring.modulus))
        return RingElement(self.ring, self.value ** exponent)

    def __repr__(self):
        return f"{self.value} in {self.ring.name}"


def reduce(x, ring: Ring):
    """The canonical plain representative of an int or a Fraction:
    an int in [0, n) over Z/n and F_p, an int over Z, a Fraction over Q.

    Fractions are only accepted when the denominator is invertible; in Z/n
    that means gcd(denominator, n) = 1.

    >>> reduce(16, Ring.parse("Z/8"))
    0
    >>> reduce(Fraction(4, 6), Ring.parse("Q"))
    Fraction(2, 3)
    """
    if type(x) is int:   # not a bool
        if ring.modulus is not None:
            return x % ring.modulus
        return x if ring.kind == INTEGERS else Fraction(x)
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"cannot reduce {x!r} into {ring.name}")
    frac = Fraction(x)
    if ring.kind == RATIONALS:
        return frac
    if ring.kind == INTEGERS:
        if frac.denominator != 1:
            raise NonInvertibleDenominator(
                f"{frac} has no integer representative")
        return frac.numerator
    n = ring.modulus
    num, den = frac.numerator, frac.denominator
    if den != 1:
        if gcd(den, n) != 1:
            raise NonInvertibleDenominator(
                f"denominator {den} is a zero divisor in {ring.name}")
        return (num * pow(den, -1, n)) % n
    return num % n


def units_of(ring: Ring) -> list[RingElement]:
    """All invertible elements of a finite ring, sorted by representative.

    >>> [u.value for u in units_of(Ring.parse("Z/8"))]
    [1, 3, 5, 7]
    """
    if not ring.is_finite:
        raise InfiniteRing(f"{ring.name} has infinitely many elements")
    n = ring.modulus
    return [RingElement(ring, x) for x in range(n) if gcd(x, n) == 1]


def _is_integer(text: str) -> bool:
    """Is text an optional sign and ASCII digits?  int() would also take '_'
    separators, blanks and the digits of other scripts."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits.isascii() and digits.isdigit()


def parse_integer(text: str) -> int:
    """Parse an optional sign and ASCII digits; blanks around them are
    stripped."""
    text = text.strip()
    if not _is_integer(text):
        raise ValueError(f"{text!r} is not an integer: give it as ASCII "
                         f"digits with an optional sign")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" with arbitrary-precision integers, each an
    optional sign and ASCII digits; blanks around the whole are stripped.

    Decimal notation is rejected on purpose: all inputs must be exact.
    """
    text = text.strip()
    num, slash, den = text.partition("/")
    if not (_is_integer(num) and (_is_integer(den) or not slash)):
        raise ValueError(f"{text!r} is not an exact rational: give it as "
                         f"p/q or p, with integers p and q")
    num, den = int(num), int(den) if slash else 1
    if den == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def rational_from(value, where) -> Fraction:
    """A document's rational: an int or a "p/q" string, else SchemaError."""
    if isinstance(value, str):
        if value == "inf":
            raise SchemaError(f"{where}: 'inf' not allowed here")
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise SchemaError(f"{where}: bad rational {value!r}") from exc
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise SchemaError(f"{where}: expected a rational string, got {value!r}")


def rational_str(x) -> str:
    """Serialize a rational as "p/q" (q > 0, lowest terms) or "p"."""
    frac = x if type(x) is Fraction else Fraction(x)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"
