"""Coefficient rings: the rationals, prime fields and the integers.

Ring elements are plain Python values (Fraction for Q, int for Z and F_p);
the ring object supplies the arithmetic so that sparse chains and the exact
linear algebra kernels can stay representation-agnostic.
"""

from __future__ import annotations

from fractions import Fraction


# Largest prime a prime field may have.  The primality test tries divisors up
# to the square root, 46341 at this limit (a few ms); a prime near 10^18 would
# need 10^9 of them, minutes of work.  The tests and the benchmark use F2, F3,
# F5 and F7.
MAX_PRIME = 2**31 - 1


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class CoefficientRing:
    """Base class; concrete rings are Rationals, Integers, PrimeField(p)."""

    tag: str
    is_field: bool

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        return self.normalize(a + b)

    def sub(self, a, b):
        return self.normalize(a - b)

    def neg(self, a):
        return self.normalize(-a)

    def mul(self, a, b):
        return self.normalize(a * b)

    def invert(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.invert(b))

    def is_zero(self, a) -> bool:
        return a == self.zero()

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def normalize(self, a):
        return a

    def parse(self, s: str):
        raise NotImplementedError

    def format(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, CoefficientRing) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return self.tag


class RationalField(CoefficientRing):
    tag = "Q"
    is_field = True

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def invert(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / Fraction(a)

    def is_unit(self, a):
        return a != 0

    def normalize(self, a):
        return Fraction(a)

    def parse(self, s):
        return Fraction(s)


class IntegerRing(CoefficientRing):
    tag = "Z"
    is_field = False

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return int(n)

    def invert(self, a):
        if a in (1, -1):
            return a
        raise ZeroDivisionError(f"{a} is not a unit in Z")

    def is_unit(self, a):
        return a in (1, -1)

    def normalize(self, a):
        return int(a)

    def parse(self, s):
        f = Fraction(s)
        if f.denominator != 1:
            raise ValueError(f"{s!r} is not an integer")
        return f.numerator


class PrimeField(CoefficientRing):
    is_field = True

    def __init__(self, p: int):
        if p > MAX_PRIME:  # before the primality test, whose time grows with sqrt(p)
            raise ValueError(f"a prime field above F{MAX_PRIME} is refused, got F{p}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.tag = f"F{p}"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def invert(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.tag}")
        return pow(a, self.p - 2, self.p)

    def is_unit(self, a):
        return a % self.p != 0

    def normalize(self, a):
        return a % self.p

    def parse(self, s):
        f = Fraction(s)
        return self.mul(self.from_int(f.numerator), self.invert(self.from_int(f.denominator)))


RATIONALS = RationalField()
INTEGERS = IntegerRing()


def ring_from_tag(tag: str) -> CoefficientRing:
    """Resolve a ring tag such as "Q", "Z" or "F5"; ``PrimeField`` refuses primes above ``MAX_PRIME``."""
    if tag == "Q":
        return RATIONALS
    if tag == "Z":
        return INTEGERS
    if tag.startswith("F") and tag[1:].isdigit():
        return PrimeField(int(tag[1:]))
    raise ValueError(f"unknown ring tag {tag!r}")
