"""Exact arithmetic in Z/p^n and in the p-power roots of unity inside the circle group."""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InvariantViolation, MixedPrime


# The first twelve primes.  Miller-Rabin with all of them as bases decides
# primality exactly below _MR_BOUND (Sorenson and Webster, 2015).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318_665_857_834_031_151_167_461
# Largest n * bit_length(p) a modulus p^n may have: p^n is formed on every
# construction, and coefficients are reduced mod it.
_MAX_MODULUS_BITS = 1 << 16
# Distinct normalized torus values kept; the suites' values are p-power roots
# of unity of small order, so a few dozen cover a whole sweep.
_TORUS_CACHE_SIZE = 1024


def is_prime(p):
    """Exact primality of an int; raises InvariantViolation from _MR_BOUND on."""
    if not isinstance(p, int) or p < 2:
        return False
    if p < 4:  # the torus checks p on every value, and p is mostly 2 or 3
        return True
    if p <= 37:
        return p in _SMALL_PRIMES
    for q in _SMALL_PRIMES:
        if p % q == 0:
            return False
    if p < 41 * 41:  # a composite below 41^2 has a prime factor up to 37
        return True
    if p >= _MR_BOUND:
        raise InvariantViolation(f"p = {p} is past the primality bound {_MR_BOUND}")
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, p)
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
class Modulus:
    """The ring Z/p^n; card = p^n is formed once, on construction."""

    p: int
    n: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvariantViolation(f"p must be prime, got {self.p}")
        if not isinstance(self.n, int) or self.n < 1:
            raise InvariantViolation(f"exponent n must be >= 1, got {self.n}")
        bits = self.n * self.p.bit_length()
        if bits > _MAX_MODULUS_BITS:
            raise InvariantViolation(
                f"modulus {self.p}^{self.n} is too large: n * bit_length(p) = {bits}, "
                f"the limit is {_MAX_MODULUS_BITS}"
            )
        object.__setattr__(self, "card", self.p ** self.n)

    def __eq__(self, other):
        # series built from one modulus share the object, so identity decides
        # most comparisons without reading a field
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.p, self.n) == (other.p, other.n)

    def __str__(self):
        return f"{self.p}^{self.n}"


@dataclass(frozen=True)
class TorusElem:
    """The root of unity e^{2*pi*i*num/p^exp}, normalized so (num, exp) is unique."""

    p: int
    num: int
    exp: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvariantViolation(f"p must be prime, got {self.p}")
        if (self.num, self.exp) == (0, 0):
            return
        if self.exp < 1 or not 0 < self.num < self.p ** self.exp or self.num % self.p == 0:
            raise InvariantViolation(f"non-normal torus fraction {self.num}/{self.p}^{self.exp}")

    def is_identity(self):
        return self.num == 0

    @property
    def turns(self):
        return Fraction(self.num, self.p ** self.exp)

    def inv(self):
        return torus_from_fraction(-self.num, self.exp, self.p)

    def pow(self, k):
        return torus_from_fraction(self.num * k, self.exp, self.p)

    def as_text(self):
        if self.is_identity():
            return "1"
        return f"{self.num}/{self.p}^{self.exp}"

    def __str__(self):
        return self.as_text()


def torus_from_fraction(num, exp, p):
    """Normalize num/p^exp mod 1: reduce mod p^exp, then strip shared powers of p.

    Values are immutable and shared: equal inputs after the reduction return
    the same TorusElem from a bounded cache."""
    if exp < 0:
        raise InvariantViolation(f"exponent must be >= 0, got {exp}")
    return _torus(num % p ** exp, exp, p)


# typed, so that True and 1 or 1.0 and 1 are kept apart and each result has
# the types its inputs had; a refused value raises and is not cached
@lru_cache(maxsize=_TORUS_CACHE_SIZE, typed=True)
def _torus(num, exp, p):
    while exp > 0 and num % p == 0:
        num //= p
        exp -= 1
    if num == 0:
        exp = 0
    return TorusElem(p, num, exp)


def torus_mul(a, b):
    if a.p != b.p:
        raise MixedPrime(f"p={a.p} vs p={b.p}")
    e = max(a.exp, b.exp)
    p = a.p
    num = a.num * p ** (e - a.exp) + b.num * p ** (e - b.exp)
    return torus_from_fraction(num, e, p)


def torus_inv(a):
    return a.inv()


def torus_identity(p):
    return TorusElem(p, 0, 0)


def gf_rank(rows, p):
    """Rank over Z/p of an integer matrix given as a list of rows."""
    rows = [[v % p for v in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = (rows[i][c] * inv) % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank
