"""Truncated Q_p arithmetic and companion matrices with their transposes.

An element is stored as a canonical rational representative together with the
precision exponent N meaning "known modulo p^N" (N = None meaning exact). All
arithmetic is exact on representatives; operations emit the largest provable
output precision.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .errors import InsufficientPrecision, InvariantViolation, MixedPrime, ParseError, SchemaError
from .scalars import is_prime


def _vp_int(a, p):
    if a == 0:
        return inf
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def _vp_frac(x, p):
    if x == 0:
        return inf
    return _vp_int(x.numerator, p) - _vp_int(x.denominator, p)


@dataclass(frozen=True)
class PadicElem:
    p: int
    frac: Fraction  # canonical representative of the congruence class
    prec: int | None  # known modulo p^prec; None means exact

    def is_exact_zero(self):
        return self.prec is None and self.frac == 0

    def val_lower_bound(self):
        if self.frac != 0:
            return _vp_frac(self.frac, self.p)
        return inf if self.prec is None else self.prec

    def val_certain(self):
        """True when the valuation (possibly +inf) is determined."""
        return self.frac != 0 or self.prec is None

    def as_text(self):
        return padic_to_text(self)

    def __str__(self):
        return self.as_text()


def padic(p, value, prec=None):
    """Build the canonical element congruent to value modulo p^prec."""
    if not is_prime(p):
        raise InvariantViolation(f"p must be prime, got {p}")
    x = Fraction(value)
    if prec is None:
        return PadicElem(p, x, None)
    prec = int(prec)
    v = _vp_frac(x, p)
    if v >= prec:
        return PadicElem(p, Fraction(0), prec)
    # unit part u = x / p^v, reduced modulo p^(prec-v)
    u = x / Fraction(p) ** v
    mod = p ** (prec - v)
    r = u.numerator % mod * pow(u.denominator, -1, mod) % mod
    return PadicElem(p, Fraction(r) * Fraction(p) ** v, prec)


def _check_p(x, y):
    if x.p != y.p:
        raise MixedPrime(f"p={x.p} vs p={y.p}")


def padd(x, y):
    _check_p(x, y)
    precs = [n for n in (x.prec, y.prec) if n is not None]
    prec = min(precs) if precs else None
    return padic(x.p, x.frac + y.frac, prec)


def pneg(x):
    return padic(x.p, -x.frac, x.prec)


def pmul(x, y):
    _check_p(x, y)
    nx = inf if x.prec is None else x.prec
    ny = inf if y.prec is None else y.prec
    vx = _vp_frac(x.frac, x.p)
    vy = _vp_frac(y.frac, y.p)
    prec = min(vx + ny, vy + nx, nx + ny)
    return padic(x.p, x.frac * y.frac, None if prec == inf else prec)


def pval(x):
    """Exponential valuation; +inf for exact zero; errors when undetermined."""
    if not x.val_certain():
        raise InsufficientPrecision(f"valuation of {x} not determined at precision {x.prec}")
    return x.val_lower_bound()


# --- polynomials and matrices ----------------------------------------------


@dataclass(frozen=True)
class PolyData:
    """Monic polynomial X^m + a_{m-1}X^{m-1} + ... + a_0 with p-adic coefficients."""

    p: int
    coeffs: tuple  # (a_0, ..., a_{m-1}) as PadicElem

    def __post_init__(self):
        if len(self.coeffs) < 1:
            raise InvariantViolation("polynomial degree must be >= 1")
        for a in self.coeffs:
            if a.p != self.p:
                raise MixedPrime(f"coefficient prime {a.p} differs from {self.p}")

    @property
    def m(self):
        return len(self.coeffs)


def poly(p, coeffs):
    return PolyData(p, tuple(c if isinstance(c, PadicElem) else padic(p, c) for c in coeffs))


def poly_from_json(obj):
    if not isinstance(obj, dict):
        raise SchemaError("polynomial JSON must be an object")
    for key in ("p", "coeffs"):
        if key not in obj:
            raise SchemaError(f"polynomial JSON missing key {key!r}")
    p = int(obj["p"])
    coeffs = [text_to_padic(c, p) if isinstance(c, str) else padic(p, c) for c in obj["coeffs"]]
    g = PolyData(p, tuple(coeffs))
    if "m" in obj and int(obj["m"]) != g.m:
        raise SchemaError(f"declared degree {obj['m']} != len(coeffs) {g.m}")
    return g


@dataclass(frozen=True)
class PadicMatrix:
    p: int
    rows: tuple  # tuple of row tuples of PadicElem

    def __post_init__(self):
        m = len(self.rows)
        for row in self.rows:
            if len(row) != m:
                raise InvariantViolation("matrix must be square")
            for a in row:
                if a.p != self.p:
                    raise MixedPrime(f"entry prime {a.p} differs from {self.p}")

    @property
    def m(self):
        return len(self.rows)

    def transpose(self):
        return PadicMatrix(self.p, tuple(zip(*self.rows)))

    def matvec(self, vec):
        if len(vec) != self.m:
            raise InvariantViolation(f"vector length {len(vec)} != matrix size {self.m}")
        out = []
        for row in self.rows:
            acc = padic(self.p, 0)
            for a, v in zip(row, vec):
                acc = padd(acc, pmul(a, v))
            out.append(acc)
        return tuple(out)


def companion_matrix(g):
    """Companion matrix of the monic polynomial: subdiagonal ones, last column -a_i."""
    m = g.m
    zero = padic(g.p, 0)
    one = padic(g.p, 1)
    rows = []
    for i in range(m):
        row = [zero] * m
        if i >= 1:
            row[i - 1] = one  # the subdiagonal and the last column never collide
        row[m - 1] = pneg(g.coeffs[i])
        rows.append(tuple(row))
    return PadicMatrix(g.p, tuple(rows))


def dual_companion(g):
    return companion_matrix(g).transpose()


def contractivity_certificate(g):
    """True iff every root has positive valuation and none is zero.

    Decided from the coefficients alone: v_p(a_i) >= 1 for all i, plus a_0 != 0.
    """
    undecided = False
    for a in g.coeffs:
        if a.frac != 0:
            if _vp_frac(a.frac, a.p) < 1:
                return False
        elif a.prec is not None and a.prec < 1:
            undecided = True
    if undecided:
        raise InsufficientPrecision("a coefficient valuation is not certifiable at this precision")
    a0 = g.coeffs[0]
    if a0.frac != 0:
        return True
    if a0.prec is None:
        return False  # exactly zero constant term: zero is a root
    raise InsufficientPrecision("cannot certify that the constant term is nonzero")


def min_entry_valuation(vec):
    """Componentwise minimum of certain valuations; +inf for the zero vector."""
    return min(pval(v) for v in vec) if vec else inf


# --- literals ----------------------------------------------------------------

_DIGIT_LIT = re.compile(
    r"^\s*(?P<digits>\d+(?:,\d+)*)@(?P<p>\d+)\^(?P<v0>[+-]?\d+)\s+prec\s+(?P<prec>\d+)\s*$"
)
_RATIONAL = re.compile(r"^\s*(?P<num>[+-]?\d+)(?:/(?P<den>\d+))?\s*$")


def text_to_padic(text, p=None):
    """Parse a digit literal `d0,d1,...@p^v0 prec P`, or an exact integer / a/b rational."""
    m = _DIGIT_LIT.match(text)
    if m:
        lp = int(m.group("p"))
        if p is not None and lp != p:
            raise MixedPrime(f"literal prime {lp} differs from expected {p}")
        v0 = int(m.group("v0"))
        digits = [int(d) for d in m.group("digits").split(",")]
        nd = int(m.group("prec"))
        if nd != len(digits):
            raise ParseError(
                f"literal declares prec {nd} but lists {len(digits)} digits",
                expected=["prec equal to digit count"],
            )
        if any(not 0 <= d < lp for d in digits):
            raise InvariantViolation(f"digits must lie in [0, {lp})")
        value = sum(Fraction(d) * Fraction(lp) ** (v0 + i) for i, d in enumerate(digits))
        return padic(lp, value, prec=v0 + len(digits))
    m = _RATIONAL.match(text)
    if m:
        if p is None:
            raise ParseError("exact literal needs a prime from context", expected=["prime"])
        den = int(m.group("den") or 1)
        return padic(p, Fraction(int(m.group("num")), den))
    raise ParseError(
        f"bad p-adic literal {text!r}",
        expected=["digit literal d0,d1,...@p^v0 prec P", "integer", "a/b"],
    )


def padic_to_text(x):
    if x.prec is None:
        if x.frac.denominator == 1:
            return str(x.frac.numerator)
        return f"{x.frac.numerator}/{x.frac.denominator}"
    if x.frac == 0:
        # nothing is known below p^prec; encode as a single zero digit at prec-1
        return f"0@{x.p}^{x.prec - 1} prec 1"
    v = int(_vp_frac(x.frac, x.p))
    u = x.frac / Fraction(x.p) ** v
    r = int(u)  # canonical unit parts are integers
    digits = []
    for _ in range(x.prec - v):
        digits.append(r % x.p)
        r //= x.p
    return ",".join(str(d) for d in digits) + f"@{x.p}^{v} prec {x.prec - v}"
