"""Formal Laurent series over Z/p^n: finite support plus an optional eventually-periodic tail.

The canonical form is unique: coefficients reduced mod p^n, zero entries dropped,
tail pattern primitive with minimal start, all-zero tails dropped, and the finite
region strictly below the tail start.
"""

import re
from dataclasses import dataclass
from functools import cached_property
from math import gcd, inf

from .errors import (
    InvalidParams,
    InvariantViolation,
    MixedModulus,
    ParseError,
    SchemaError,
    UnsupportedOperands,
)
from .scalars import Modulus

# Most slots a tailed sum may hold densely, from the lower tail start up to
# the start of the result's tail: the canonical form stores every one of them.
_MAX_DENSE_SPAN = 1 << 16


@dataclass(frozen=True)
class LaurentElem:
    modulus: Modulus
    finite: tuple  # sorted ((index, value), ...) with values in (0, p^n)
    tail: tuple | None  # (start, pattern) with pattern a tuple of length >= 1

    @cached_property
    def _fdict(self):
        return dict(self.finite)

    def coeff(self, i):
        """Coefficient at index i as a plain int in [0, p^n)."""
        if self.tail is not None and i >= self.tail[0]:
            start, pattern = self.tail
            return pattern[(i - start) % len(pattern)]
        return self._fdict.get(i, 0)

    def is_zero(self):
        return not self.finite and self.tail is None

    def has_tail(self):
        return self.tail is not None

    @cached_property
    def valuation(self):
        if self.finite:
            v = self.finite[0][0]
        else:
            v = inf
        if self.tail is not None:
            start, pattern = self.tail
            off = next(k for k, c in enumerate(pattern) if c != 0)
            v = min(v, start + off)
        return v

    def support_max(self):
        """Largest explicit finite index, or None when the finite part is empty."""
        return self.finite[-1][0] if self.finite else None

    def as_text(self):
        return series_to_text(self)

    def __str__(self):
        return self.as_text()


def laurent(modulus, coeffs=None, tail=None, strict=False):
    """Build the canonical element from a coefficient mapping and an optional (start, pattern) tail.

    strict=True rejects presentations whose finite entries reach into the tail
    region instead of silently merging them.
    """
    card = modulus.card
    fin = {}
    for i, c in (coeffs or {}).items():
        if not isinstance(i, int):
            raise InvariantViolation(f"index {i!r} is not an integer")
        c %= card
        if c:
            fin[i] = c
    if tail is not None:
        start, pattern = tail
        pattern = tuple(c % card for c in pattern)
        if not pattern:
            raise InvariantViolation("tail pattern must have period >= 1")
        if strict and any(i >= start for i in fin):
            raise InvariantViolation("finite support overlaps the tail region")
        if any(i >= start for i in fin):
            # merge: explicit entries override the pattern, and the tail is
            # restarted above them at an aligned index so the period is kept
            top = max(i for i in fin if i >= start)
            d = len(pattern)
            width = top - start + 1
            width += (-width) % d
            for k in range(width):
                if pattern[k % d]:
                    fin.setdefault(start + k, pattern[k % d])
            start += width
        if all(c == 0 for c in pattern):
            tail = None
        else:
            tail = (start, pattern)
    if tail is None:
        items = tuple(sorted(fin.items()))
        return LaurentElem(modulus, items, None)

    start, pattern = tail
    pattern = _primitive(pattern)
    d = len(pattern)
    # absorb downward so the start is minimal
    while True:
        below = fin.get(start - 1, 0)
        if below != pattern[d - 1]:
            break
        fin.pop(start - 1, None)
        start -= 1
        pattern = pattern[-1:] + pattern[:-1]
    items = tuple(sorted(fin.items()))
    return LaurentElem(modulus, items, (start, pattern))


def _primitive(pattern):
    d = len(pattern)
    for w in range(1, d + 1):
        if d % w == 0 and all(pattern[k] == pattern[k % w] for k in range(d)):
            return tuple(pattern[:w])
    return tuple(pattern)


def lau_zero(modulus):
    return LaurentElem(modulus, (), None)


def lau_monomial(modulus, k, c=1):
    return laurent(modulus, {k: c})


def _check_moduli(x, y):
    if x.modulus != y.modulus:
        raise MixedModulus(f"{x.modulus} vs {y.modulus}")


def lau_add(x, y):
    _check_moduli(x, y)
    if x.tail is None and y.tail is None:
        merged = dict(x.finite)
        for i, c in y.finite:
            merged[i] = merged.get(i, 0) + c
        return laurent(x.modulus, merged)
    starts = [t[0] for t in (x.tail, y.tail) if t is not None]
    tops = [m + 1 for m in (x.support_max(), y.support_max()) if m is not None]
    s = max(starts + tops)
    d = 1
    for t in (x.tail, y.tail):
        if t is not None:
            d = d * len(t[1]) // gcd(d, len(t[1]))
    # below the lower tail start only the finite parts contribute, so they
    # are merged sparsely; the span from there to s is read densely
    t0 = min(starts)
    if s - t0 > _MAX_DENSE_SPAN:
        raise InvalidParams(
            f"the sum holds {s - t0} dense coefficients from index {t0} to {s}; "
            f"the limit is {_MAX_DENSE_SPAN}"
        )
    coeffs = {}
    for i, c in x.finite + y.finite:
        if i < t0:
            coeffs[i] = coeffs.get(i, 0) + c
    for i in range(t0, s):
        coeffs[i] = x.coeff(i) + y.coeff(i)
    pattern = tuple(x.coeff(s + k) + y.coeff(s + k) for k in range(d))
    return laurent(x.modulus, coeffs, (s, pattern))


def lau_neg(x):
    return lau_scale(x, -1)


def lau_sub(x, y):
    return lau_add(x, lau_neg(y))


def lau_scale(x, c):
    card = x.modulus.card
    c %= card
    coeffs = {i: v * c for i, v in x.finite}
    tail = None
    if x.tail is not None:
        tail = (x.tail[0], tuple(v * c for v in x.tail[1]))
    return laurent(x.modulus, coeffs, tail)


def lau_shift(x, k):
    """Multiplication by t^k: index translation by k.

    Translating a canonical series keeps it canonical (sorted support,
    primitive pattern, minimal tail start), so the result is built directly;
    laurent() on the translated presentation is the reference.
    """
    if not isinstance(k, int):
        raise InvariantViolation(f"shift {k!r} is not an integer")
    finite = tuple((i + k, v) for i, v in x.finite)
    tail = None if x.tail is None else (x.tail[0] + k, x.tail[1])
    return LaurentElem(x.modulus, finite, tail)


def lau_mul(x, y):
    _check_moduli(x, y)
    if x.tail is not None and y.tail is not None:
        raise UnsupportedOperands("product of two tailed series is not supported")
    if x.tail is None and y.tail is None:
        prod = {}
        for i, c in x.finite:
            for j, d in y.finite:
                prod[i + j] = prod.get(i + j, 0) + c * d
        return laurent(x.modulus, prod)
    if x.tail is not None:
        x, y = y, x
    acc = lau_zero(x.modulus)
    for i, c in x.finite:
        acc = lau_add(acc, lau_shift(lau_scale(y, c), i))
    return acc


def lau_valuation(x):
    """Least index with nonzero coefficient; +inf for the zero series."""
    return x.valuation


# --- text grammar ---------------------------------------------------------
#
#   series = ("0" | term ("+" term)* ["+" tail] | tail) "@" "p=" INT "^" INT
#   term   = INT "*t^" INT
#   tail   = "per[" INT ("," INT)* "]*t^{>=" INT "}"

_INT = re.compile(r"[+-]?\d+")


class _Cursor:
    def __init__(self, text):
        self.text = text
        self.i = 0

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i] in " \t":
            self.i += 1

    def try_lit(self, lit):
        self.skip_ws()
        if self.text.startswith(lit, self.i):
            self.i += len(lit)
            return True
        return False

    def expect_lit(self, lit, expected):
        if not self.try_lit(lit):
            raise ParseError(
                f"expected {expected} at position {self.i}", position=self.i, expected=[expected]
            )

    def expect_int(self, what):
        self.skip_ws()
        m = _INT.match(self.text, self.i)
        if not m:
            raise ParseError(
                f"expected {what} at position {self.i}", position=self.i, expected=[what]
            )
        self.i = m.end()
        return int(m.group())

    def at_end(self):
        self.skip_ws()
        return self.i >= len(self.text)


def text_to_series(text):
    """Parse the series grammar; inverse of series_to_text on canonical forms."""
    cur = _Cursor(text)
    coeffs = {}
    tail = None
    cur.skip_ws()
    if cur.try_lit("0") and not cur.text.startswith("*", cur.i):
        pass
    else:
        while True:
            if cur.try_lit("per["):
                pattern = [cur.expect_int("pattern coefficient")]
                while cur.try_lit(","):
                    pattern.append(cur.expect_int("pattern coefficient"))
                cur.expect_lit("]", "']'")
                cur.expect_lit("*t^{>=", "'*t^{>='")
                start = cur.expect_int("tail start index")
                cur.expect_lit("}", "'}'")
                tail = (start, tuple(pattern))
                break
            c = cur.expect_int("coefficient")
            cur.expect_lit("*t^", "'*t^'")
            k = cur.expect_int("exponent")
            coeffs[k] = coeffs.get(k, 0) + c
            if not cur.try_lit("+"):
                break
    cur.expect_lit("@", "'@'")
    cur.expect_lit("p=", "'p='")
    p = cur.expect_int("prime")
    cur.expect_lit("^", "'^'")
    n = cur.expect_int("modulus exponent")
    if not cur.at_end():
        raise ParseError(
            f"trailing input at position {cur.i}", position=cur.i, expected=["end of input"]
        )
    return laurent(Modulus(p, n), coeffs, tail, strict=True)


def series_to_text(x):
    parts = [f"{c}*t^{i}" for i, c in x.finite]
    if x.tail is not None:
        start, pattern = x.tail
        parts.append("per[" + ",".join(str(c) for c in pattern) + "]*t^{>=" + str(start) + "}")
    body = " + ".join(parts) if parts else "0"
    return f"{body} @ p={x.modulus.p}^{x.modulus.n}"


# --- JSON form -------------------------------------------------------------


def series_to_json(x):
    out = {
        "p": x.modulus.p,
        "n": x.modulus.n,
        "finite": {str(i): c for i, c in x.finite},
    }
    if x.tail is not None:
        out["tail"] = {"start": x.tail[0], "pattern": list(x.tail[1])}
    return out


def series_from_json(obj):
    if not isinstance(obj, dict):
        raise SchemaError(f"series JSON must be an object, got {type(obj).__name__}")
    for key in ("p", "n"):
        if key not in obj:
            raise SchemaError(f"series JSON missing key {key!r}")
    known = {"p", "n", "finite", "tail"}
    extra = set(obj) - known
    if extra:
        raise SchemaError(f"series JSON has unknown keys {sorted(extra)}")
    try:
        coeffs = {int(k): int(v) for k, v in (obj.get("finite") or {}).items()}
    except (TypeError, ValueError) as e:
        raise SchemaError(f"bad finite part: {e}") from None
    tail = None
    if obj.get("tail") is not None:
        t = obj["tail"]
        if not isinstance(t, dict) or "start" not in t or "pattern" not in t:
            raise SchemaError("tail must be an object with 'start' and 'pattern'")
        tail = (int(t["start"]), tuple(int(c) for c in t["pattern"]))
    return laurent(Modulus(int(obj["p"]), int(obj["n"])), coeffs, tail, strict=True)
