"""Shift-pairing cocycles on mod-p Laurent series.

theta(n, x, y) pairs each coefficient of x with the coefficient n slots up in
y.  A cocycle spec selects a finite set of shifts; eta sums the corresponding
pairings, with the n-th one translated by t^n.  Everything here lives over
C_p (exponent-one coefficients): the pairing is only a cocycle there.
"""

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    InvariantViolation,
    MixedModulus,
    MixedPrime,
    SchemaError,
    UnsupportedOperands,
)
from .laurent import laurent, lau_add, lau_shift, series_to_text
from .scalars import Modulus, is_prime
from .sweep import add_mod, add_table, check_work, window_digits, window_elements, window_size


@dataclass(frozen=True)
class CocycleSpec:
    """A prime together with the finite set of shifts entering eta."""

    p: int
    support: tuple

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvariantViolation(f"p must be prime, got {self.p}")
        supp = tuple(sorted(set(self.support)))
        for n in supp:
            if not isinstance(n, int) or n < 1:
                raise InvariantViolation(f"support entries must be integers >= 1, got {n!r}")
        object.__setattr__(self, "support", supp)

    @classmethod
    def from_prefix(cls, p, word):
        """Build a spec from a 0/1 indicator word over shifts 1, 2, ..., len(word).

        Accepts a string like "1011" or any iterable of 0/1 values.
        """
        bits = [int(ch) for ch in word]
        if any(b not in (0, 1) for b in bits):
            raise InvariantViolation(f"indicator word must be over {{0,1}}, got {word!r}")
        return cls(p, tuple(n + 1 for n, b in enumerate(bits) if b))

    @cached_property
    def modulus(self):
        return Modulus(self.p, 1)

    def indicator(self, n: int) -> int:
        return 1 if n in self.support else 0

    @property
    def max_shift(self):
        return max(self.support) if self.support else 0

    @property
    def min_shift(self):
        if not self.support:
            raise InvariantViolation("empty support has no minimal shift")
        return self.support[0]


def cocycle_to_json(spec):
    return {"p": spec.p, "support": list(spec.support)}


def cocycle_from_json(data):
    if not isinstance(data, dict) or set(data) != {"p", "support"}:
        raise SchemaError(f"cocycle spec needs exactly keys p, support, got {data!r}")
    if not isinstance(data["p"], int) or isinstance(data["p"], bool):
        raise SchemaError(f"p must be an integer, got {data['p']!r}")
    supp = data["support"]
    if not isinstance(supp, list) or any(isinstance(n, bool) or not isinstance(n, int) for n in supp):
        raise SchemaError(f"support must be a list of integers, got {supp!r}")
    return CocycleSpec(data["p"], tuple(supp))


def theta(n, x, y):
    """The n-shift pairing: coefficient i is x_i * y_{i+n}.

    x must be finitely supported; y may carry a periodic tail.
    """
    if n < 1:
        raise InvariantViolation(f"shift must be >= 1, got {n}")
    if x.modulus != y.modulus:
        raise MixedModulus(f"{x.modulus} vs {y.modulus}")
    if x.has_tail():
        raise UnsupportedOperands("first pairing argument must be finitely supported")
    return laurent(x.modulus, {i: c * y.coeff(i + n) for i, c in x.finite})


def eta(spec, x, y):
    """Sum over the spec's shifts n of t^n * theta(2n, x, y)."""
    check_eta_operands(spec, x, y)
    return laurent(x.modulus, eta_coeffs(spec, x, y))


def check_eta_operands(spec, x, y):
    """Refuse the operands eta does not accept, with eta's error classes."""
    mod = x.modulus
    # moduli are shared between series, so identity decides most comparisons
    if y.modulus is not mod and y.modulus != mod:
        raise MixedModulus(f"{x.modulus} vs {y.modulus}")
    if mod.p != spec.p:
        raise MixedPrime(f"series over p={x.modulus.p}, cocycle over p={spec.p}")
    if mod.n != 1:
        raise UnsupportedOperands("cocycles are defined over exponent-one coefficients only")
    if spec.support and x.tail is not None:
        raise UnsupportedOperands("first pairing argument must be finitely supported")


def eta_coeffs(spec, x, y):
    """The coefficients of eta(spec, x, y) as {index: value mod p}, zeros
    dropped, for operands check_eta_operands accepts; callers check them.

    A finite y is read through its index map; coeff() runs only when y has a
    tail.
    """
    get = y.coeff if y.tail is not None else y._fdict.get
    acc = {}
    support = spec.support
    for i, c in x.finite:
        for n in support:
            v = get(i + 2 * n)
            if v:
                acc[i + n] = acc.get(i + n, 0) + c * v
    p = spec.p
    return {i: r for i, v in acc.items() if (r := v % p)}


def _law_report(name, status, cx=None):
    return {"law": name, "status": status, "counterexample": cx}


def law_masks(eta_tab, add_id, p):
    """Mismatch masks of additivity-first, additivity-second and the cocycle
    identity over an eta table, from plain `% p` sums in uint16 lanes.

    This is the reference form: packed_law_verdicts must agree with it, and
    its first True entry in C order is the first counterexample.
    """
    t = eta_tab.astype("uint16")
    tx = t[add_id]  # [i, i2, j]: eta(x_i + x_i2, x_j)
    ty = t[:, add_id]  # [i, j, j2]: eta(x_i, x_j + x_j2)
    return (
        tx != (t[:, None] + t[None]) % p,
        ty != (t[:, :, None] + t[:, None]) % p,
        (t[:, :, None] + tx) % p != (ty + t[None]) % p,
    )


def packed_law_verdicts(packed, add_id, p):
    """Whether additivity-first, additivity-second and the cocycle identity
    hold on a uint8 eta table whose rows are padded with zeros to whole
    8-byte words.

    Each pair's row is viewed as uint64 words, so a gather along the window
    axes moves one word per pair; the sums mod p run on the byte lanes.
    """
    import numpy as np

    words = packed.view(np.uint64)
    gx = words[add_id].view(np.uint8)  # [i, i2, j]: eta(x_i + x_i2, x_j)
    gy = words[:, add_id].view(np.uint8)  # [i, j, j2]: eta(x_i, x_j + x_j2)
    buf = np.empty_like(gx)

    def equal(a, b):
        return np.array_equal(a.view(np.uint64), b.view(np.uint64))

    first = equal(gx, add_mod(packed[:, None], packed[None], p, buf))
    second = equal(gy, add_mod(packed[:, :, None], packed[:, None], p, buf))
    # the gathers are spent after the additivity checks, so they take the sums
    identity = equal(add_mod(packed[:, :, None], gx, p, gx), add_mod(gy, packed[None], p, gy))
    return first, second, identity


def check_cocycle_laws(spec, lo, hi):
    """Exhaustively verify the cocycle laws on the window W(lo, hi).

    Checks two-sided additivity, shift equivariance, and the cocycle identity
    over every pair / triple from the window.  Returns a JSON-ready report with
    the first counterexample (in enumeration order) when a law fails.
    """
    import numpy as np

    p = spec.p
    size = window_size(p, lo, hi)
    # eta values on the window live inside [lo+1, hi-1+max_shift]
    e_lo = lo + 1
    e_width = max(1, hi - lo + spec.max_shift - 1)
    # eta on every pair, twice until shift equivariance fails; the triple
    # tables hold one eta value per (x, y, z)
    check_work("cocycle laws", 2 * size ** 2, size ** 3 * e_width)
    elems = window_elements(spec.modulus, lo, hi)
    digits, powers = window_digits(p, lo, hi)
    add_id = add_table(digits, powers, p)

    # the table is filled from eta's coefficient maps, one call per pair, into
    # a flat buffer of rows padded to whole 8-byte words; eta_tab is the first
    # e_width bytes of each row
    row = -(-e_width // 8) * 8
    buf = bytearray(size * size * row)
    # t*x depends on x alone, so each window element is shifted once, not per pair
    elems_t = [lau_shift(x, 1) for x in elems]
    equiv_cx = None
    base = -e_lo  # buf[base + idx] is lane idx - e_lo of the current pair's row
    for i, x in enumerate(elems):
        xt = elems_t[i]
        for j, y in enumerate(elems):
            e = eta_coeffs(spec, x, y)
            for idx, c in e.items():
                buf[base + idx] = c
            base += row
            if equiv_cx is None:
                e_t = {idx + 1: c for idx, c in e.items()}
                if eta_coeffs(spec, xt, elems_t[j]) != e_t:
                    # the counterexample shows the series that eta gives
                    equiv_cx = {
                        "x": series_to_text(x),
                        "y": series_to_text(y),
                        "lhs": series_to_text(eta(spec, xt, elems_t[j])),
                        "rhs": series_to_text(lau_shift(eta(spec, x, y), 1)),
                    }
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(size, size, row)
    eta_tab = packed[:, :, :e_width]

    ok_first, ok_second, ok_identity = verdicts = packed_law_verdicts(packed, add_id, p)
    # when a law fails, the `% p` masks give its first counterexample in
    # enumeration order
    masks = None if all(verdicts) else law_masks(eta_tab, add_id, p)

    def first_bad(law):
        return (int(v) for v in np.argwhere(masks[law])[0][:3])

    laws = []

    # additivity in each slot: eta(x+x', y) and eta(x, y+y') split termwise
    cx = None
    if not ok_first:
        i, i2, j = first_bad(0)
        cx = {
            "x": series_to_text(elems[i]),
            "x2": series_to_text(elems[i2]),
            "y": series_to_text(elems[j]),
            "lhs": series_to_text(eta(spec, lau_add(elems[i], elems[i2]), elems[j])),
            "rhs": series_to_text(
                lau_add(eta(spec, elems[i], elems[j]), eta(spec, elems[i2], elems[j]))
            ),
        }
    laws.append(_law_report("additivity-first", "fail" if cx else "pass", cx))

    cx = None
    if not ok_second:
        i, j, j2 = first_bad(1)
        cx = {
            "x": series_to_text(elems[i]),
            "y": series_to_text(elems[j]),
            "y2": series_to_text(elems[j2]),
            "lhs": series_to_text(eta(spec, elems[i], lau_add(elems[j], elems[j2]))),
            "rhs": series_to_text(
                lau_add(eta(spec, elems[i], elems[j]), eta(spec, elems[i], elems[j2]))
            ),
        }
    laws.append(_law_report("additivity-second", "fail" if cx else "pass", cx))

    laws.append(_law_report("shift-equivariance", "fail" if equiv_cx else "pass", equiv_cx))

    # eta(x,y) + eta(x+y,z) == eta(x,y+z) + eta(y,z) over all triples
    cx = None
    if not ok_identity:
        i, j, k = first_bad(2)
        x, y, z = elems[i], elems[j], elems[k]
        cx = {
            "x": series_to_text(x),
            "y": series_to_text(y),
            "z": series_to_text(z),
            "lhs": series_to_text(lau_add(eta(spec, x, y), eta(spec, lau_add(x, y), z))),
            "rhs": series_to_text(lau_add(eta(spec, x, lau_add(y, z)), eta(spec, y, z))),
        }
    laws.append(_law_report("cocycle-identity", "fail" if cx else "pass", cx))

    failed = [l for l in laws if l["status"] == "fail"]
    return {
        "cocycle": cocycle_to_json(spec),
        "window": [lo, hi],
        "pairs_checked": size * size,
        "triples_checked": size * size * size,
        "laws": laws,
        "pass": not failed,
    }
