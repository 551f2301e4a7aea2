"""Central extensions of the series group by itself, twisted by eta.

Elements are pairs (w, x) of mod-p series multiplying as

    (w1, x1) (w2, x2) = (w1 + w2 + eta(x1, x2), x1 + x2)

so the first slot is central and all noncommutativity is carried by the
cocycle.  The shift map acts diagonally on both slots.
"""

from dataclasses import dataclass

from .errors import EmptySupport, MixedCocycle, MixedModulus, SchemaError, UnsupportedOperands
from .cocycles import CocycleSpec, cocycle_from_json, cocycle_to_json, eta
from .laurent import (
    LaurentElem,
    lau_add,
    lau_monomial,
    lau_neg,
    lau_shift,
    lau_zero,
    laurent,
    series_from_json,
    series_to_json,
    series_to_text,
)


@dataclass(frozen=True)
class ExtElem:
    spec: CocycleSpec
    w: LaurentElem
    x: LaurentElem

    def __post_init__(self):
        if self.w.modulus != self.spec.modulus or self.x.modulus != self.spec.modulus:
            raise MixedModulus(
                f"extension over {self.spec.modulus}, got slots over "
                f"{self.w.modulus} and {self.x.modulus}"
            )
        if self.x.has_tail():
            raise UnsupportedOperands("second slot must be finitely supported")

    def as_text(self):
        return f"({series_to_text(self.w)} | {series_to_text(self.x)})"


def ext_elem(spec, w_coeffs, x_coeffs):
    """Convenience constructor from coefficient dicts."""
    m = spec.modulus
    return ExtElem(spec, laurent(m, w_coeffs), laurent(m, x_coeffs))


def ext_mul(a, b):
    if a.spec != b.spec:
        raise MixedCocycle(f"{a.spec} vs {b.spec}")
    w = lau_add(lau_add(a.w, b.w), eta(a.spec, a.x, b.x))
    return ExtElem(a.spec, w, lau_add(a.x, b.x))


def ext_inv(a):
    xinv = lau_neg(a.x)
    w = lau_add(lau_neg(a.w), lau_neg(eta(a.spec, a.x, xinv)))
    return ExtElem(a.spec, w, xinv)


def ext_commutator(a, b):
    return ext_mul(ext_mul(a, b), ext_mul(ext_inv(a), ext_inv(b)))


def ext_alpha(a, k: int):
    """The diagonal shift automorphism: multiply both slots by t^k."""
    return ExtElem(a.spec, lau_shift(a.w, k), lau_shift(a.x, k))


def predicted_monomial_commutator(spec, n: int, k: int):
    """Closed form for [(0, t^n), (0, t^(n+2k))]: central slot is t^(n+k)
    when the spec's indicator picks up k, zero otherwise."""
    if k < 1:
        raise UnsupportedOperands(f"offset must be >= 1, got {k}")
    m = spec.modulus
    if spec.indicator(k):
        w = lau_monomial(m, n + k, 1)
    else:
        w = lau_zero(m)
    return ExtElem(spec, w, lau_zero(m))


def derived_witness(spec, j: int):
    """A pair (g, h) of second-slot monomials whose commutator is (t^j, 0).

    Uses the smallest shift k0 in the support: g carries t^(j-k0) and
    h carries t^(j+k0).  Raises EmptySupport when the spec has no shifts.
    """
    if not spec.support:
        raise EmptySupport("no shifts available to build a derived witness")
    k0 = spec.min_shift
    m = spec.modulus
    z = lau_zero(m)
    g = ExtElem(spec, z, lau_monomial(m, j - k0, 1))
    h = ExtElem(spec, z, lau_monomial(m, j + k0, 1))
    return g, h


def ext_to_json(a):
    return {
        "cocycle": cocycle_to_json(a.spec),
        "w": series_to_json(a.w),
        "x": series_to_json(a.x),
    }


def ext_from_json(data):
    if not isinstance(data, dict) or set(data) != {"cocycle", "w", "x"}:
        raise SchemaError(f"extension element needs exactly keys cocycle, w, x, got {data!r}")
    spec = cocycle_from_json(data["cocycle"])
    return ExtElem(spec, series_from_json(data["w"]), series_from_json(data["x"]))
