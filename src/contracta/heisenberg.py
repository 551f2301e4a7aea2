"""Heisenberg group over mod-p Laurent series and its dual orbits.

Elements are triples (xi, upsilon, z) with vector parts of a fixed dimension;
the product adds componentwise and corrects the center by the dot product
xi . mu.  Characters of the abelian part N = {(0, mu, w)} are indexed by
pairs (upsilon, z); the off-center subgroup acts on them by an affine shift
of the index, and orbits are either points (z = 0) or full affine slices
(z invertible), decided constructively via exact series division.
"""

from dataclasses import dataclass

from .errors import DepthExceeded, InvariantViolation, MixedShape, SchemaError
from .duality import chi_char
from .laurent import (
    LaurentElem,
    lau_add,
    lau_mul,
    lau_neg,
    lau_sub,
    lau_zero,
    laurent,
    series_from_json,
    series_to_json,
)
from .scalars import torus_mul


@dataclass(frozen=True)
class HeisElem:
    dim: int
    xi: tuple
    upsilon: tuple
    z: LaurentElem

    def __post_init__(self):
        if self.dim < 1:
            raise InvariantViolation(f"dimension must be >= 1, got {self.dim}")
        if len(self.xi) != self.dim or len(self.upsilon) != self.dim:
            raise MixedShape(
                f"expected {self.dim} coordinates, got {len(self.xi)} and {len(self.upsilon)}"
            )
        mod = self.z.modulus
        if mod.n != 1:
            raise InvariantViolation("coordinates must have exponent-one coefficients")
        for c in (*self.xi, *self.upsilon, self.z):
            if c.modulus != mod:
                raise MixedShape(f"coordinate modulus {c.modulus} differs from {mod}")
            if c.has_tail():
                raise InvariantViolation("coordinates must be finitely supported")

    @property
    def modulus(self):
        return self.z.modulus

    @property
    def p(self):
        return self.z.modulus.p


def _same_shape(g, h):
    if g.dim != h.dim or g.modulus != h.modulus:
        raise MixedShape(f"({g.dim}, {g.modulus}) vs ({h.dim}, {h.modulus})")


def heis_mul(g, h):
    _same_shape(g, h)
    # coordinates are finitely supported, so the center g.z + h.z + xi . mu
    # is summed as one coefficient map
    z = dict(g.z.finite)
    for i, c in h.z.finite:
        z[i] = z.get(i, 0) + c
    for a, b in zip(g.xi, h.upsilon):
        for i, c in a.finite:
            for j, d in b.finite:
                z[i + j] = z.get(i + j, 0) + c * d
    return HeisElem(
        g.dim,
        tuple(lau_add(a, b) for a, b in zip(g.xi, h.xi)),
        tuple(lau_add(a, b) for a, b in zip(g.upsilon, h.upsilon)),
        laurent(g.modulus, z),
    )


def heis_inv(g):
    dot = lau_zero(g.modulus)
    for a, b in zip(g.xi, g.upsilon):
        dot = lau_add(dot, lau_mul(a, b))
    return HeisElem(
        g.dim,
        tuple(lau_neg(a) for a in g.xi),
        tuple(lau_neg(a) for a in g.upsilon),
        lau_add(lau_neg(g.z), dot),
    )


def n_slice(g):
    """Project to the abelian part: keep (upsilon, z), drop xi."""
    return g.upsilon, g.z


def heis_char(idx, arg):
    """chi over N: the product of coordinate pairings plus the central pairing.

    idx and arg are (vector, series) pairs: an index (upsilon, z) evaluated
    at (mu, w).
    """
    ups, z = idx
    mu, w = arg
    if len(ups) != len(mu):
        raise MixedShape(f"index has {len(ups)} coordinates, argument {len(mu)}")
    acc = chi_char(z, w)
    for y, m in zip(ups, mu):
        acc = torus_mul(acc, chi_char(y, m))
    return acc


def heis_dual_action(xi, idx):
    """Index translation induced by conjugating with (xi, 0, 0):
    (upsilon, z) goes to (upsilon + z*xi, z)."""
    ups, z = idx
    if len(xi) != len(ups):
        raise MixedShape(f"{len(xi)} action coordinates vs {len(ups)} index coordinates")
    for c in xi:
        if c.modulus != z.modulus:
            raise MixedShape(f"{c.modulus} vs {z.modulus}")
    return tuple(lau_add(y, lau_mul(z, c)) for c, y in zip(xi, ups)), z


def lau_div(a, b, bound=256):
    """Exact quotient a / b of finitely supported series over C_p.

    Long division emits quotient coefficients from low degree up; once the
    dividend is consumed the remainder lives in a fixed-width sliding window
    over a finite field, so it must eventually revisit a state — at which
    point the quotient repeats and is returned with a periodic tail.  Raises
    DepthExceeded when no cycle closes within `bound` emitted coefficients.
    """
    if b.is_zero():
        raise ZeroDivisionError("series division by zero")
    if a.has_tail() or b.has_tail():
        raise InvariantViolation("series division expects finitely supported operands")
    if a.modulus != b.modulus:
        raise MixedShape(f"{a.modulus} vs {b.modulus}")
    if a.modulus.n != 1:
        raise InvariantViolation("series division needs prime-field coefficients")
    if a.is_zero():
        return a
    p = a.modulus.p
    nu_b = int(b.valuation)
    b_top = b.support_max()
    width = b_top - nu_b
    inv_lead = pow(b.coeff(nu_b), p - 2, p)
    a_top = a.support_max()

    rem = {i: c for i, c in a.finite}
    quot = {}
    emitted = []          # coefficients from k_start upward, zeros included
    k_start = int(a.valuation) - nu_b
    seen = {}
    k = k_start
    while True:
        c = rem.pop(k + nu_b, 0)
        qk = (c * inv_lead) % p
        emitted.append(qk)
        if qk:
            quot[k] = qk
            for i, bc in b.finite:
                if i == nu_b:
                    continue
                pos = k + i
                v = (rem.get(pos, 0) - qk * bc) % p
                if v:
                    rem[pos] = v
                else:
                    rem.pop(pos, None)
        if not rem:
            result = laurent(a.modulus, quot)
            break
        if k + b_top >= a_top and width > 0:
            state = tuple(rem.get(k + nu_b + d, 0) for d in range(1, width + 1))
            if state in seen:
                cycle_k = seen[state]
                pattern = emitted[cycle_k - k_start + 1 : k - k_start + 1]
                finite = {i: c for i, c in quot.items() if i <= cycle_k}
                result = laurent(a.modulus, finite, tail=(cycle_k + 1, tuple(pattern)))
                break
            seen[state] = k
        if len(emitted) > bound:
            raise DepthExceeded(f"no periodic quotient within {bound} coefficients")
        k += 1

    if lau_mul(result, b) != a:
        raise InvariantViolation("division self-check failed")  # unreachable
    return result


@dataclass(frozen=True)
class OrbitDesc:
    kind: str                  # "FixedPoint" | "AffineSlice"
    base: tuple                # the (upsilon, z) index the orbit passes through

    def membership(self, query, bound=256):
        """Decide whether query = (upsilon', z') lies on this orbit.

        Returns (status, xi) with status in {"member", "non-member",
        "undecided"}; xi is the witnessing translation vector when decided
        membership holds.
        """
        ups, z = self.base
        q_ups, q_z = query
        if len(q_ups) != len(ups):
            raise MixedShape(f"{len(ups)} coordinates vs {len(q_ups)}")
        if self.kind == "FixedPoint":
            if q_z == z and tuple(q_ups) == tuple(ups):
                zero = lau_zero(z.modulus)
                return "member", (zero,) * len(ups)
            return "non-member", None
        if q_z != z:
            return "non-member", None
        xi = []
        for y, qy in zip(ups, q_ups):
            diff = lau_sub(qy, y)
            try:
                xi.append(lau_div(diff, z, bound=bound))
            except DepthExceeded:
                return "undecided", None
        return "member", tuple(xi)


def orbit_description(idx):
    ups, z = idx
    kind = "FixedPoint" if z.is_zero() else "AffineSlice"
    return OrbitDesc(kind, (tuple(ups), z))


def heis_to_json(g):
    return {
        "n": g.dim,
        "p": g.p,
        "xi": [series_to_json(c) for c in g.xi],
        "upsilon": [series_to_json(c) for c in g.upsilon],
        "z": series_to_json(g.z),
    }


def heis_from_json(data):
    if not isinstance(data, dict) or set(data) != {"n", "p", "xi", "upsilon", "z"}:
        raise SchemaError(
            f"group element needs exactly keys n, p, xi, upsilon, z, got {data!r}"
        )
    if not isinstance(data["n"], int) or isinstance(data["n"], bool):
        raise SchemaError(f"n must be an integer, got {data['n']!r}")
    if not isinstance(data["xi"], list) or not isinstance(data["upsilon"], list):
        raise SchemaError("xi and upsilon must be lists of series")
    xi = tuple(series_from_json(c) for c in data["xi"])
    ups = tuple(series_from_json(c) for c in data["upsilon"])
    z = series_from_json(data["z"])
    g = HeisElem(data["n"], xi, ups, z)
    if g.p != data["p"]:
        raise SchemaError(f"declared p={data['p']} but coordinates are over p={g.p}")
    return g
