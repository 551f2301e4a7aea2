"""Characters of C_{p^n}((t)), the self-duality pairing, dual shift actions and orbit diagnostics.

The character indexed by y sends x to e^{2 pi i (sum_j x_j y_{-j})/p^n}. The dual
of the shift action is pinned by the identity chi_{dual(k, y)}(x) = chi_y(t^k x),
which forces dual_action_T(k, y) = t^k y.
"""

from dataclasses import dataclass

from .errors import (
    DepthExceeded,
    InvariantViolation,
    MixedModulus,
    NegativePowerUnsupported,
    SchemaError,
    UnsupportedOperands,
    ZeroCharacter,
)
from .laurent import LaurentElem, lau_monomial, lau_shift
from .padic import PadicElem, PolyData, dual_companion, min_entry_valuation, poly_from_json
from .scalars import Modulus, torus_from_fraction

def chi_exponent(y, x):
    """The exponent e in [0, p^n) with chi_y(x) = e^{2 pi i e/p^n}."""
    mod = x.modulus
    # moduli are shared between series, so identity decides most comparisons
    if y.modulus is not mod and y.modulus != mod:
        raise MixedModulus(f"{y.modulus} vs {x.modulus}")
    if y.tail is not None and x.tail is not None:
        raise UnsupportedOperands("chi_char with tails on both sides is not supported")
    # at most one side has a tail, so the pairing is a finite sum over the
    # explicit terms of the other side; a zero operand gives the empty sum
    if x.tail is None:
        # a finite y is read through its index map, without coeff()
        get = y.coeff if y.tail is not None else y._fdict.get
        exponent = 0
        for j, c in x.finite:
            v = get(-j)
            if v:
                exponent += c * v
    else:
        exponent = sum(c * x.coeff(-i) for i, c in y.finite)
    return exponent % mod.card


def chi_char(y, x):
    """Evaluate chi_y(x) exactly as a torus element."""
    return torus_from_fraction(chi_exponent(y, x), x.modulus.n, x.modulus.p)


def dual_action_T(k, y):
    """The unique y' with chi_{y'}(x) = chi_y(t^k x) for all x; equals t^k y."""
    return lau_shift(y, k)


def dual_action_E(k, y, g):
    """Apply the transpose companion matrix of g to the coordinate vector y, k times."""
    if k < 0:
        raise NegativePowerUnsupported("inverse iterates of the dual action are not supported")
    mat = dual_companion(g)
    out = tuple(y)
    for _ in range(k):
        out = mat.matvec(out)
    return out


def contraction_time(y, k):
    """Minimal n >= 0 such that chi_{t^n y} is trivial on U_k = {x : nu(x) >= k}."""
    if y.is_zero():
        raise ZeroCharacter("the zero index is excluded")
    return max(0, -k - int(y.valuation) + 1)


def contraction_time_brute(y, k, max_n=1000):
    """Oracle for contraction_time: evaluate on the monomial generators of U_k."""
    if y.is_zero():
        raise ZeroCharacter("the zero index is excluded")
    card = y.modulus.card
    for n in range(max_n + 1):
        shifted = lau_shift(y, n)
        hi = -int(shifted.valuation)  # pairings with t^j vanish for j > hi
        trivial = True
        for j in range(k, hi + 1):
            for c in range(1, card):
                if not chi_char(shifted, lau_monomial(y.modulus, j, c)).is_identity():
                    trivial = False
                    break
            if not trivial:
                break
        if trivial:
            return n
    raise DepthExceeded(f"no trivializing iterate found up to {max_n}")


def stabilizer_is_trivial(y, depth):
    """True iff no nonzero shift with |n| <= depth fixes y; exact comparison."""
    if y.is_zero():
        raise ZeroCharacter("the zero index is excluded")
    for n in range(1, depth + 1):
        if lau_shift(y, n) == y or lau_shift(y, -n) == y:
            return False
    return True


# --- block decompositions ----------------------------------------------------


@dataclass(frozen=True)
class TBlock:
    p: int
    n: int
    mult: int

    def __post_init__(self):
        Modulus(self.p, self.n)  # validates primality and n >= 1
        if self.mult < 1:
            raise InvariantViolation(f"multiplicity must be >= 1, got {self.mult}")

    @property
    def modulus(self):
        return Modulus(self.p, self.n)


@dataclass(frozen=True)
class EBlock:
    p: int
    poly: PolyData
    mult: int

    def __post_init__(self):
        if self.poly.p != self.p:
            raise InvariantViolation("polynomial prime differs from block prime")
        if self.mult < 1:
            raise InvariantViolation(f"multiplicity must be >= 1, got {self.mult}")


@dataclass(frozen=True)
class BlockSpec:
    blocks: tuple

    def __post_init__(self):
        if not self.blocks:
            raise InvariantViolation("block list must be nonempty")
        for b in self.blocks:
            if not isinstance(b, (TBlock, EBlock)):
                raise InvariantViolation(f"unknown block {b!r}")


def block_spec_from_json(obj):
    if not isinstance(obj, dict) or "blocks" not in obj:
        raise SchemaError("block spec JSON must be an object with a 'blocks' list")
    if not isinstance(obj["blocks"], list):
        raise SchemaError("'blocks' must be a list")
    blocks = []
    for entry in obj["blocks"]:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise SchemaError("each block needs a 'kind'")
        kind = entry["kind"]
        if kind not in ("T", "E"):
            raise SchemaError(f"unknown block kind {kind!r}")
        try:
            p, mult = int(entry["p"]), int(entry.get("mult", 1))
            if kind == "T":
                blocks.append(TBlock(p, int(entry["n"]), mult))
            else:
                blocks.append(EBlock(p, poly_from_json({"p": p, "coeffs": entry["poly"]}), mult))
        except KeyError as exc:
            raise SchemaError(f"{kind} block missing key {exc}") from None
        except (TypeError, ValueError):
            raise SchemaError(f"malformed {kind} block {entry!r}") from None
    return BlockSpec(tuple(blocks))


@dataclass(frozen=True)
class BlockElem:
    spec: BlockSpec
    coords: tuple  # per block: tuple of LaurentElem (T) or tuple of PadicElem vectors (E)

    def __post_init__(self):
        if len(self.coords) != len(self.spec.blocks):
            raise InvariantViolation("coordinate count differs from block count")
        for b, coord in zip(self.spec.blocks, self.coords):
            if len(coord) != b.mult:
                raise InvariantViolation("coordinate multiplicity differs from block multiplicity")
            if isinstance(b, TBlock):
                for c in coord:
                    if not isinstance(c, LaurentElem) or c.modulus != b.modulus:
                        raise InvariantViolation("T coordinate has the wrong modulus")
            else:
                for vec in coord:
                    if len(vec) != b.poly.m or any(not isinstance(v, PadicElem) or v.p != b.p for v in vec):
                        raise InvariantViolation("E coordinate has the wrong shape")

    def is_zero(self):
        for b, coord in zip(self.spec.blocks, self.coords):
            if isinstance(b, TBlock):
                if any(not c.is_zero() for c in coord):
                    return False
            else:
                if any(not v.is_exact_zero() for vec in coord for v in vec):
                    return False
        return True


def nonclosed_orbit_witness(spec, x, k, depth):
    """First n in [1, depth] whose dual-action iterate of x is inside U_k blockwise yet nonzero.

    T coordinates enter when nu > k, E coordinates when the minimum entry
    valuation is >= k.
    """
    if x.is_zero():
        raise InvariantViolation("x must be nonzero")
    mats = [dual_companion(b.poly) if isinstance(b, EBlock) else None for b in spec.blocks]
    coords = list(x.coords)
    for n in range(1, depth + 1):
        nonzero = False
        inside = True
        new_coords = []
        for b, mat, coord in zip(spec.blocks, mats, coords):
            if isinstance(b, TBlock):
                coord = tuple(lau_shift(c, 1) for c in coord)
                if any(not c.is_zero() for c in coord):
                    nonzero = True
                if any(c.valuation <= k for c in coord):
                    inside = False
            else:
                coord = tuple(mat.matvec(vec) for vec in coord)
                if any(not v.is_exact_zero() for vec in coord for v in vec):
                    nonzero = True
                if any(min_entry_valuation(vec) < k for vec in coord):
                    inside = False
            new_coords.append(coord)
        coords = new_coords
        if nonzero and inside:
            return n
    raise DepthExceeded(f"no iterate within depth {depth} enters the neighborhood")
