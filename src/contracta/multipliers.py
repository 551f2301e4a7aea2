"""Torus-valued multipliers built from a cocycle and a central character.

omega(x, y) evaluates chi_z on eta(x, y).  Its skew-symmetrization omega2 is
a bicharacter of the series group; the elements pairing trivially with
everything form a subgroup, computed here two independent ways: exactly via
the monomial probe profile h_omega, and by brute force over finite witness
windows.  The verdict machinery collects independent nontriviality witnesses
and abstains when it cannot find enough.
"""

from dataclasses import dataclass

from .errors import (
    InvalidParams,
    MixedModulus,
    NonCharacterProfile,
    SchemaError,
    UnsupportedOperands,
    WitnessWindowTooSmall,
)
from .cocycles import CocycleSpec, cocycle_from_json, cocycle_to_json, eta
from .duality import chi_char
from .extensions import ExtElem, ext_mul
from .laurent import (
    lau_add,
    lau_monomial,
    lau_scale,
    lau_zero,
    laurent,
    series_from_json,
    series_to_json,
    series_to_text,
)
from .scalars import Modulus, torus_from_fraction, torus_identity, torus_inv, torus_mul
from .sweep import add_table, check_work, window_digits, window_elements, window_id, window_size


@dataclass(frozen=True)
class MultiplierSpec:
    """A cocycle spec together with the character index z twisting it."""

    s: CocycleSpec
    z: object  # LaurentElem; may carry a periodic tail

    def __post_init__(self):
        if self.z.modulus != self.s.modulus:
            raise MixedModulus(
                f"character index over {self.z.modulus}, cocycle over {self.s.modulus}"
            )

    def describe(self):
        return {
            "p": self.s.p,
            "support": list(self.s.support),
            "z": series_to_text(self.z),
        }


def multiplier_from_json(data):
    if not isinstance(data, dict) or set(data) != {"cocycle", "z"}:
        raise SchemaError(f"multiplier spec needs exactly keys cocycle, z, got {data!r}")
    return MultiplierSpec(cocycle_from_json(data["cocycle"]), series_from_json(data["z"]))


def multiplier_to_json(m):
    return {"cocycle": cocycle_to_json(m.s), "z": series_to_json(m.z)}


def tail_character_index(p, k0: int):
    """The all-ones tail starting at k0: sum of t^j over j >= k0."""
    return laurent(Modulus(p, 1), {}, tail=(k0, (1,)))


def omega(m, x, y):
    return chi_char(m.z, eta(m.s, x, y))


def omega2(m, x, y):
    return torus_mul(omega(m, x, y), torus_inv(omega(m, y, x)))


def _turn_exponent(value):
    # chi over exponent-one coefficients lands in the p-torsion of the torus
    if value.is_identity():
        return 0
    if value.exp != 1:
        raise NonCharacterProfile(f"value {value.as_text()} is not a p-th root of unity")
    return value.num


def omega2_closed_form(m, x, y):
    """The skew pairing evaluated by its explicit exponent sum.

    For each shift n the antisymmetric part runs j from nu(x) to -nu(z)-n,
    and the terms with x-index below nu(x) that the antisymmetrization
    over-counts are removed by a second, shorter sum.  Must agree with
    omega2 on every input; the two code paths share nothing.
    """
    if x.has_tail() or y.has_tail():
        raise UnsupportedOperands("closed form requires finitely supported arguments")
    if x.modulus != y.modulus:
        raise MixedModulus(f"{x.modulus} vs {y.modulus}")
    p = m.s.p
    if x.is_zero() or m.z.is_zero():
        return torus_identity(p)
    z = m.z
    nu_x = int(x.valuation)
    nu_z = int(z.valuation)
    total = 0
    for n in m.s.support:
        top = -nu_z - n
        for j in range(nu_x, top + 1):
            total += (x.coeff(j) * y.coeff(j + 2 * n) - x.coeff(j + 2 * n) * y.coeff(j)) * z.coeff(-j - n)
        for j in range(nu_x - 2 * n, min(top, nu_x - 1) + 1):
            total -= x.coeff(j + 2 * n) * y.coeff(j) * z.coeff(-j - n)
    return torus_from_fraction(total, 1, p)


def check_multiplier_axioms(m, lo, hi):
    """Exhaustively assert the multiplier laws on W(lo, hi).

    (M1): omega(x,y) omega(x+y,z) = omega(x,y+z) omega(y,z) on all triples.
    (M2): omega(x,0) = omega(0,x) = 1 on all elements.
    """
    import numpy as np

    p = m.s.p
    size = window_size(p, lo, hi)
    check_work("multiplier axioms", size ** 2, size ** 3)
    elems = window_elements(m.s.modulus, lo, hi)
    digits, powers = window_digits(p, lo, hi)
    add_id = add_table(digits, powers, p)

    table = np.zeros((size, size), dtype=np.uint8)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            table[i, j] = _turn_exponent(omega(m, x, y))

    # zero element sits at window id 0
    m2_bad = table[0, :].any() or table[:, 0].any()
    m2_cx = None
    if m2_bad:
        side, idx = ("left", int(np.argmax(table[0, :]))) if table[0, :].any() else (
            "right", int(np.argmax(table[:, 0])))
        m2_cx = {"x": series_to_text(elems[idx]), "side": side}

    lhs = (table[:, :, None] + table[add_id][:, :, :]) % p      # [x, y, z]
    rhs = (table[:, add_id] + table[None, :, :]) % p
    bad = lhs != rhs
    m1_cx = None
    if bad.any():
        i, j, k = (int(v) for v in np.argwhere(bad)[0])
        x, y, z = elems[i], elems[j], elems[k]
        m1_cx = {
            "x": series_to_text(x),
            "y": series_to_text(y),
            "z": series_to_text(z),
            "lhs": torus_mul(omega(m, x, y), omega(m, lau_add(x, y), z)).as_text(),
            "rhs": torus_mul(omega(m, x, lau_add(y, z)), omega(m, y, z)).as_text(),
        }

    ok = m1_cx is None and m2_cx is None
    return {
        "multiplier": m.describe(),
        "window": [lo, hi],
        "elements": size,
        "triples_checked": size ** 3,
        "m1": "pass" if m1_cx is None else "fail",
        "m2": "pass" if m2_cx is None else "fail",
        "counterexample": m1_cx or m2_cx,
        "pass": bool(ok),
    }


def h_omega(m, x):
    """The character index w with chi_w = omega2(x, .), found by monomial probes.

    Probes y = a*t^j across the finite range where the exponent can be
    nonzero; each slot is re-probed at every scale a to confirm linearity
    (a failure would mean the profile is not a character and raises).
    """
    if x.has_tail():
        raise UnsupportedOperands("probe argument must be finitely supported")
    p = m.s.p
    mod = m.s.modulus
    if x.is_zero() or not m.s.support or m.z.is_zero():
        return lau_zero(mod)
    mshift = m.s.max_shift
    lo_j = int(x.valuation) - 2 * mshift
    hi_j = mshift - int(m.z.valuation)
    coeffs = {}
    for j in range(lo_j, hi_j + 1):
        probe = lau_monomial(mod, j, 1)
        base = _turn_exponent(omega2(m, x, probe))
        for a in range(2, p):
            scaled = _turn_exponent(omega2(m, x, lau_scale(probe, a)))
            if scaled != (a * base) % p:
                raise NonCharacterProfile(
                    f"probe at t^{j}: scale {a} gave exponent {scaled}, expected {(a * base) % p}"
                )
        if base:
            coeffs[-j] = base
    return laurent(mod, coeffs)


def in_s_omega(m, x) -> bool:
    """Exact membership in the radical of omega2 (not window-limited)."""
    return h_omega(m, x).is_zero()


def s_omega_window(m, window, witness_window):
    """Brute-force radical within a window: keep x iff omega2(x, y) = 1 for
    every y in the witness window.

    The witness window must reach 2*max(S) below the window so the decisive
    low monomials are present.  The pair sweep is evaluated through the
    digit expansion of the exponent (the witness window contains every
    monomial, so a vanishing monomial row is equivalent to vanishing on the
    whole witness window); entries come from direct omega2 calls.
    """
    import numpy as np

    lo, hi = window
    wlo, whi = witness_window
    mshift = m.s.max_shift
    if wlo > lo - 2 * mshift:
        raise WitnessWindowTooSmall(
            f"witness window must start at or below {lo - 2 * mshift}, got {wlo}"
        )
    p = m.s.p
    mod = m.s.modulus
    # omega2 on every monomial pair, then one digit row per window element
    size = window_size(p, lo, hi)
    check_work("radical window", (hi - lo) * (whi - wlo) + size, size * (whi - wlo))
    pair = np.zeros((hi - lo, whi - wlo), dtype=np.int64)
    for a in range(hi - lo):
        xm = lau_monomial(mod, lo + a, 1)
        for b in range(whi - wlo):
            pair[a, b] = _turn_exponent(omega2(m, xm, lau_monomial(mod, wlo + b, 1)))
    digits, _ = window_digits(p, lo, hi)
    rows = (digits @ pair) % p
    elems = window_elements(mod, lo, hi)
    return {elems[i] for i in range(len(elems)) if not rows[i].any()}


def _chi_exponent(z, w):
    return _turn_exponent(chi_char(z, w))


def mackey_identity_check(m, lo, hi, method="auto"):
    """Check the obstruction identity over all pairs of extension elements
    with both slots in W(lo, hi):

        chi'(g) chi'(h) = conj(chi_z)(eta(q g, q h)) * chi'(g h)

    where chi'(w, x) = chi_z(w) and q(w, x) = x.  The table method (what
    "auto" runs) evaluates chi_z once per window element and eta once per
    pair of x slots, then decides every pair from those exponents; the direct
    method multiplies the group elements pair by pair and is kept as the
    oracle the tests compare the table method against.
    """
    import numpy as np

    p = m.s.p
    mod = m.s.modulus
    spec = m.s
    if method == "auto":
        method = "table"
    if method not in ("direct", "table"):
        raise ValueError(f"unknown method {method!r}")
    n_slot = window_size(p, lo, hi)
    if method == "direct":
        check_work("mackey identity (direct)", n_slot ** 4, 0)
    else:
        check_work("mackey identity", n_slot ** 2 + n_slot, n_slot ** 3)
    slots = window_elements(mod, lo, hi)

    report = {
        "multiplier": m.describe(),
        "window": [lo, hi],
        "pairs_checked": n_slot ** 4,
        "method": method,
        "pass": True,
        "counterexample": None,
    }

    def fail(g, h):
        lhs = torus_mul(chi_char(m.z, g.w), chi_char(m.z, h.w))
        rhs = torus_mul(
            torus_inv(chi_char(m.z, eta(spec, g.x, h.x))),
            chi_char(m.z, ext_mul(g, h).w),
        )
        report["pass"] = False
        report["counterexample"] = {
            "g": g.as_text(),
            "h": h.as_text(),
            "lhs": lhs.as_text(),
            "rhs": rhs.as_text(),
        }
        return report

    if method == "direct":
        group = [ExtElem(spec, w, x) for w in slots for x in slots]
        for g in group:
            chi_g = chi_char(m.z, g.w)
            for h in group:
                lhs = torus_mul(chi_g, chi_char(m.z, h.w))
                gh = ext_mul(g, h)
                rhs = torus_mul(
                    torus_inv(chi_char(m.z, eta(spec, g.x, h.x))),
                    chi_char(m.z, gh.w),
                )
                if lhs != rhs:
                    return fail(g, h)
        return report

    # exponents stay below 2p through every sum formed here
    dtype = np.min_scalar_type(2 * p)
    e_win = np.array([_chi_exponent(m.z, w) for w in slots], dtype=dtype)
    # eta(x1, x2) is supported in [lo + min S, hi - min S), so the w slot of
    # every product, w1 + w2 + eta, lies in W(lo, hi) as well
    eta_ids = np.array([window_id(eta(spec, x1, x2), lo, hi) for x1 in slots for x2 in slots],
                       dtype=np.int64)
    digits, powers = window_digits(p, lo, hi)
    add_id = add_table(digits, powers, p)                     # (n_slot, n_slot)
    # rhs[s, e]: exponent of s + e minus exponent of e
    rhs = (e_win[add_id] + (p - e_win)) % p
    # bad[(w1, w2), e]: the identity fails for these w slots once eta = e
    sum_w = add_id.reshape(-1)
    lhs = ((e_win[:, None] + e_win[None, :]) % p).reshape(-1, 1)
    bad = rhs[sum_w] != lhs
    hit = bad.any(axis=0)[eta_ids]                            # per (x1, x2)
    if not hit.any():
        return report
    # the reported pair is the first failure in block order (x pairs in
    # blocks, w pairs first within a block), which keeps reports stable
    block = max(1, 500_000 // sum_w.shape[0])
    start = int(np.argmax(hit)) // block * block
    wi, xi = (int(v) for v in np.argwhere(bad[:, eta_ids[start:start + block]])[0])
    w1, w2 = divmod(wi, n_slot)
    x1, x2 = divmod(start + xi, n_slot)
    return fail(ExtElem(spec, slots[w1], slots[x1]), ExtElem(spec, slots[w2], slots[x2]))


@dataclass(frozen=True)
class SOmegaReport:
    spec: MultiplierSpec
    contains_from: int            # K: t^K lies outside the radical, which is {nu > K}
    witnesses: tuple              # (q, h_omega image) pairs, images independent
    verdict: str

    def to_json(self):
        return {
            "spec": self.spec.describe(),
            "K": self.contains_from,
            "witnesses": [
                {"q": q, "h_image": series_to_text(img)} for q, img in self.witnesses
            ],
            "verdict": self.verdict,
        }


def _independent_append(basis, vec, p):
    """Echelon insert over Z/p: reduce vec against basis rows (keyed by their
    leading index) and keep it when something survives."""
    vec = {k: v % p for k, v in vec.items() if v % p}
    while vec:
        piv = min(vec)
        row = basis.get(piv)
        if row is None:
            basis[piv] = vec
            return True
        factor = (vec[piv] * pow(row[piv], p - 2, p)) % p
        for k, v in row.items():
            vec[k] = (vec.get(k, 0) - factor * v) % p
        vec = {k: v for k, v in vec.items() if v}
    return False


def type_i_verdict(m, depth: int):
    """Search monomials down to t^-depth for independent h_omega images.

    Reports the largest K found with U_K inside the radical, and a verdict:
    NotTypeI_witnessed when at least depth/2 monomials have independent
    nonzero images (the quotient by the radical then exceeds any fixed
    finite size the search could confirm), Inconclusive otherwise.  The
    positive direction (type I) is never claimed.  A depth below 2 would let
    an empty witness list reach the NotTypeI threshold, so it is refused.
    """
    if depth < 2:
        raise InvalidParams("depth must be >= 2")
    mod = m.s.modulus
    floor = -depth - 1
    if not m.s.support or m.z.is_zero():
        return SOmegaReport(m, floor, (), "Inconclusive")

    k = m.s.max_shift - int(m.z.valuation)
    # h_omega(t^q) makes p - 1 omega2 calls per slot of q - 2*max S .. k; the
    # loops below probe q = k .. floor + 1, and one of those q twice
    probes = max(0, k - floor)
    slots = probes * (2 * m.s.max_shift + 1) + probes * (probes - 1) // 2
    check_work(f"verdict at depth {depth}", (m.s.p - 1) * (slots + probes + 2 * m.s.max_shift), 0)
    while k > floor and h_omega(m, lau_monomial(mod, k, 1)).is_zero():
        k -= 1

    basis = {}
    witnesses = []
    for q in range(k, floor, -1):
        img = h_omega(m, lau_monomial(mod, q, 1))
        if img.is_zero():
            continue
        if _independent_append(basis, dict(img.finite), m.s.p):
            witnesses.append((q, img))
    verdict = "NotTypeI_witnessed" if 2 * len(witnesses) >= depth else "Inconclusive"
    return SOmegaReport(m, k, tuple(witnesses), verdict)
