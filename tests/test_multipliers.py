"""Projective multipliers: axioms, the skew pairing, its radical, the verdict."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contracta import (
    CocycleSpec,
    ExtElem,
    Modulus,
    MultiplierSpec,
    check_multiplier_axioms,
    eta,
    ext_mul,
    h_omega,
    in_s_omega,
    lau_add,
    lau_monomial,
    laurent,
    mackey_identity_check,
    omega,
    omega2,
    omega2_closed_form,
    s_omega_window,
    tail_character_index,
    text_to_series,
    torus_from_fraction,
    torus_inv,
    torus_mul,
    type_i_verdict,
)
from contracta import chi_char, lau_zero, multipliers, window_elements
from contracta.errors import (
    InvalidParams,
    MixedModulus,
    MixedPrime,
    UnsupportedOperands,
    WitnessWindowTooSmall,
)
from contracta.multipliers import omega2_exponent, omega_exponent

M2 = Modulus(2, 1)
M3 = Modulus(3, 1)
M4 = Modulus(2, 2)

# simple pole index: z = t^-1 over F_2, support {1}
POLE = MultiplierSpec(CocycleSpec(2, (1,)), lau_monomial(M2, -1, 1))
# tail index: z = sum of t^j for j >= 1
TAIL = MultiplierSpec(CocycleSpec(2, (1,)), tail_character_index(2, 1))
THREE = MultiplierSpec(CocycleSpec(3, (1, 2)), lau_monomial(M3, -1, 2))


def finite_series(modulus=M2, lo=-2, hi=3):
    return st.dictionaries(
        st.integers(lo, hi - 1),
        st.integers(0, modulus.card - 1),
        max_size=hi - lo,
    ).map(lambda d: laurent(modulus, d))


def test_omega_reference_value():
    # the running example: omega(1, t^2) picks up chi_{t^-1}(t) = 1/2
    one = lau_monomial(M2, 0, 1)
    t2 = lau_monomial(M2, 2, 1)
    assert omega(POLE, one, t2).turns == Fraction(1, 2)
    assert omega(POLE, t2, one).is_identity()
    assert omega2(POLE, one, t2).turns == Fraction(1, 2)


def test_omega_identity_slots():
    zero = laurent(M2, {})
    x = laurent(M2, {0: 1, 1: 1})
    assert omega(POLE, x, zero).is_identity()
    assert omega(POLE, zero, x).is_identity()


@given(finite_series(M2, -2, 3), finite_series(M2, -2, 3))
def test_omega2_two_paths_agree(x, y):
    assert omega2(POLE, x, y) == omega2_closed_form(POLE, x, y)


@given(finite_series(M3, -2, 2), finite_series(M3, -2, 2))
def test_omega2_two_paths_agree_p3(x, y):
    assert omega2(THREE, x, y) == omega2_closed_form(THREE, x, y)


@given(finite_series(M2, -1, 3), finite_series(M2, -1, 3), finite_series(M2, -1, 3))
def test_omega2_bicharacter(x, y, z):
    lhs = omega2(POLE, lau_add(x, y), z)
    rhs = torus_mul(omega2(POLE, x, z), omega2(POLE, y, z))
    assert lhs == rhs


@given(finite_series(M2, -1, 3), finite_series(M2, -1, 3))
def test_omega2_skew(x, y):
    assert omega2(POLE, x, y) == torus_inv(omega2(POLE, y, x))
    assert omega2(POLE, x, x).is_identity()


def _omega_by_series(m, x, y):
    """The composition omega once was: chi_z on the eta series."""
    return chi_char(m.z, eta(m.s, x, y))


# the default multiplier-axioms specs, plus a zero z and an empty support
EXPONENT_SPECS = [
    POLE,
    TAIL,
    MultiplierSpec(CocycleSpec(2, (1, 3)), tail_character_index(2, 1)),
    THREE,
    MultiplierSpec(CocycleSpec(3, (1, 2)), lau_zero(M3)),
    MultiplierSpec(CocycleSpec(2, ()), tail_character_index(2, -2)),
]


@pytest.mark.parametrize("m", EXPONENT_SPECS)
def test_omega_exponents_agree_with_series_composition(m):
    p = m.s.p
    elems = window_elements(m.s.modulus, -1, 3)
    for x in elems:
        for y in elems:
            e = omega_exponent(m, x, y)
            assert type(e) is int and 0 <= e < p
            assert torus_from_fraction(e, 1, p) == _omega_by_series(m, x, y) == omega(m, x, y)
            e2 = omega2_exponent(m, x, y)
            assert e2 == (e - omega_exponent(m, y, x)) % p
            want = torus_mul(_omega_by_series(m, x, y), torus_inv(_omega_by_series(m, y, x)))
            assert torus_from_fraction(e2, 1, p) == want == omega2(m, x, y)
            assert omega2(m, x, y) == omega2_closed_form(m, x, y)


def test_omega_exponent_on_tailed_operands():
    # a tailed y is read through coeff(); with an empty support a tailed x is
    # accepted too, and the pairing is trivial
    tail = laurent(M2, {}, tail=(-1, (1, 0)))
    x = laurent(M2, {-1: 1, 0: 1})
    for m in (POLE, TAIL):
        assert torus_from_fraction(omega_exponent(m, x, tail), 1, 2) == _omega_by_series(m, x, tail)
    empty = MultiplierSpec(CocycleSpec(2, ()), tail_character_index(2, 1))
    assert omega_exponent(empty, tail, tail) == 0 == omega2_exponent(empty, tail, x)
    assert _omega_by_series(empty, tail, tail).is_identity()


@pytest.mark.parametrize("x, y, error", [
    (lau_monomial(M2, 0, 1), lau_monomial(M4, 0, 1), MixedModulus),
    (lau_monomial(M3, 0, 1), lau_monomial(M3, 1, 1), MixedPrime),
    (lau_monomial(M4, 0, 1), lau_monomial(M4, 1, 1), UnsupportedOperands),
    (laurent(M2, {}, tail=(0, (1,))), lau_monomial(M2, 1, 1), UnsupportedOperands),
    (laurent(M2, {}, tail=(0, (1,))), laurent(M2, {}, tail=(2, (1, 0))), UnsupportedOperands),
])
def test_omega_exponent_refuses_what_the_series_path_refuses(x, y, error):
    for fn in (_omega_by_series, omega_exponent, omega2_exponent, omega, omega2):
        with pytest.raises(error):
            fn(TAIL, x, y)


def test_multiplier_axioms_report():
    rep = check_multiplier_axioms(POLE, -1, 2)
    assert rep["pass"] is True
    assert rep["m1"] == "pass" and rep["m2"] == "pass"
    assert rep["elements"] == 8
    assert rep["triples_checked"] == 512


def test_mackey_identity_direct_and_table_agree():
    direct = mackey_identity_check(TAIL, -1, 2, method="direct")
    table = mackey_identity_check(TAIL, -1, 2, method="table")
    assert direct["pass"] is True
    assert table["pass"] is True
    assert direct["pairs_checked"] == table["pairs_checked"]


# the default window W(-1, 3) at p=2, and a p=3 window as wide as the direct
# method accepts, on which chi_z takes all three exponents
@pytest.mark.parametrize("m, lo, hi", [(POLE, -1, 3), (THREE, 0, 2)])
def test_mackey_identity_auto_is_table_and_matches_direct(m, lo, hi):
    table = mackey_identity_check(m, lo, hi)
    direct = mackey_identity_check(m, lo, hi, method="direct")
    assert table["method"] == "table"
    assert table["pass"] is True and table["pairs_checked"] == m.s.p ** (4 * (hi - lo))
    assert direct == dict(table, method="direct")


def test_mackey_identity_table_passes_p3_default_window():
    # eta vanishes on windows two slots wide, so at p=3 the direct oracle never
    # reaches a window where the eta term of the table method is exercised
    rep = mackey_identity_check(THREE, -1, 3)
    assert rep["method"] == "table"
    assert rep["pass"] is True and rep["pairs_checked"] == 3 ** 16


def _plant_fault(monkeypatch, m, target):
    """Shift chi_z by one p-th turn at the single element `target`, which
    makes it non-additive.  Both names are patched, the character that the
    direct method multiplies and the exponent the table method reads, so
    both methods see the same fault; returns the faulty exponent function."""
    true_chi = multipliers.chi_char
    turn = torus_from_fraction(1, 1, m.s.p)

    def faulty_chi(z, w):
        c = true_chi(z, w)
        return torus_mul(c, turn) if w == target else c

    true_exponent = multipliers.chi_exponent

    def faulty_exponent(z, w):
        e = true_exponent(z, w)
        return (e + 1) % m.s.p if w == target else e

    monkeypatch.setattr(multipliers, "chi_char", faulty_chi)
    monkeypatch.setattr(multipliers, "chi_exponent", faulty_exponent)
    return faulty_exponent


def _ext_from_text(m, text):
    w, x = text[1:-1].split(" | ")
    return ExtElem(m.s, text_to_series(w), text_to_series(x))


def _violates(m, exponent, g, h):
    lhs = (exponent(m.z, g.w) + exponent(m.z, h.w)) % m.s.p
    rhs = (exponent(m.z, ext_mul(g, h).w) - exponent(m.z, eta(m.s, g.x, h.x))) % m.s.p
    return lhs != rhs


# planted faults on W(-1, 3) and the pair the table method reports for each:
# the first failure with x pairs swept in blocks, w pairs first within a block
PLANTED = [
    (POLE, "1*t^0 + 1*t^2 @ p=2^1",
     "(0 @ p=2^1 | 1*t^-1 @ p=2^1)", "(1*t^2 @ p=2^1 | 1*t^1 @ p=2^1)"),
    (THREE, "1*t^-1 + 1*t^0 + 1*t^1 @ p=3^1",
     "(1*t^-1 @ p=3^1 | 0 @ p=3^1)", "(1*t^0 + 1*t^1 @ p=3^1 | 0 @ p=3^1)"),
]


@pytest.mark.parametrize("m, target, g, h", PLANTED)
def test_mackey_identity_table_reports_planted_fault(monkeypatch, m, target, g, h):
    exponent = _plant_fault(monkeypatch, m, text_to_series(target))
    rep = mackey_identity_check(m, -1, 3)
    assert rep["pass"] is False
    cx = rep["counterexample"]
    assert (cx["g"], cx["h"]) == (g, h)
    assert cx["lhs"] != cx["rhs"]
    assert _violates(m, exponent, _ext_from_text(m, g), _ext_from_text(m, h))


def test_mackey_identity_direct_reports_planted_fault(monkeypatch):
    m, target = PLANTED[0][:2]
    exponent = _plant_fault(monkeypatch, m, text_to_series(target))
    rep = mackey_identity_check(m, -1, 3, method="direct")
    assert rep["pass"] is False
    cx = rep["counterexample"]
    assert _violates(m, exponent, _ext_from_text(m, cx["g"]), _ext_from_text(m, cx["h"]))


def test_mackey_identity_refuses_oversized_sweeps():
    with pytest.raises(InvalidParams, match="evaluations"):
        mackey_identity_check(POLE, -5, 4)
    with pytest.raises(InvalidParams, match="evaluations"):
        mackey_identity_check(THREE, -1, 3, method="direct")
    with pytest.raises(InvalidParams, match="slots wide"):
        mackey_identity_check(POLE, 0, 10 ** 9)


# ------------------------------------------------------------- the radical

def test_h_omega_frozen_values():
    # for the tail index starting at 1 with support {1}
    assert h_omega(TAIL, lau_monomial(M2, 0, 1)) == lau_monomial(M2, 2, 1)
    assert h_omega(TAIL, lau_monomial(M2, -1, 1)) == lau_monomial(M2, 3, 1)
    assert h_omega(TAIL, lau_monomial(M2, 1, 1)).is_zero()
    assert h_omega(TAIL, laurent(M2, {})).is_zero()


def test_in_s_omega_matches_h_omega():
    assert in_s_omega(TAIL, lau_monomial(M2, 1, 1))
    assert not in_s_omega(TAIL, lau_monomial(M2, 0, 1))


@given(finite_series(M2, -2, 3))
def test_h_omega_is_the_omega2_profile(x):
    # chi_{h(x)} reproduces omega2(x, .) against every monomial probe

    h = h_omega(TAIL, x)
    for j in range(-4, 4):
        probe = lau_monomial(M2, j, 1)
        assert chi_char(h, probe) == omega2(TAIL, x, probe)


def test_s_omega_window_frozen_members():
    members = s_omega_window(TAIL, (-2, 3), (-4, 3))
    texts = sorted(x.as_text() for x in members)
    assert texts == [
        "0 @ p=2^1",
        "1*t^1 + 1*t^2 @ p=2^1",
        "1*t^1 @ p=2^1",
        "1*t^2 @ p=2^1",
    ]


def test_s_omega_window_agrees_with_literal_double_loop():

    members = s_omega_window(TAIL, (-1, 2), (-3, 2))
    brute = {
        x
        for x in window_elements(M2, -1, 2)
        if all(
            omega2(TAIL, x, y).is_identity()
            for y in window_elements(M2, -3, 2)
        )
    }
    assert members == brute


def test_s_omega_window_rejects_short_witness_window():
    with pytest.raises(WitnessWindowTooSmall):
        s_omega_window(TAIL, (-2, 3), (-3, 3))


def test_s_omega_members_agree_with_exact_membership():
    members = s_omega_window(TAIL, (-2, 3), (-4, 3))

    for x in window_elements(M2, -2, 3):
        assert (x in members) == in_s_omega(TAIL, x)


# ------------------------------------------------------------- the verdict

def test_type_i_verdict_frozen():
    rep = type_i_verdict(TAIL, 12)
    data = rep.to_json()
    assert data["verdict"] == "NotTypeI_witnessed"
    assert data["K"] == 0
    assert len(data["witnesses"]) == 13
    assert data["witnesses"][0] == {"q": 0, "h_image": "1*t^2 @ p=2^1"}
    assert data["witnesses"][1] == {"q": -1, "h_image": "1*t^3 @ p=2^1"}


@pytest.mark.parametrize("m, depth, top", [(TAIL, 12, 0), (POLE, 12, 2), (POLE, 2, 2)])
def test_type_i_verdict_probes_each_monomial_once(monkeypatch, m, depth, top):
    # one h_omega image per q from max S - nu(z) down to -depth
    real = multipliers.h_omega
    probed = []

    def counted(spec, x):
        probed.append(int(x.valuation))
        return real(spec, x)

    monkeypatch.setattr(multipliers, "h_omega", counted)
    assert type_i_verdict(m, depth).to_json()["K"] == top
    assert probed == list(range(top, -depth - 1, -1))


@pytest.mark.parametrize("depth", [-5, 0, 1])
def test_type_i_verdict_refuses_depth_below_two(depth):
    with pytest.raises(InvalidParams):
        type_i_verdict(TAIL, depth)


def test_verdict_witnesses_are_independent_nonmembers():
    rep = type_i_verdict(TAIL, 12)
    for entry in rep.to_json()["witnesses"]:
        x = lau_monomial(M2, entry["q"], 1)
        assert not in_s_omega(TAIL, x)


def test_displayed_witness_value():
    # x = c*t^q with q at the radical boundary, y = a*t^{q-2*max(S)}:
    # omega2(y, x) realizes exactly a*c / p turns
    p = 3
    spec = MultiplierSpec(CocycleSpec(p, (1,)), tail_character_index(p, 1))
    q = 0  # boundary: max(S) - k0 = 0
    for a in range(1, p):
        for c in range(1, p):
            x = lau_monomial(M3, q, c)
            y = lau_monomial(M3, q - 2, a)
            got = omega2(spec, y, x)
            assert got == torus_from_fraction(a * c, 1, p)
            assert omega2(spec, x, y) == torus_inv(got)
