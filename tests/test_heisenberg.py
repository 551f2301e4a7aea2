"""The Heisenberg group over F_p((t)): group laws, characters, orbits, division."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contracta import (
    DepthExceeded,
    HeisElem,
    Modulus,
    heis_char,
    heis_dual_action,
    heis_inv,
    heis_mul,
    lau_div,
    lau_monomial,
    lau_mul,
    lau_sub,
    laurent,
    n_slice,
    orbit_description,
    torus_mul,
)
from contracta.errors import MixedShape
from contracta.heisenberg import heis_from_json, heis_to_json

M2 = Modulus(2, 1)
M3 = Modulus(3, 1)


def heis_elem(p, xi, upsilon, z):
    """The group element with coordinates given as coefficient dicts."""
    m = Modulus(p, 1)
    return HeisElem(len(xi), tuple(laurent(m, c) for c in xi), tuple(laurent(m, c) for c in upsilon),
                    laurent(m, z))


def coeff_dicts(p, lo=-1, hi=2):
    return st.dictionaries(st.integers(lo, hi - 1), st.integers(0, p - 1), max_size=hi - lo)


def heis_elements(p=2, dim=1):
    d = coeff_dicts(p)
    return st.tuples(*([d] * dim), *([d] * dim), d).map(
        lambda t: heis_elem(p, list(t[:dim]), list(t[dim : 2 * dim]), t[-1])
    )


# ---------------------------------------------------------------- group laws

def test_mul_hand_value():
    g = heis_elem(2, [{0: 1}], [{}], {})
    h = heis_elem(2, [{}], [{1: 1}], {})
    prod = heis_mul(g, h)
    assert prod.xi[0] == lau_monomial(M2, 0, 1)
    assert prod.upsilon[0] == lau_monomial(M2, 1, 1)
    # the central slot picks up xi * mu
    assert prod.z == lau_monomial(M2, 1, 1)
    # reversed order has no cross term
    assert heis_mul(h, g).z.is_zero()


def test_inv_hand_value():
    g = heis_elem(2, [{0: 1}], [{1: 1}], {0: 1})
    ginv = heis_inv(g)
    assert ginv.z == laurent(M2, {0: 1, 1: 1})
    e = heis_elem(2, [{}], [{}], {})
    assert heis_mul(g, ginv) == e
    assert heis_mul(ginv, g) == e


@given(heis_elements(2), heis_elements(2), heis_elements(2))
def test_associativity(a, b, c):
    assert heis_mul(heis_mul(a, b), c) == heis_mul(a, heis_mul(b, c))


@given(heis_elements(3), heis_elements(3))
def test_inverse_of_product(a, b):
    assert heis_inv(heis_mul(a, b)) == heis_mul(heis_inv(b), heis_inv(a))


@given(heis_elements(3))
def test_identity_laws(a):
    e = heis_elem(3, [{}], [{}], {})
    assert heis_mul(e, a) == a
    assert heis_mul(a, e) == a
    assert heis_mul(a, heis_inv(a)) == e


def test_mixed_shapes_rejected():
    g = heis_elem(2, [{0: 1}], [{}], {})
    h = heis_elem(3, [{0: 1}], [{}], {})
    with pytest.raises(MixedShape):
        heis_mul(g, h)
    two = heis_elem(2, [{}, {}], [{}, {}], {})
    with pytest.raises(MixedShape):
        heis_mul(g, two)


@given(heis_elements(2))
def test_json_round_trip(g):
    assert heis_from_json(heis_to_json(g)) == g


# ---------------------------------------------------------------- characters

@given(heis_elements(2), heis_elements(2), heis_elements(2))
@settings(max_examples=40)
def test_char_multiplicative_on_abelian_slice(g, n1, n2):
    # with the xi slot cleared, n_slice is a homomorphism and chi follows
    idx = n_slice(g)
    zero = laurent(M2, {})
    a = heis_elem(2, [{}], [dict(n1.upsilon[0].finite)], dict(n1.z.finite))
    b = heis_elem(2, [{}], [dict(n2.upsilon[0].finite)], dict(n2.z.finite))
    lhs = heis_char(idx, n_slice(heis_mul(a, b)))
    rhs = torus_mul(heis_char(idx, n_slice(a)), heis_char(idx, n_slice(b)))
    assert lhs == rhs
    assert a.xi[0] == zero


@given(heis_elements(2), heis_elements(2))
@settings(max_examples=60)
def test_char_pullback_through_dual_action(g, n):
    # chi_idx(n_slice(g n)) = chi_idx(n_slice(g)) * chi_{moved idx}(n_slice(n))
    # where the index moves by the dual action of g's xi slot
    idx = n_slice(heis_elem(2, [{}], [{0: 1, -1: 1}], {1: 1}))
    lhs = heis_char(idx, n_slice(heis_mul(g, n)))
    moved = heis_dual_action(g.xi, idx)
    rhs = torus_mul(heis_char(idx, n_slice(g)), heis_char(moved, n_slice(n)))
    assert lhs == rhs


@given(heis_elements(2), heis_elements(2))
@settings(max_examples=40)
def test_char_conjugation_matches_dual_action(g, n_raw):
    # for n in the abelian slice, evaluating at g n g^{-1} equals evaluating
    # the action-translated index at n
    n = heis_elem(2, [{}], [dict(n_raw.upsilon[0].finite)], dict(n_raw.z.finite))
    idx = n_slice(heis_elem(2, [{}], [{0: 1}], {1: 1}))
    conj = heis_mul(heis_mul(g, n), heis_inv(g))
    lhs = heis_char(idx, n_slice(conj))
    moved = heis_dual_action(g.xi, idx)
    rhs = heis_char(moved, n_slice(n))
    assert lhs == rhs


def test_dual_action_hand_value():
    xi = (lau_monomial(M2, 0, 1),)
    idx = ((lau_monomial(M2, -1, 1),), lau_monomial(M2, 1, 1))
    ups, z = heis_dual_action(xi, idx)
    assert ups[0] == laurent(M2, {-1: 1, 1: 1})
    assert z == lau_monomial(M2, 1, 1)


def test_dual_action_fixes_iff_central_index_zero():
    zero = laurent(M2, {})
    idx_fixed = ((lau_monomial(M2, 2, 1),), zero)
    idx_moved = ((lau_monomial(M2, 2, 1),), lau_monomial(M2, 0, 1))
    for xi0 in ({0: 1}, {1: 1}, {-1: 1, 0: 1}):
        xi = (laurent(M2, xi0),)
        assert heis_dual_action(xi, idx_fixed) == idx_fixed
        got = heis_dual_action(xi, idx_moved)
        assert got != idx_moved
        assert got[1] == idx_moved[1]  # z never moves


# ---------------------------------------------------------------- division

def test_lau_div_hand_values():
    one = lau_monomial(M2, 0, 1)
    one_plus_t = laurent(M2, {0: 1, 1: 1})
    q = lau_div(one, one_plus_t)
    assert q == laurent(M2, {}, tail=(0, (1,)))
    assert lau_mul(q, one_plus_t) == one
    assert lau_div(lau_monomial(M2, 3, 1), lau_monomial(M2, 1, 1)) == lau_monomial(M2, 2, 1)


def test_lau_div_with_remainder_cycles():
    # t / (1 + t + t^2) over F_2 has the period-3 expansion t + t^2 + t^4 + ...
    num = lau_monomial(M2, 1, 1)
    den = laurent(M2, {0: 1, 1: 1, 2: 1})
    q = lau_div(num, den)
    assert lau_mul(q, den) == num
    assert q.has_tail()


@given(coeff_dicts(2, -2, 3), coeff_dicts(2, -2, 3))
@settings(max_examples=60)
def test_lau_div_inverts_mul(da, db):
    a = laurent(M2, da)
    b = laurent(M2, db)
    if b.is_zero():
        return
    prod = lau_mul(a, b)
    assert lau_div(prod, b) == a


@given(coeff_dicts(3, -2, 2), coeff_dicts(3, -2, 2))
@settings(max_examples=60)
def test_lau_div_p3_self_check(da, db):
    a = laurent(M3, da)
    b = laurent(M3, db)
    if b.is_zero():
        return
    q = lau_div(a, b)
    assert lau_mul(q, b) == a


def test_lau_div_depth_bound():
    one = lau_monomial(M2, 0, 1)
    den = laurent(M2, {0: 1, 5: 1})
    with pytest.raises(DepthExceeded):
        lau_div(one, den, bound=2)


# ---------------------------------------------------------------- orbits

def test_orbit_fixed_point_when_central_index_zero():
    idx = ((lau_monomial(M2, 1, 1),), laurent(M2, {}))
    desc = orbit_description(idx)
    assert desc.kind == "FixedPoint"
    status, xi = desc.membership(idx)
    assert status == "member"
    other = ((lau_monomial(M2, 2, 1),), laurent(M2, {}))
    status, _ = desc.membership(other)
    assert status == "non-member"


def test_orbit_affine_slice_membership_with_witness():
    base = ((laurent(M2, {}),), lau_monomial(M2, 0, 1))
    desc = orbit_description(base)
    assert desc.kind == "AffineSlice"
    query = ((lau_monomial(M2, 3, 1),), lau_monomial(M2, 0, 1))
    status, xi = desc.membership(query)
    assert status == "member"
    # the witness solves xi * z = difference of upsilon coordinates
    diff = lau_sub(query[0][0], base[0][0])
    assert lau_mul(xi[0], base[1]) == diff


def test_orbit_membership_requires_equal_central_index():
    base = ((laurent(M2, {}),), lau_monomial(M2, 0, 1))
    desc = orbit_description(base)
    query = ((laurent(M2, {}),), lau_monomial(M2, 1, 1))
    status, xi = desc.membership(query)
    assert status == "non-member"
    assert xi is None


def test_orbit_periodic_witness():
    # difference 1 against z = 1 + t forces the geometric-series witness
    base = ((laurent(M2, {}),), laurent(M2, {0: 1, 1: 1}))
    desc = orbit_description(base)
    query = ((lau_monomial(M2, 0, 1),), laurent(M2, {0: 1, 1: 1}))
    status, xi = desc.membership(query)
    assert status == "member"
    assert xi[0].has_tail()
    assert lau_mul(xi[0], base[1]) == lau_monomial(M2, 0, 1)
