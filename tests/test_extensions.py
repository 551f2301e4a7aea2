"""The central extension twisted by eta: group laws and displayed commutators."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contracta import (
    CocycleSpec,
    ExtElem,
    Modulus,
    derived_witness,
    eta,
    ext_alpha,
    ext_commutator,
    ext_elem,
    ext_inv,
    ext_mul,
    lau_add,
    lau_monomial,
    lau_scale,
    lau_sub,
    lau_zero,
    laurent,
    predicted_monomial_commutator,
)
from contracta.errors import MixedCocycle
from contracta.extensions import ext_from_json, ext_mul_coeffs, ext_to_json

M2 = Modulus(2, 1)
M3 = Modulus(3, 1)
SPEC2 = CocycleSpec(2, (1,))
SPEC3 = CocycleSpec(3, (1, 2))


def elements(spec, lo=-2, hi=2):
    m = spec.modulus
    coeffs = st.dictionaries(st.integers(lo, hi - 1), st.integers(0, spec.p - 1), max_size=hi - lo)
    return st.tuples(coeffs, coeffs).map(lambda t: ext_elem(spec, t[0], t[1]))


def test_identity_and_inverse_hand_values():
    e = ext_elem(SPEC2, {}, {})
    g = ext_elem(SPEC2, {0: 1}, {1: 1})
    assert ext_mul(e, g) == g
    assert ext_mul(g, e) == g
    assert ext_mul(g, ext_inv(g)) == e
    assert ext_mul(ext_inv(g), g) == e


def test_mul_accumulates_cocycle():
    # (0 | 1) * (0 | t^2) picks up eta(1, t^2) = t in the scalar slot
    g = ext_elem(SPEC2, {}, {0: 1})
    h = ext_elem(SPEC2, {}, {2: 1})
    prod = ext_mul(g, h)
    assert prod.x == laurent(M2, {0: 1, 2: 1})
    assert prod.w == lau_monomial(M2, 1, 1)
    # opposite order has no carry, so the commutator is (t | 0)
    assert ext_mul(h, g).w.is_zero()
    assert ext_commutator(g, h) == ExtElem(SPEC2, lau_monomial(M2, 1, 1), lau_zero(M2))


@given(elements(SPEC3), elements(SPEC3), elements(SPEC3))
def test_associativity(a, b, c):
    assert ext_mul(ext_mul(a, b), c) == ext_mul(a, ext_mul(b, c))


def tailed_elements(spec, lo=-2, hi=2):
    """Elements whose first slot carries a periodic tail."""
    coeffs = st.dictionaries(st.integers(lo, hi - 1), st.integers(0, spec.p - 1), max_size=hi - lo)
    pattern = st.lists(st.integers(0, spec.p - 1), min_size=1, max_size=3).map(tuple)
    return st.tuples(coeffs, st.integers(lo, hi), pattern, coeffs).map(
        lambda t: ExtElem(spec, laurent(spec.modulus, t[0], (t[1], t[2])), laurent(spec.modulus, t[3]))
    )


def _ext_mul_by_series(a, b):
    """ext_mul composed from lau_add and eta: the reference for its map path."""
    w = lau_add(lau_add(a.w, b.w), eta(a.spec, a.x, b.x))
    return ExtElem(a.spec, w, lau_add(a.x, b.x))


@pytest.mark.parametrize("spec", [SPEC2, SPEC3, CocycleSpec(3, ())])
@given(data=st.data())
def test_ext_mul_matches_series_composition(spec, data):
    a = data.draw(st.one_of(elements(spec), tailed_elements(spec)))
    b = data.draw(st.one_of(elements(spec), tailed_elements(spec)))
    got = ext_mul(a, b)
    assert got == _ext_mul_by_series(a, b)
    w, x = ext_mul_coeffs(a, b)
    assert x == dict(got.x.finite)
    if a.w.has_tail() or b.w.has_tail():
        assert w is None
    else:
        assert w == dict(got.w.finite)


def test_ext_mul_coeffs_runs_ext_mul_checks():
    a = ext_elem(SPEC2, {}, {0: 1})
    with pytest.raises(MixedCocycle):
        ext_mul_coeffs(a, ext_elem(CocycleSpec(2, (2,)), {}, {0: 1}))


@given(elements(SPEC2))
def test_double_inverse(a):
    assert ext_inv(ext_inv(a)) == a


@given(elements(SPEC3), elements(SPEC3))
def test_inverse_of_product(a, b):
    assert ext_inv(ext_mul(a, b)) == ext_mul(ext_inv(b), ext_inv(a))


@given(elements(SPEC2), elements(SPEC2))
def test_commutator_lands_in_center(a, b):
    c = ext_commutator(a, b)
    assert c.x.is_zero()
    # central elements commute with everything
    assert ext_mul(c, a) == ext_mul(a, c)


@given(elements(SPEC3), elements(SPEC3))
def test_commutator_is_eta_antisymmetrization(a, b):
    got = ext_commutator(a, b)
    want_w = lau_sub(eta(SPEC3, a.x, b.x), eta(SPEC3, b.x, a.x))
    assert got == ExtElem(SPEC3, want_w, lau_zero(M3))


def test_predicted_monomial_commutator_hand_values():
    # [t^n, t^{n+2k}] = (indicator(k) * t^{n+k} | 0)
    assert predicted_monomial_commutator(SPEC2, 0, 1) == ExtElem(
        SPEC2, lau_monomial(M2, 1, 1), lau_zero(M2)
    )
    assert predicted_monomial_commutator(SPEC2, 0, 2).w.is_zero()
    assert predicted_monomial_commutator(SPEC3, -3, 2) == ExtElem(
        SPEC3, lau_monomial(M3, -1, 1), lau_zero(M3)
    )


@given(st.integers(-3, 3), st.integers(1, 4))
def test_monomial_commutator_matches_prediction(n, k):
    g = ext_elem(SPEC3, {}, {n: 1})
    h = ext_elem(SPEC3, {}, {n + 2 * k: 1})
    assert ext_commutator(g, h) == predicted_monomial_commutator(SPEC3, n, k)


@given(st.integers(-3, 3), st.integers(1, 4), st.integers(1, 2), st.integers(1, 2))
def test_scaled_monomial_commutator(n, k, c, d):
    g = ext_elem(SPEC3, {}, {n: c})
    h = ext_elem(SPEC3, {}, {n + 2 * k: d})
    base = predicted_monomial_commutator(SPEC3, n, k)
    want = ExtElem(SPEC3, lau_scale(base.w, c * d), lau_zero(M3))
    assert ext_commutator(g, h) == want


def test_derived_witness_realizes_central_monomial():
    for j in (-2, 0, 2, 5):
        g, h = derived_witness(SPEC2, j)
        got = ext_commutator(g, h)
        assert got == ExtElem(SPEC2, lau_monomial(M2, j, 1), lau_zero(M2))


def test_derived_witness_frozen_example():
    g, h = derived_witness(SPEC2, 2)
    assert g.as_text() == "(0 @ p=2^1 | 1*t^1 @ p=2^1)"
    assert h.as_text() == "(0 @ p=2^1 | 1*t^3 @ p=2^1)"


@given(elements(SPEC2), elements(SPEC2), st.integers(-3, 3))
def test_shift_automorphism(a, b, k):
    # alpha is an automorphism for every shift k
    lhs = ext_alpha(ext_mul(a, b), k)
    rhs = ext_mul(ext_alpha(a, k), ext_alpha(b, k))
    assert lhs == rhs
    assert ext_alpha(ext_alpha(a, k), -k) == a


@given(elements(SPEC3))
def test_json_round_trip(a):
    assert ext_from_json(ext_to_json(a)) == a
