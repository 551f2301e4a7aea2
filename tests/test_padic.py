"""p-adic scalars, companion matrices and contraction."""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contracta import (
    companion_matrix,
    contractivity_certificate,
    dual_companion,
    padic,
    poly,
)
from contracta.errors import InsufficientPrecision
from contracta.padic import (
    PadicElem,
    min_entry_valuation,
    padd,
    padic_to_text,
    pmul,
    pneg,
    pval,
    text_to_padic,
)

rationals = st.fractions(min_value=-200, max_value=200, max_denominator=64)


def test_exact_construction_and_valuation():
    assert pval(padic(2, 8)) == 3
    assert pval(padic(2, 5)) == 0
    assert pval(padic(3, Fraction(1, 3))) == -1
    assert pval(padic(2, 0)) == inf


def test_precision_truncation():
    x = padic(2, 5, prec=2)
    assert x.frac == 1  # 5 = 1 + 4 dies to 1 mod 4
    assert x.prec == 2
    assert padic(2, 8, prec=3).is_exact_zero() is False
    assert padic(2, 8, prec=3).frac == 0


def test_rational_reduction_mod_precision():
    # 1/3 = 3^{-1} has a 2-adic expansion starting 1 + 2 + 0*4 + ...
    x = padic(2, Fraction(1, 3), prec=2)
    assert x.frac == 3


@given(rationals, rationals)
def test_exact_arithmetic_matches_fractions(a, b):
    # denominators coprime to 2 keep everything 2-adically integral or not; either way exact
    x, y = padic(3, a), padic(3, b)
    assert padd(x, y).frac == a + b
    assert padd(x, pneg(y)).frac == a - b
    assert pmul(x, y).frac == a * b
    assert pneg(x).frac == -a


def test_precision_propagation():
    x = padic(2, 1, prec=3)
    y = padic(2, 2)
    assert padd(x, y).prec == 3
    # multiplying by p^1 gains a digit of absolute precision
    assert pmul(x, y).prec == 4
    assert pmul(y, y).prec is None


def test_pval_raises_when_undetermined():
    zero_at_prec = padic(2, 8, prec=3)
    with pytest.raises(InsufficientPrecision):
        pval(zero_at_prec)


# ------------------------------------------------------- companion matrices

def test_poly_shape():
    g = poly(2, (-2, 0))  # X^2 - 2
    assert g.m == 2
    assert g.coeffs[0].frac == -2


def test_companion_acts_as_multiplication_by_x():
    # on the basis 1, X of Z_2[X]/(X^2 - 2): X*1 = X, X*X = 2
    g = poly(2, (-2, 0))
    c = companion_matrix(g)
    e0 = (padic(2, 1), padic(2, 0))
    e1 = (padic(2, 0), padic(2, 1))
    assert [v.frac for v in c.matvec(e0)] == [0, 1]
    assert [v.frac for v in c.matvec(e1)] == [2, 0]


def test_transpose_shift_feedback_formula():
    # C^T v = (v_1, ..., v_{m-1}, -a_0 v_0 - ... - a_{m-1} v_{m-1})
    g = poly(3, (3, 3, 0))  # X^3 + 3X + 3
    ct = dual_companion(g)
    v = (padic(3, 2), padic(3, 5), padic(3, 7))
    got = [w.frac for w in ct.matvec(v)]
    want = [5, 7, -(3 * 2 + 3 * 5 + 0 * 7)]
    assert got == want


def test_dual_companion_is_the_transpose():
    g = poly(2, (-2, 0))
    c = companion_matrix(g)
    ct = dual_companion(g)
    for i in range(g.m):
        for j in range(g.m):
            assert ct.rows[i][j] == c.rows[j][i]
    # transposing twice is the identity
    assert ct.transpose().rows == c.rows


def test_contractivity_certificates():
    assert contractivity_certificate(poly(2, (-2,))) is True
    assert contractivity_certificate(poly(2, (-2, 0))) is True
    assert contractivity_certificate(poly(2, (2, 2))) is True
    assert contractivity_certificate(poly(2, (-1,))) is False
    assert contractivity_certificate(poly(2, (0, 2))) is False  # zero root
    with pytest.raises(InsufficientPrecision):
        contractivity_certificate(
            poly(2, (PadicElem(2, Fraction(0), 0), padic(2, 2)))
        )


def test_iterates_contract():
    # for X^2 - 2 over Z_2 the square of the matrix is multiplication by 2:
    # valuations gain one every two steps
    g = poly(2, (-2, 0))
    for mat in (companion_matrix(g), dual_companion(g)):
        v = (padic(2, 1), padic(2, 1))
        vals = []
        for _ in range(21):
            vals.append(min_entry_valuation(v))
            v = mat.matvec(v)
        assert all(vals[k + 2] >= vals[k] + 1 for k in range(19))
        assert vals[20] >= 10


def test_min_entry_valuation():
    assert min_entry_valuation((padic(2, 4), padic(2, 2))) == 1
    assert min_entry_valuation((padic(2, 0), padic(2, 0))) == inf


# ------------------------------------------------------- text codec

def test_text_codec_hand_values():
    assert text_to_padic("5", 2).frac == 5
    assert text_to_padic("-1/3", 5).frac == Fraction(-1, 3)
    x = text_to_padic("1,0,1@2^0 prec 3", 2)
    assert x.frac == 5 and x.prec == 3
    # the literal's prec counts digits; absolute precision is v0 + count
    y = text_to_padic("1,1@3^-1 prec 2", 3)
    assert y.frac == Fraction(1, 3) + 1 and y.prec == 1


@given(rationals)
def test_text_round_trip(a):
    x = padic(2, a)
    assert text_to_padic(padic_to_text(x), 2).frac == x.frac
