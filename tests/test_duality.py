"""Character pairing, dual shift action, contraction times, block groups."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contracta import (
    BlockElem,
    BlockSpec,
    EBlock,
    InvariantViolation,
    MixedModulus,
    Modulus,
    TBlock,
    UnsupportedOperands,
    chi_char,
    contraction_time,
    dual_action_E,
    dual_action_T,
    lau_add,
    lau_monomial,
    lau_shift,
    laurent,
    padic,
    poly,
    text_to_series,
    torus_from_fraction,
    torus_mul,
)
from contracta.duality import (
    block_spec_from_json,
    chi_exponent,
    contraction_time_brute,
    nonclosed_orbit_witness,
    stabilizer_is_trivial,
)

M2 = Modulus(2, 1)
M3 = Modulus(3, 1)
M9 = Modulus(3, 2)


def finite_series(modulus=M2, lo=-3, hi=4):
    return st.dictionaries(
        st.integers(lo, hi - 1),
        st.integers(0, modulus.card - 1),
        max_size=hi - lo,
    ).map(lambda d: laurent(modulus, d))


# ---------------------------------------------------------------- pairing

def test_chi_hand_values():
    one = lau_monomial(M2, 0, 1)
    assert chi_char(one, one).turns == Fraction(1, 2)
    # the pairing couples exponent j against exponent -j
    assert chi_char(lau_monomial(M2, -1, 1), lau_monomial(M2, 1, 1)).turns == Fraction(1, 2)
    assert chi_char(lau_monomial(M2, -1, 1), one).is_identity()
    assert chi_char(lau_monomial(M9, 0, 4), lau_monomial(M9, 0, 2)).turns == Fraction(8, 9)


def test_chi_zero_cases():
    zero = laurent(M2, {})
    assert chi_char(zero, lau_monomial(M2, 3, 1)).is_identity()
    assert chi_char(lau_monomial(M2, 3, 1), zero).is_identity()


def test_chi_rejects_two_tails():
    geom = laurent(M2, {}, tail=(0, (1,)))
    with pytest.raises(UnsupportedOperands):
        chi_char(geom, geom)


def test_chi_tail_against_finite():
    # sum over j >= 1 of y_{-j} x_j picks out the tail of y at negated exponents
    y = laurent(M2, {}, tail=(-5, (1,)))  # ones from exponent -5 up
    x = lau_monomial(M2, 3, 1)
    assert chi_char(y, x).turns == Fraction(1, 2)
    assert chi_char(y, lau_monomial(M2, 6, 1)).is_identity()


def _chi_dense(y, x):
    """The pairing summed slot by slot over every j where x_j and y_-j can
    both be nonzero: the reference for chi_char."""
    exponent = 0
    for j in range(int(x.valuation), -int(y.valuation) + 1):
        exponent += x.coeff(j) * y.coeff(-j)
    return torus_from_fraction(exponent, x.modulus.n, x.modulus.p)


def test_chi_finite_index_on_tailed_argument_agrees_with_dense_sum():
    rng = random.Random(20261020)
    for mod in (M2, M3, M9):
        for _ in range(150):
            y = laurent(mod, {rng.randint(-12, 6): rng.randrange(1, mod.card)
                              for _ in range(rng.randint(1, 4))})
            start = rng.randint(-8, 8)
            pattern = tuple(rng.randrange(mod.card) for _ in range(rng.randint(1, 3)))
            head = {rng.randint(start - 6, start - 1): rng.randrange(mod.card) for _ in range(2)}
            x = laurent(mod, head, tail=(start, pattern))
            if not x.is_zero():
                assert chi_char(y, x) == _chi_dense(y, x)


def test_chi_finite_argument_agrees_with_coeff_sum():
    # the finite-x branch reads a finite y through its index map; the sum of
    # y.coeff(-j) over x's terms is the reference
    rng = random.Random(20261021)
    for mod in (M2, M3, M9):
        for _ in range(150):
            x = laurent(mod, {rng.randint(-6, 6): rng.randrange(mod.card) for _ in range(rng.randint(1, 4))})
            start = rng.randint(-6, 6)
            pattern = tuple(rng.randrange(mod.card) for _ in range(rng.randint(1, 3)))
            head = {rng.randint(-8, 8): rng.randrange(mod.card) for _ in range(rng.randint(0, 3))}
            for y in (laurent(mod, head), laurent(mod, {i: c for i, c in head.items() if i < start},
                                                  tail=(start, pattern))):
                if x.is_zero() or y.is_zero():
                    continue
                exponent = sum(c * y.coeff(-j) for j, c in x.finite)
                assert chi_char(y, x) == torus_from_fraction(exponent, mod.n, mod.p)


def _random_operand(rng, mod, tailed):
    head = {rng.randint(-8, 8): rng.randrange(mod.card) for _ in range(rng.randint(0, 4))}
    if not tailed:
        return laurent(mod, head)
    start = rng.randint(-6, 6)
    pattern = tuple(rng.randrange(mod.card) for _ in range(rng.randint(1, 3)))
    return laurent(mod, {i: c for i, c in head.items() if i < start}, tail=(start, pattern))


def test_chi_exponent_agrees_with_dense_sum():
    # finite against finite, a finite index on a tailed argument and a tailed
    # index on a finite argument; the exponent lies in [0, p^n), so one torus
    # value pins it
    rng = random.Random(20261022)
    for mod in (M2, M3, M9):
        for y_tailed, x_tailed in ((False, False), (False, True), (True, False)):
            for _ in range(100):
                y = _random_operand(rng, mod, y_tailed)
                x = _random_operand(rng, mod, x_tailed)
                e = chi_exponent(y, x)
                assert type(e) is int and 0 <= e < mod.card
                if x.is_zero() or y.is_zero():
                    assert e == 0
                else:
                    assert torus_from_fraction(e, mod.n, mod.p) == _chi_dense(y, x)
                assert chi_char(y, x) == torus_from_fraction(e, mod.n, mod.p)


def test_chi_exponent_zero_operands():
    zero = laurent(M9, {})
    tailed = laurent(M9, {}, tail=(-4, (1, 2)))
    for other in (zero, lau_monomial(M9, 3, 5), tailed):
        assert chi_exponent(zero, other) == chi_exponent(other, zero) == 0


@pytest.mark.parametrize("y, x, error", [
    (lau_monomial(M2, 0, 1), lau_monomial(M3, 0, 1), MixedModulus),
    (lau_monomial(M3, 0, 1), lau_monomial(M9, 0, 1), MixedModulus),
    (laurent(M2, {}, tail=(0, (1,))), laurent(M2, {}, tail=(3, (1, 0))), UnsupportedOperands),
    # the modulus check comes first
    (laurent(M2, {}, tail=(0, (1,))), laurent(M3, {}, tail=(0, (1,))), MixedModulus),
])
def test_chi_exponent_refuses_what_chi_char_refuses(y, x, error):
    with pytest.raises(error):
        chi_exponent(y, x)
    with pytest.raises(error):
        chi_char(y, x)


def test_chi_wide_finite_index_on_tailed_argument_returns_at_once():
    # the index has one term, so the pairing costs one coefficient lookup,
    # not one per slot of the 6e8-wide span between the two valuations
    y = text_to_series("1*t^-300000000 @ p=2^1")
    x = text_to_series("per[1]*t^{>=-300000000} @ p=2^1")
    assert chi_char(y, x).turns == Fraction(1, 2)
    assert chi_char(x, y).turns == Fraction(1, 2)


@given(finite_series(M3, -2, 3), finite_series(M3, -2, 3), finite_series(M3, -2, 3))
def test_chi_additive_in_argument(y, x1, x2):
    lhs = chi_char(y, lau_add(x1, x2))
    rhs = torus_mul(chi_char(y, x1), chi_char(y, x2))
    assert lhs == rhs


@given(finite_series(M9, -2, 2), finite_series(M9, -2, 2), finite_series(M9, -2, 2))
def test_chi_additive_in_index(y1, y2, x):
    lhs = chi_char(lau_add(y1, y2), x)
    rhs = torus_mul(chi_char(y1, x), chi_char(y2, x))
    assert lhs == rhs


def test_chi_separates_points():
    # any nonzero y is detected by the monomial at its negated valuation
    for d in ({0: 1}, {-2: 1}, {3: 1, 4: 1}):
        y = laurent(M2, d)
        probe = lau_monomial(M2, -int(y.valuation), 1)
        assert not chi_char(y, probe).is_identity()


# ---------------------------------------------------------------- dual action

@given(finite_series(M3, -3, 3), finite_series(M3, -3, 3), st.integers(-3, 3))
def test_dual_action_transfers_shift(y, x, k):
    lhs = chi_char(dual_action_T(k, y), x)
    rhs = chi_char(y, lau_shift(x, k))
    assert lhs == rhs


def test_contraction_time_hand_values():
    y = lau_monomial(M2, -2, 1)
    # chi_{t^n y} dies on U_k once n > -k - nu(y): here nu = -2
    assert contraction_time(y, -1) == 4
    assert contraction_time(y, 1) == 2
    assert contraction_time(y, 4) == 0
    from contracta.errors import ZeroCharacter

    with pytest.raises(ZeroCharacter):
        contraction_time(laurent(M2, {}), 5)


@given(finite_series(M3, -4, 4), st.integers(-4, 4))
def test_contraction_time_matches_brute_force(y, k):
    if y.is_zero():
        return
    assert contraction_time(y, k) == contraction_time_brute(y, k)


def test_stabilizer_trivial_for_nonzero():
    assert stabilizer_is_trivial(lau_monomial(M2, 3, 1), depth=8)
    assert stabilizer_is_trivial(laurent(M3, {-1: 2, 0: 1}), depth=8)
    tailed = laurent(M2, {}, tail=(0, (1,)))
    assert stabilizer_is_trivial(tailed, depth=8)


# ---------------------------------------------------------------- blocks

def spec_te():
    return BlockSpec((TBlock(2, 1, 1), EBlock(2, poly(2, (-2, 0)), 1)))


def test_block_spec_json_round_trip():
    obj = {"blocks": [{"kind": "T", "p": 2, "n": 1, "mult": 1},
                      {"kind": "E", "p": 2, "poly": ["-2", "0"], "mult": 1}]}
    assert block_spec_from_json(obj) == spec_te()


def test_block_elem_shape_is_validated():
    spec = spec_te()
    with pytest.raises(InvariantViolation):
        BlockElem(spec, ((lau_monomial(M2, 0, 1),),))  # missing E coordinate
    with pytest.raises(InvariantViolation):
        BlockElem(
            spec,
            ((lau_monomial(M3, 0, 1),), ((padic(2, 1), padic(2, 0)),)),
        )  # wrong modulus in the T slot


def test_dual_action_e_applies_transpose():
    g = poly(2, (-2, 0))
    vec = (padic(2, 1), padic(2, 0))
    moved = dual_action_E(1, vec, g)
    # C^T e_0 = (0, -a_0) = (0, 2)
    assert [v.frac for v in moved] == [0, 2]
    again = dual_action_E(2, vec, g)
    assert [v.frac for v in again] == [2, 0]


def test_nonclosed_orbit_witness_frozen():
    from contracta.padic import min_entry_valuation, pval

    spec = spec_te()
    x = BlockElem(
        spec,
        ((lau_monomial(M2, 0, 1),), ((padic(2, 1), padic(2, 0)),)),
    )
    n = nonclosed_orbit_witness(spec, x, 3, 64)
    assert n == 5

    # defining property recomputed step by step: for each iterate count,
    # the T coordinate is t^j (valuation j) and the E coordinate is C^T
    # applied j times; "inside" means nu > 3 and min valuation >= 3
    def iterate(j):
        t = lau_shift(x.coords[0][0], j)
        vec = dual_action_E(j, x.coords[1][0], spec.blocks[1].poly)
        return t, vec

    for j in range(1, n):
        t, vec = iterate(j)
        inside = t.valuation > 3 and min_entry_valuation(vec) >= 3
        assert not inside  # n is minimal
    t, vec = iterate(n)
    assert t.valuation > 3
    assert min_entry_valuation(vec) >= 3
    assert not t.is_zero() or any(pval(v) < 99 for v in vec)


def test_nonclosed_orbit_witness_rejects_zero():
    spec = spec_te()
    zero = BlockElem(
        spec,
        ((laurent(M2, {}),), ((padic(2, 0), padic(2, 0)),)),
    )
    with pytest.raises(InvariantViolation):
        nonclosed_orbit_witness(spec, zero, 3, 16)
