"""Canonical-form Laurent series: construction, arithmetic, text/JSON codecs."""

import math
import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contracta import (
    InvalidParams,
    InvariantViolation,
    Modulus,
    ParseError,
    UnsupportedOperands,
    lau_add,
    lau_monomial,
    lau_mul,
    lau_neg,
    lau_scale,
    lau_shift,
    lau_sub,
    lau_valuation,
    lau_zero,
    laurent,
    series_from_json,
    series_to_json,
    series_to_text,
    text_to_series,
)

M2 = Modulus(2, 1)
M3 = Modulus(3, 1)
M4 = Modulus(2, 2)

# the package attribute `laurent` is the function, so the module is read here
laurent_mod = sys.modules["contracta.laurent"]


def finite_series(modulus=M2, lo=-3, hi=4):
    """Strategy: a finitely supported element with exponents in [lo, hi)."""
    return st.dictionaries(
        st.integers(lo, hi - 1),
        st.integers(0, modulus.card - 1),
        max_size=hi - lo,
    ).map(lambda d: laurent(modulus, d))


def tailed_series(modulus=M2):
    """Strategy: an eventually-periodic element (possibly with finite head)."""
    return st.tuples(
        st.dictionaries(st.integers(-3, 2), st.integers(0, modulus.card - 1), max_size=4),
        st.integers(-1, 3),
        st.lists(st.integers(0, modulus.card - 1), min_size=1, max_size=3),
    ).map(lambda t: laurent(modulus, t[0], tail=(t[1], tuple(t[2]))))


# ---------------------------------------------------------------- construction

def test_zero_coefficients_are_dropped():
    x = laurent(M2, {0: 2, 1: 4, 5: 0})
    assert x.is_zero()
    assert x.valuation == math.inf


def test_coefficients_reduce_mod_card():
    x = laurent(M3, {0: 5, 1: -1})
    assert x.coeff(0) == 2
    assert x.coeff(1) == 2
    assert x.coeff(99) == 0


def test_tail_of_zeros_collapses():
    x = laurent(M2, {0: 1}, tail=(3, (0, 0)))
    assert not x.has_tail()
    assert x == lau_monomial(M2, 0, 1)


def test_tail_pattern_reduced_to_primitive_period():
    x = laurent(M2, {}, tail=(0, (1, 1)))
    y = laurent(M2, {}, tail=(0, (1,)))
    assert x == y
    assert len(x.tail[1]) == 1


def test_tail_absorbs_matching_head_coefficients():
    # 1*t^0 followed by the all-ones tail from 1 is the all-ones tail from 0
    x = laurent(M2, {0: 1}, tail=(1, (1,)))
    y = laurent(M2, {}, tail=(0, (1,)))
    assert x == y
    assert x.valuation == 0


def test_tail_merge_when_finite_support_overlaps():
    # an explicit entry inside the tail region overrides the pattern there
    x = laurent(M4, {2: 3}, tail=(1, (1,)))
    assert x.coeff(1) == 1
    assert x.coeff(2) == 3
    assert x.coeff(3) == 1
    assert x.coeff(100) == 1


def test_tail_merge_does_not_leave_zero_entries():
    # a zero-containing pattern must not deposit dead entries in the finite part
    x = laurent(M2, {0: 1, 2: 1}, tail=(-1, (0,)))
    assert x == laurent(M2, {0: 1, 2: 1})
    y = laurent(M2, {2: 1}, tail=(0, (1, 0)))
    assert all(c != 0 for _, c in y.finite)
    assert [y.coeff(i) for i in range(5)] == [1, 0, 1, 0, 1]


def test_strict_mode_rejects_overlap():
    with pytest.raises(InvariantViolation):
        laurent(M2, {2: 1}, tail=(1, (1,)), strict=True)


def test_non_integer_index_rejected():
    with pytest.raises(InvariantViolation):
        laurent(M2, {"0": 1})


@given(finite_series(M3))
def test_valuation_is_min_of_support(x):
    if x.is_zero():
        assert x.valuation == math.inf
    else:
        support = [i for i in range(-10, 10) if x.coeff(i)]
        assert x.valuation == min(support)
        assert x.support_max() == max(support)


# ---------------------------------------------------------------- arithmetic

def test_add_hand_values():
    one_plus_t = laurent(M2, {0: 1, 1: 1})
    assert lau_add(one_plus_t, one_plus_t).is_zero()
    a = laurent(M3, {0: 2})
    b = laurent(M3, {0: 2})
    assert lau_add(a, b) == laurent(M3, {0: 1})


def test_add_merges_two_tails():
    # per[1] from 0 plus per[1,0] from 0 has period lcm(1,2)=2: pattern (0,1)
    x = laurent(M2, {}, tail=(0, (1,)))
    y = laurent(M2, {}, tail=(0, (1, 0)))
    z = lau_add(x, y)
    assert z.has_tail()
    assert [z.coeff(i) for i in range(6)] == [0, 1, 0, 1, 0, 1]


def test_mul_freshman_dream():
    one_plus_t = laurent(M2, {0: 1, 1: 1})
    sq = lau_mul(one_plus_t, one_plus_t)
    assert sq == laurent(M2, {0: 1, 2: 1})


def test_mul_with_tail_telescopes():
    # (1 + t) * (1 + t + t^2 + ...) = 1 over F_2
    one_plus_t = laurent(M2, {0: 1, 1: 1})
    geom = laurent(M2, {}, tail=(0, (1,)))
    assert lau_mul(one_plus_t, geom) == lau_monomial(M2, 0, 1)
    assert lau_mul(geom, one_plus_t) == lau_monomial(M2, 0, 1)


def test_mul_two_tails_unsupported():
    geom = laurent(M2, {}, tail=(0, (1,)))
    with pytest.raises(UnsupportedOperands):
        lau_mul(geom, geom)


def test_shift_and_scale():
    x = laurent(M3, {-1: 2, 0: 1})
    assert lau_shift(x, 2) == laurent(M3, {1: 2, 2: 1})
    assert lau_scale(x, 2) == laurent(M3, {-1: 1, 0: 2})
    assert lau_scale(x, 0).is_zero()
    assert lau_valuation(lau_shift(x, 5)) == 4


def test_shift_moves_tail_start():
    # canonical form starts the tail as early as possible: per[1,0] from 1
    # is stored as per[0,1] from 0, and shifting translates the start
    x = laurent(M2, {}, tail=(1, (1, 0)))
    assert x.tail == (0, (0, 1))
    y = lau_shift(x, -3)
    assert y.tail == (-3, (0, 1))
    assert [y.coeff(i) for i in (-3, -2, -1, 0)] == [0, 1, 0, 1]


def test_shift_agrees_with_laurent_on_seeded_series():
    # lau_shift builds its result without laurent(); canonicalising the
    # translated presentation is the reference
    rng = random.Random(20261020)
    for modulus in (M2, M3, M4):
        for _ in range(200):
            coeffs = {rng.randint(-6, 6): rng.randrange(modulus.card) for _ in range(rng.randint(0, 5))}
            tail = None
            if rng.random() < 0.5:
                pattern = tuple(rng.randrange(modulus.card) for _ in range(rng.randint(1, 4)))
                tail = (rng.randint(-4, 8), pattern)
            x = laurent(modulus, coeffs, tail)
            for k in (-10**9, -7, -1, 0, 1, 5, 10**9, rng.randint(-50, 50)):
                shifted_tail = None if x.tail is None else (x.tail[0] + k, x.tail[1])
                want = laurent(modulus, {i + k: v for i, v in x.finite}, shifted_tail)
                assert lau_shift(x, k) == want


@pytest.mark.parametrize("k", [1.5, 2.0])
def test_shift_refuses_non_integer(k):
    for x in (laurent(M2, {0: 1}), laurent(M2, {-1: 1}, tail=(1, (1, 0))), lau_zero(M2)):
        with pytest.raises(InvariantViolation):
            lau_shift(x, k)


@given(finite_series(M3), finite_series(M3))
def test_add_commutes(x, y):
    assert lau_add(x, y) == lau_add(y, x)


@given(finite_series(M2), finite_series(M2), finite_series(M2))
def test_add_associates(x, y, z):
    assert lau_add(lau_add(x, y), z) == lau_add(x, lau_add(y, z))


@given(finite_series(M3))
def test_neg_cancels(x):
    assert lau_add(x, lau_neg(x)).is_zero()
    assert lau_sub(x, x).is_zero()


@given(finite_series(M3), finite_series(M3))
def test_mul_commutes_on_finite(x, y):
    assert lau_mul(x, y) == lau_mul(y, x)


@given(finite_series(M2), finite_series(M2), finite_series(M2))
def test_mul_distributes(x, y, z):
    lhs = lau_mul(x, lau_add(y, z))
    rhs = lau_add(lau_mul(x, y), lau_mul(x, z))
    assert lhs == rhs


@given(finite_series(M4), finite_series(M4))
def test_finite_mul_is_the_convolution(x, y):
    # coefficient k of x * y is sum_{i + j = k} x_i y_j mod p^n
    conv = {}
    for i, c in x.finite:
        for j, d in y.finite:
            conv[i + j] = conv.get(i + j, 0) + c * d
    assert lau_mul(x, y) == laurent(M4, conv)


@given(tailed_series(M2), finite_series(M2))
def test_tailed_add_agrees_coefficientwise(x, y):
    z = lau_add(x, y)
    for i in range(-6, 12):
        assert z.coeff(i) == (x.coeff(i) + y.coeff(i)) % 2


def _lau_add_dense(x, y):
    """The tailed sum read slot by slot from the lower valuation up to where
    both tails run alone: the reference for lau_add's sparse merge."""
    starts = [t[0] for t in (x.tail, y.tail) if t is not None]
    tops = [m + 1 for m in (x.support_max(), y.support_max()) if m is not None]
    s = max(starts + tops)
    d = 1
    for t in (x.tail, y.tail):
        if t is not None:
            d = d * len(t[1]) // math.gcd(d, len(t[1]))
    lo = int(min(x.valuation, y.valuation))
    coeffs = {i: x.coeff(i) + y.coeff(i) for i in range(lo, s)}
    return laurent(x.modulus, coeffs, (s, tuple(x.coeff(s + k) + y.coeff(s + k) for k in range(d))))


def test_tailed_add_agrees_with_dense_loop():
    rng = random.Random(20261021)
    for mod in (M2, M3, M4):
        def series(tailed):
            head = {rng.randint(-9, 9): rng.randrange(mod.card) for _ in range(rng.randint(0, 4))}
            if not tailed:
                return laurent(mod, head)
            start = rng.randint(-6, 6)
            pattern = tuple(rng.randrange(mod.card) for _ in range(rng.randint(1, 3)))
            return laurent(mod, {i: c for i, c in head.items() if i < start}, tail=(start, pattern))

        for _ in range(200):
            x, y = series(True), series(rng.random() < 0.5)
            if x.has_tail() or y.has_tail():
                assert lau_add(x, y) == _lau_add_dense(x, y)
                assert lau_add(y, x) == _lau_add_dense(x, y)


def test_tailed_add_refuses_a_dense_span_above_the_limit():
    limit = laurent_mod._MAX_DENSE_SPAN
    tail = laurent(M2, {}, tail=(0, (1,)))
    # the result's tail starts one above the finite term, so the span is top + 1
    at_limit = lau_add(tail, lau_monomial(M2, limit - 1, 1))
    assert at_limit.coeff(limit - 1) == 0 and at_limit.tail == (limit, (1,))
    for x, y in ((tail, lau_monomial(M2, limit, 1)),
                 (laurent(M3, {}, tail=(-limit, (1, 2))), laurent(M3, {}, tail=(1, (1,))))):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(InvalidParams, match="dense coefficients"):
                lau_add(a, b)


def test_tailed_mul_inherits_the_dense_span_limit():
    tail = laurent(M2, {}, tail=(0, (1,)))
    far = laurent(M2, {0: 1, laurent_mod._MAX_DENSE_SPAN + 1: 1})
    with pytest.raises(InvalidParams, match="dense coefficients"):
        lau_mul(far, tail)
    near = laurent(M2, {0: 1, 5: 1})
    assert lau_mul(near, tail) == laurent(M2, {0: 1, 1: 1, 2: 1, 3: 1, 4: 1})


@given(tailed_series(M3))
def test_tailed_self_subtraction(x):
    assert lau_sub(x, x).is_zero()


def test_valuation_of_products_adds():
    x = lau_monomial(M3, 2, 2)
    y = lau_monomial(M3, -5, 1)
    assert lau_mul(x, y).valuation == -3


# ---------------------------------------------------------------- codecs

def test_text_hand_examples():
    assert series_to_text(lau_zero(M2)) == "0 @ p=2^1"
    x = laurent(M3, {-1: 2, 3: 1})
    assert series_to_text(x) == "2*t^-1 + 1*t^3 @ p=3^1"
    geom = laurent(M2, {}, tail=(0, (1,)))
    assert series_to_text(geom) == "per[1]*t^{>=0} @ p=2^1"


def test_parse_hand_examples():
    x = text_to_series("2*t^-1 + 1*t^3 @ p=3^1")
    assert x == laurent(M3, {-1: 2, 3: 1})
    y = text_to_series("1*t^0 + per[1,0]*t^{>=2} @ p=2^1")
    assert y.coeff(0) == 1 and y.coeff(2) == 1 and y.coeff(3) == 0 and y.coeff(4) == 1


def test_parse_rejects_malformed():
    for bad in ["", "1*t^ @ p=2^1", "1*t^0", "per[]*t^{>=0} @ p=2^1"]:
        with pytest.raises(ParseError):
            text_to_series(bad)
    # syntactically fine but the modulus itself is invalid
    with pytest.raises(InvariantViolation):
        text_to_series("1*t^0 @ p=4^1")


@given(finite_series(M4, -4, 5))
def test_text_round_trip_finite(x):
    assert text_to_series(series_to_text(x)) == x


@given(tailed_series(M3))
def test_text_round_trip_tailed(x):
    assert text_to_series(series_to_text(x)) == x


@given(tailed_series(M2))
def test_json_round_trip(x):
    assert series_from_json(series_to_json(x)) == x


def test_json_shape():
    x = laurent(M2, {0: 1}, tail=(2, (1,)))
    obj = series_to_json(x)
    assert obj["p"] == 2 and obj["n"] == 1
    assert obj["finite"] == {"0": 1}
    assert obj["tail"] == {"start": 2, "pattern": [1]}
