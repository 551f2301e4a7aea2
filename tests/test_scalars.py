"""Exact scalar and root-of-unity arithmetic."""

from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contracta import (
    InvariantViolation,
    Modulus,
    TorusElem,
    gf_rank,
    is_prime,
    torus_from_fraction,
    torus_identity,
    torus_inv,
    torus_mul,
)
from contracta import scalars


def test_is_prime_small_values():
    assert [q for q in range(2, 30) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def _trial_division(p):
    """Primality by odd trial divisors up to sqrt(p): the oracle for is_prime."""
    if not isinstance(p, int) or p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert [p for p in range(-3, 10 ** 5) if is_prime(p)] == [
        p for p in range(-3, 10 ** 5) if _trial_division(p)
    ]


def test_is_prime_is_exact_up_to_its_bound():
    # strong pseudoprimes to the bases 2..7 and 2..23; 2^61 - 1 and 10^18 + 3 are prime
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2 ** 61 - 1)
    assert is_prime(10 ** 18 + 3)
    assert not is_prime((10 ** 18 + 3) * 1009)
    # the least strong pseudoprime to the first twelve prime bases is refused
    with pytest.raises(InvariantViolation, match="primality bound"):
        is_prime(318665857834031151167461)


def test_modulus_card_and_scalar_reduction():
    assert Modulus(3, 2).card == 9
    for p in (2, 3, 5, 7, 1000003):
        for n in (1, 2, 3, 10):
            assert Modulus(p, n).card == p ** n


def test_modulus_equality_and_hash_are_by_value():
    a, b = Modulus(3, 2), Modulus(3, 2)
    assert a is not b
    assert a == b and hash(a) == hash(b) == hash((3, 2))
    assert a == a
    assert a != Modulus(3, 1) and a != Modulus(2, 2)
    assert Modulus(2, 1) != (2, 1)
    assert (Modulus(2, 1) == (2, 1)) is False
    assert len({a, b, Modulus(3, 1)}) == 2
    # card is an attribute, not a field: repr and fields are the two values
    assert [f.name for f in fields(Modulus)] == ["p", "n"]
    assert repr(a) == "Modulus(p=3, n=2)"


def test_modulus_refuses_an_oversized_power_before_forming_it():
    limit = scalars._MAX_MODULUS_BITS
    assert Modulus(2, limit // 2).card == 2 ** (limit // 2)
    for p, n in [(2, limit // 2 + 1), (2, 10 ** 12), (1000003, 10 ** 9)]:
        with pytest.raises(InvariantViolation, match="too large"):
            Modulus(p, n)


def test_modulus_rejects_composite():
    with pytest.raises(InvariantViolation):
        Modulus(6, 1)
    with pytest.raises(InvariantViolation):
        Modulus(2, 0)


def test_torus_normalization():
    # 2/4 of a turn reduces to 1/2
    x = torus_from_fraction(2, 2, 2)
    assert (x.num, x.exp) == (1, 1)
    # a full number of turns is the identity
    assert torus_from_fraction(8, 3, 2).is_identity()
    assert torus_from_fraction(0, 5, 3).is_identity()
    assert torus_from_fraction(-1, 1, 2).turns == Fraction(1, 2)


def _denominator_exponent(frac, p):
    e, d = 0, frac.denominator
    while d > 1:
        d //= p
        e += 1
    return e


def test_torus_from_fraction_agrees_with_fraction_and_direct_construction():
    for p in (2, 3, 5):
        for exp in range(4):
            for num in range(-2 * p ** exp, 2 * p ** exp + 1):
                got = torus_from_fraction(num, exp, p)
                want = Fraction(num, p ** exp) % 1
                assert got.turns == want
                assert got == TorusElem(p, want.numerator, _denominator_exponent(want, p))
                # equal inputs share one immutable value
                assert torus_from_fraction(num, exp, p) is got


def test_torus_refusals_are_not_cached():
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="prime"):
            torus_from_fraction(1, 1, 4)
        with pytest.raises(InvariantViolation, match="prime"):
            torus_from_fraction(0, 0, 6)
        with pytest.raises(InvariantViolation, match="exponent"):
            torus_from_fraction(1, -1, 2)


def test_torus_cache_keeps_bool_and_int_apart():
    scalars._torus.cache_clear()
    flag = torus_from_fraction(1, True, 2)
    plain = torus_from_fraction(1, 1, 2)
    assert flag == plain and flag is not plain
    assert type(flag.exp) is bool and type(plain.exp) is int
    assert scalars._torus.cache_info().currsize == 2


def test_torus_rejects_non_normal_direct_construction():
    with pytest.raises(InvariantViolation):
        TorusElem(2, 2, 2)  # num divisible by p
    with pytest.raises(InvariantViolation):
        TorusElem(2, 5, 2)  # num out of range


def test_torus_hand_values():
    half = torus_from_fraction(1, 1, 2)
    assert torus_mul(half, half).is_identity()
    quarter = torus_from_fraction(1, 2, 2)
    assert torus_mul(quarter, quarter) == half
    assert quarter.pow(4).is_identity()
    assert quarter.inv().turns == Fraction(3, 4)
    assert half.as_text() == "1/2^1"
    assert torus_identity(3).as_text() == "1"


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(1, 3))
def test_torus_mul_matches_fraction_addition(a, b, exp):
    x = torus_from_fraction(a, exp, 2)
    y = torus_from_fraction(b, exp, 2)
    got = torus_mul(x, y).turns
    want = (x.turns + y.turns) % 1
    assert got == want


@given(st.integers(-50, 50), st.integers(1, 3))
def test_torus_inverse_cancels(a, exp):
    x = torus_from_fraction(a, exp, 3)
    assert torus_mul(x, torus_inv(x)).is_identity()
    # pow agrees with repeated multiplication
    acc = torus_identity(3)
    for _ in range(5):
        acc = torus_mul(acc, x)
    assert acc == x.pow(5)


def test_gf_rank_hand_matrices():
    assert gf_rank([[1, 0], [0, 1]], 2) == 2
    assert gf_rank([[1, 1], [1, 1]], 2) == 1
    assert gf_rank([[2, 4], [1, 2]], 2) == 1  # reduces to a single nonzero row
    assert gf_rank([[0, 0], [0, 0]], 3) == 0
    # det = -3, so singular over F_3 but invertible over F_5
    assert gf_rank([[1, 2], [2, 1]], 3) == 1
    assert gf_rank([[1, 2], [2, 1]], 5) == 2


def test_gf_rank_row_operations_invariance():
    rows = [[1, 2, 0], [0, 1, 1], [1, 0, 1]]
    r = gf_rank(rows, 3)
    swapped = [rows[2], rows[0], rows[1]]
    scaled = [[(2 * v) % 3 for v in row] for row in rows]
    assert gf_rank(swapped, 3) == r
    assert gf_rank(scaled, 3) == r
