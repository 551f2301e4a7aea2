"""Shift-pairing cocycles over F_p and their law checks."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contracta import (
    CocycleSpec,
    InvariantViolation,
    Modulus,
    UnsupportedOperands,
    check_cocycle_laws,
    eta,
    lau_add,
    lau_monomial,
    lau_shift,
    laurent,
    theta,
)
from contracta import cocycles
from contracta.cocycles import cocycle_from_json, cocycle_to_json, law_masks, packed_law_verdicts
from contracta.sweep import add_table, window_digits

M2 = Modulus(2, 1)
M3 = Modulus(3, 1)


def finite_series(modulus=M2, lo=-2, hi=3):
    return st.dictionaries(
        st.integers(lo, hi - 1),
        st.integers(0, modulus.card - 1),
        max_size=hi - lo,
    ).map(lambda d: laurent(modulus, d))


def test_spec_construction():
    spec = CocycleSpec(2, (1, 3))
    assert spec.max_shift == 3
    assert spec.min_shift == 1
    assert spec.indicator(1) == 1
    assert spec.indicator(2) == 0
    assert spec.modulus == M2


def test_spec_from_prefix():
    assert CocycleSpec.from_prefix(2, "101").support == (1, 3)
    assert CocycleSpec.from_prefix(3, "0110").support == (2, 3)
    assert CocycleSpec.from_prefix(2, "0").support == ()
    with pytest.raises(InvariantViolation):
        CocycleSpec.from_prefix(2, "102")


def test_spec_json_round_trip():
    spec = CocycleSpec(3, (2, 4))
    assert cocycle_from_json(cocycle_to_json(spec)) == spec


def test_theta_hand_values():
    # coefficient i of theta(n, x, y) is x_i * y_{i+n}
    one = lau_monomial(M2, 0, 1)
    t2 = lau_monomial(M2, 2, 1)
    assert theta(2, one, t2) == one
    assert theta(2, one, one).is_zero()
    assert theta(2, t2, lau_monomial(M2, 4, 1)) == t2
    x = laurent(M3, {0: 2, 1: 1})
    y = laurent(M3, {3: 2, 4: 2})
    got = theta(3, x, y)
    assert got == laurent(M3, {0: 4 % 3, 1: 2})


def test_theta_rejects_tailed_first_argument():
    geom = laurent(M2, {}, tail=(0, (1,)))
    with pytest.raises(UnsupportedOperands):
        theta(2, geom, lau_monomial(M2, 0, 1))
    with pytest.raises(InvariantViolation):
        theta(0, lau_monomial(M2, 0, 1), lau_monomial(M2, 0, 1))


def test_theta_tail_second_argument():
    geom = laurent(M2, {}, tail=(0, (1,)))
    x = laurent(M2, {-1: 1, 5: 1})
    got = theta(4, x, geom)
    # y_{i+4} = 1 for i >= -4, so theta keeps x as is
    assert got == x


def test_eta_hand_values():
    spec = CocycleSpec(2, (1,))
    one = lau_monomial(M2, 0, 1)
    t2 = lau_monomial(M2, 2, 1)
    # eta(x, y) = t * theta(2, x, y) for support {1}
    assert eta(spec, one, t2) == lau_monomial(M2, 1, 1)
    assert eta(spec, t2, one).is_zero()
    assert eta(spec, one, one).is_zero()


def test_eta_empty_support_vanishes():
    spec = CocycleSpec(2, ())
    x = laurent(M2, {0: 1, 1: 1})
    assert eta(spec, x, x).is_zero()


def test_eta_sums_over_support():
    spec = CocycleSpec(2, (1, 2))
    one = lau_monomial(M2, 0, 1)
    # theta(2, 1, t^2) = 1 shifts to t; theta(4, 1, t^4) = 1 shifts to t^2
    y = lau_add(lau_monomial(M2, 2, 1), lau_monomial(M2, 4, 1))
    assert eta(spec, one, y) == laurent(M2, {1: 1, 2: 1})


@given(finite_series(M3), finite_series(M3))
def test_eta_is_the_sum_of_shifted_pairings(x, y):
    spec = CocycleSpec(3, (1, 3))
    want = lau_add(lau_shift(theta(2, x, y), 1), lau_shift(theta(6, x, y), 3))
    assert eta(spec, x, y) == want


def test_eta_rejects_tailed_first_argument():
    geom = laurent(M2, {}, tail=(0, (1,)))
    one = lau_monomial(M2, 0, 1)
    with pytest.raises(UnsupportedOperands):
        eta(CocycleSpec(2, (1,)), geom, one)
    assert eta(CocycleSpec(2, ()), geom, one).is_zero()


@given(finite_series(M3), finite_series(M3), finite_series(M3))
def test_eta_cocycle_law(x, y, z):
    # eta(x,y) + eta(x+y,z) = eta(y,z) + eta(x,y+z)
    spec = CocycleSpec(3, (1, 2))
    lhs = lau_add(eta(spec, x, y), eta(spec, lau_add(x, y), z))
    rhs = lau_add(eta(spec, y, z), eta(spec, x, lau_add(y, z)))
    assert lhs == rhs


@given(finite_series(M2), finite_series(M2))
def test_eta_biadditive(x1, x2):
    spec = CocycleSpec(2, (1,))
    y = laurent(M2, {2: 1, 3: 1})
    lhs = eta(spec, lau_add(x1, x2), y)
    rhs = lau_add(eta(spec, x1, y), eta(spec, x2, y))
    assert lhs == rhs


def _eta_by_coeff(spec, x, y):
    """eta summed with one coeff() lookup per (shift, term): the reference
    for eta and eta_coeffs."""
    acc = {}
    for n in spec.support:
        for i, c in x.finite:
            v = c * y.coeff(i + 2 * n)
            if v:
                acc[i + n] = acc.get(i + n, 0) + v
    return laurent(x.modulus, acc)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("support", [(), (1,), (1, 3)])
def test_eta_and_coeff_map_agree_with_coeff_loop(p, support):
    rng = random.Random(p * 100 + len(support))
    mod = Modulus(p, 1)
    spec = CocycleSpec(p, support)

    def terms(lo, hi):
        return {rng.randint(lo, hi): rng.randrange(p) for _ in range(rng.randint(0, 4))}

    for _ in range(120):
        x = laurent(mod, terms(-4, 4))
        start = rng.randint(-3, 6)
        tail = tuple(rng.randrange(p) for _ in range(rng.randint(1, 3)))
        for y in (laurent(mod, terms(-4, 8)), laurent(mod, terms(start - 5, start - 1), tail=(start, tail))):
            want = _eta_by_coeff(spec, x, y)
            assert eta(spec, x, y) == want
            assert cocycles.eta_coeffs(spec, x, y) == dict(want.finite)


def test_check_cocycle_laws_report():
    rep = check_cocycle_laws(CocycleSpec(2, (1,)), -1, 2)
    assert rep["pass"] is True
    laws = {entry["law"]: entry["status"] for entry in rep["laws"]}
    assert laws == {
        "additivity-first": "pass",
        "additivity-second": "pass",
        "shift-equivariance": "pass",
        "cocycle-identity": "pass",
    }
    assert rep["pairs_checked"] == 8 ** 2
    assert rep["triples_checked"] == 8 ** 3


def test_check_cocycle_laws_empty_support():
    rep = check_cocycle_laws(CocycleSpec(3, ()), 0, 2)
    assert rep["pass"] is True


# ------------------------------------------------ packed law checks vs % p

def _bilinear_table(p, lo, hi, e_width, rng):
    """A uint8 eta-like table [x, y, lane] that is bilinear in each lane, so
    every law holds, with rows padded to whole 8-byte words."""
    import numpy as np

    digits, _ = window_digits(p, lo, hi)
    forms = rng.integers(0, p, (e_width, hi - lo, hi - lo))
    tab = np.einsum("iu,luv,jv->ijl", digits, forms, digits) % p
    packed = np.zeros(tab.shape[:2] + (-(-e_width // 8) * 8,), dtype=np.uint8)
    packed[:, :, :e_width] = tab
    return packed


@pytest.mark.parametrize("p, lo, hi", [(2, 0, 3), (3, -1, 1), (5, 0, 2), (127, 0, 1), (131, 0, 1)])
def test_packed_law_verdicts_agree_with_mod_p(p, lo, hi):
    import numpy as np

    rng = np.random.default_rng(p)
    digits, powers = window_digits(p, lo, hi)
    add_id = add_table(digits, powers, p)
    # on the p-element windows, only the widths at the 8-byte pad boundary
    for e_width in range(1, 10) if p < 100 else (1, 8, 9):
        packed = _bilinear_table(p, lo, hi, e_width, rng)
        tab = packed[:, :, :e_width]
        assert packed_law_verdicts(packed, add_id, p) == (True, True, True)
        if p < 100:
            assert not any(mask.any() for mask in law_masks(tab, add_id, p))
        # one wrong entry leaves no table additive in both slots
        i, j = rng.integers(0, len(add_id), 2)
        lane = rng.integers(0, e_width)
        tab[i, j, lane] = (tab[i, j, lane] + rng.integers(1, p)) % p
        got = packed_law_verdicts(packed, add_id, p)
        assert got == tuple(not mask.any() for mask in law_masks(tab, add_id, p))
        assert got != (True, True, True)


def _plant(monkeypatch, fault):
    """Add the coefficient map fault(x, y) to every eta value, at the
    coefficient map that both eta and the law table read."""
    true_coeffs = cocycles.eta_coeffs

    def faulty(spec, x, y):
        merged = true_coeffs(spec, x, y)
        for i, v in (fault(x, y) or {}).items():
            merged[i] = merged.get(i, 0) + v
        return dict(laurent(x.modulus, merged).finite)

    monkeypatch.setattr(cocycles, "eta_coeffs", faulty)


def _law_reports(rep):
    return {entry["law"]: (entry["status"], entry["counterexample"]) for entry in rep["laws"]}


def test_planted_fault_fails_additivity_first(monkeypatch):
    # x0^2 y0 is linear in y but not in x over F_3
    _plant(monkeypatch, lambda x, y: {1: x.coeff(0) ** 2 * y.coeff(0) % 3})
    rep = check_cocycle_laws(CocycleSpec(3, (1,)), 0, 2)
    assert (rep["pairs_checked"], rep["triples_checked"], rep["pass"]) == (81, 729, False)
    one = "1*t^0 @ p=3^1"
    assert _law_reports(rep) == {
        "additivity-first": ("fail", {"x": one, "x2": one, "y": one,
                                      "lhs": "1*t^1 @ p=3^1", "rhs": "2*t^1 @ p=3^1"}),
        "additivity-second": ("pass", None),
        "shift-equivariance": ("fail", {"x": one, "y": one,
                                        "lhs": "0 @ p=3^1", "rhs": "1*t^2 @ p=3^1"}),
        "cocycle-identity": ("fail", {"x": one, "y": one, "z": one,
                                      "lhs": "2*t^1 @ p=3^1", "rhs": "0 @ p=3^1"}),
    }


def test_planted_fault_fails_additivity_second(monkeypatch):
    _plant(monkeypatch, lambda x, y: {1: x.coeff(0) * y.coeff(0) ** 2 % 3})
    rep = check_cocycle_laws(CocycleSpec(3, (1,)), 0, 2)
    assert (rep["pairs_checked"], rep["triples_checked"], rep["pass"]) == (81, 729, False)
    one = "1*t^0 @ p=3^1"
    assert _law_reports(rep) == {
        "additivity-first": ("pass", None),
        "additivity-second": ("fail", {"x": one, "y": one, "y2": one,
                                       "lhs": "1*t^1 @ p=3^1", "rhs": "2*t^1 @ p=3^1"}),
        "shift-equivariance": ("fail", {"x": one, "y": one,
                                        "lhs": "0 @ p=3^1", "rhs": "1*t^2 @ p=3^1"}),
        "cocycle-identity": ("fail", {"x": one, "y": one, "z": one,
                                      "lhs": "0 @ p=3^1", "rhs": "2*t^1 @ p=3^1"}),
    }


def test_planted_fault_fails_cocycle_identity(monkeypatch):
    # one pair's value gains t^8: lane 8 of a 9-lane table, in the second word
    a, b = laurent(M3, {0: 1, 1: 2}), laurent(M3, {-1: 2, 2: 1})
    _plant(monkeypatch, lambda x, y: {8: 1} if (x, y) == (a, b) else None)
    rep = check_cocycle_laws(CocycleSpec(3, (1, 2, 3, 4, 5, 6)), -1, 3)
    assert (rep["pairs_checked"], rep["triples_checked"], rep["pass"]) == (6561, 531441, False)
    assert _law_reports(rep) == {
        "additivity-first": ("fail", {
            "x": "1*t^-1 @ p=3^1", "x2": "1*t^0 + 2*t^1 @ p=3^1", "y": "2*t^-1 + 1*t^2 @ p=3^1",
            "lhs": "1*t^1 @ p=3^1", "rhs": "1*t^1 + 1*t^8 @ p=3^1"}),
        "additivity-second": ("fail", {
            "x": "1*t^0 + 2*t^1 @ p=3^1", "y": "1*t^-1 @ p=3^1", "y2": "1*t^-1 + 1*t^2 @ p=3^1",
            "lhs": "1*t^1 + 1*t^8 @ p=3^1", "rhs": "1*t^1 @ p=3^1"}),
        "shift-equivariance": ("fail", {
            "x": "1*t^0 + 2*t^1 @ p=3^1", "y": "2*t^-1 + 1*t^2 @ p=3^1",
            "lhs": "1*t^2 @ p=3^1", "rhs": "1*t^2 + 1*t^9 @ p=3^1"}),
        "cocycle-identity": ("fail", {
            "x": "1*t^-1 @ p=3^1", "y": "1*t^0 + 2*t^1 @ p=3^1", "z": "2*t^-1 + 1*t^2 @ p=3^1",
            "lhs": "2*t^0 + 1*t^1 @ p=3^1", "rhs": "2*t^0 + 1*t^1 + 1*t^8 @ p=3^1"}),
    }
