"""The table helpers of the window sweeps."""

import numpy as np
import pytest

from contracta import HeisElem, Modulus, heis_mul, window_elements
from contracta.sweep import add_mod, closure_table, coeffs_window_id, first_nonassociative, window_id


@pytest.mark.parametrize("m", [2, 3, 5, 127, 128, 129, 131, 251, 256])
def test_add_mod_matches_mod_on_every_pair(m):
    a, b = (v.astype(np.uint8) for v in np.meshgrid(np.arange(m), np.arange(m)))
    want = (a.astype(np.int64) + b) % m
    assert np.array_equal(add_mod(a, b, m, np.empty_like(a)), want)
    # in place into either operand
    assert np.array_equal(add_mod(a, b.copy(), m, a), want)
    assert a.dtype == np.uint8


def _cyclic(n):
    # the integers mod n, each element its own id
    return list(range(n)), lambda a, b: (a + b) % n


@pytest.mark.parametrize("n, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_closure_table_uses_the_narrowest_dtype(n, dtype):
    mul, miss = closure_table(*_cyclic(n))
    assert miss is None and mul.dtype == dtype
    assert np.array_equal(mul, np.add.outer(np.arange(n), np.arange(n)) % n)
    assert first_nonassociative(mul) is None


def test_heisenberg_p3_table_is_uint16():
    # 729 elements over F_3 with z one slot short of closing; listed from the
    # top, so the first product already leaves the window
    mod = Modulus(3, 1)
    coords = window_elements(mod, 0, 2)[::-1]
    elems = [HeisElem(1, (xi,), (ups,), z) for xi in coords for ups in coords for z in coords]
    ids = {e: i for i, e in enumerate(elems)}
    mul, miss = closure_table(elems, lambda a, b: ids.get(heis_mul(a, b)))
    assert len(elems) == 729 and mul.dtype == np.uint16
    assert miss == (0, 0) and heis_mul(elems[0], elems[0]) not in ids


def test_first_nonassociative_finds_the_first_triple():
    mul, _ = closure_table(*_cyclic(5))
    mul[1, 2] = 4  # 1 + 2 reads as 4
    # (1 + 1) + 1 = 3 but 1 + (1 + 1) reads as 4; earlier triples start
    # with the identity or never meet the fault
    assert first_nonassociative(mul) == (1, 1, 1)


def test_coeffs_window_id_matches_window_id():
    mod = Modulus(3, 1)
    for i, x in enumerate(window_elements(mod, -1, 2)):
        assert coeffs_window_id(dict(x.finite), 3, -1, 2) == window_id(x, -1, 2) == i
    # an index on either side of the window has no id
    assert coeffs_window_id({-2: 1}, 3, -1, 2) is None
    assert coeffs_window_id({0: 1, 2: 2}, 3, -1, 2) is None
