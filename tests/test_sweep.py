"""The table helpers of the window sweeps."""

import numpy as np
import pytest

from contracta import HeisElem, Modulus, heis_mul, window_elements
from contracta.sweep import add_mod, closure_table, first_nonassociative


@pytest.mark.parametrize("m", [2, 3, 5, 127, 128, 129, 131, 251, 256])
def test_add_mod_matches_mod_on_every_pair(m):
    a, b = (v.astype(np.uint8) for v in np.meshgrid(np.arange(m), np.arange(m)))
    want = (a.astype(np.int64) + b) % m
    assert np.array_equal(add_mod(a, b, m, np.empty_like(a)), want)
    # in place into either operand
    assert np.array_equal(add_mod(a, b.copy(), m, a), want)
    assert a.dtype == np.uint8


def _cyclic(n):
    elems = list(range(n))
    return elems, (lambda a, b: (a + b) % n), {e: e for e in elems}


@pytest.mark.parametrize("n, dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_closure_table_uses_the_narrowest_dtype(n, dtype):
    elems, product, ids = _cyclic(n)
    mul, miss = closure_table(elems, product, ids)
    assert miss is None and mul.dtype == dtype
    assert np.array_equal(mul, np.add.outer(np.arange(n), np.arange(n)) % n)
    assert first_nonassociative(mul) is None


def test_heisenberg_p3_table_is_uint16():
    # 729 elements over F_3 with z one slot short of closing; listed from the
    # top, so the first product already leaves the window
    mod = Modulus(3, 1)
    coords = window_elements(mod, 0, 2)[::-1]
    elems = [HeisElem(1, (xi,), (ups,), z) for xi in coords for ups in coords for z in coords]
    mul, miss = closure_table(elems, heis_mul, {e: i for i, e in enumerate(elems)})
    assert len(elems) == 729 and mul.dtype == np.uint16
    assert miss == (0, 0, heis_mul(elems[0], elems[0]))


def test_first_nonassociative_finds_the_first_triple():
    elems, product, ids = _cyclic(5)
    mul, _ = closure_table(elems, product, ids)
    mul[1, 2] = 4  # 1 + 2 reads as 4
    # (1 + 1) + 1 = 3 but 1 + (1 + 1) reads as 4; earlier triples start
    # with the identity or never meet the fault
    assert first_nonassociative(mul) == (1, 1, 1)
