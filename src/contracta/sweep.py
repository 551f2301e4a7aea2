"""Window enumeration and deterministic sweeps.

A window W(lo, hi) is the finite set of series supported inside [lo, hi). Its
elements are enumerated in a fixed base-p^n digit order, so every sweep, table
and report derived from a window is reproducible. Sweeps estimate their work
with `window_size` and `check_work` before enumerating anything, then run as
one ordered loop.
"""

from .errors import InvalidParams
from .laurent import laurent

# Largest window sweep a check accepts.  Evaluations count Python-level calls
# (omega, eta, chi_z, ext_mul, heis_mul, window elements) at a few
# microseconds apiece on one x86-64 core with Python 3.11: about 0.4 for
# chi_exponent (0.8 for chi_char, which wraps it in a torus value), 1 to 2
# for eta_coeffs, eta's coefficient map without the series, and 3 for eta,
# 2 for omega_exponent and 4 for omega2_exponent (omega2 about 4.5), and 13
# to 15 for ext_mul and heis_mul, so a sweep at the limit spends 0.05 to
# 1.5 s in them.  The character and multiplier sweeps fill their tables with
# the exponent functions, cocycle-laws with eta_coeffs.  Table entries count
# numpy array elements.  Every default suite spec stays below both.
_MAX_EVALUATIONS = 100_000
_MAX_TABLE_ENTRIES = 1 << 24
# no window this wide fits either limit, whatever p is
_MAX_WIDTH = 64


def window_size(card, lo, hi):
    """The number of elements card^(hi - lo) of W(lo, hi), refusing widths
    whose power alone would take long to form."""
    if hi - lo > _MAX_WIDTH:
        raise InvalidParams(f"window ({lo}, {hi}) is {hi - lo} slots wide; the limit is {_MAX_WIDTH}")
    return card ** (hi - lo)


def check_work(what, evaluations, entries):
    """Refuse a sweep whose work estimate exceeds the limits, before any of it runs."""
    if evaluations > _MAX_EVALUATIONS or entries > _MAX_TABLE_ENTRIES:
        raise InvalidParams(
            f"{what} would take {evaluations} evaluations and {entries} table entries; "
            f"the limits are {_MAX_EVALUATIONS} and {_MAX_TABLE_ENTRIES}"
        )


def window_elements(modulus, lo, hi):
    """All series with support inside [lo, hi), in digit-counter order."""
    card = modulus.card
    width = hi - lo
    if width < 0:
        raise ValueError(f"empty window ({lo}, {hi})")
    out = []
    for code in range(card ** width):
        coeffs = {}
        c = code
        for k in range(width):
            c, d = divmod(c, card)
            if d:
                coeffs[lo + k] = d
        out.append(laurent(modulus, coeffs))
    return out


def window_id(x, lo, hi):
    """Position of a window element in window_elements order."""
    if x.has_tail():
        raise InvalidParams("a tailed series is not a window element")
    card = x.modulus.card
    code = 0
    for i, c in x.finite:
        if not lo <= i < hi:
            raise InvalidParams(f"support index {i} outside window ({lo}, {hi})")
        code += c * card ** (i - lo)
    return code


def window_digits(card, lo, hi):
    """Coefficient matrix of the whole window: row i holds the digits of the
    i-th element, columns are slots lo..hi-1.  Returns (digits, powers) with
    digits @ powers recovering window ids."""
    import numpy as np

    width = hi - lo
    size = card ** width
    digits = np.zeros((size, width), dtype=np.int64)
    for k in range(width):
        digits[:, k] = (np.arange(size) // card ** k) % card
    powers = card ** np.arange(width, dtype=np.int64)
    return digits, powers


def add_table(digits, powers, card):
    """id-of-sum lookup: entry (i, j) is the window id of element i + element j."""
    return ((digits[:, None, :] + digits[None, :, :]) % card) @ powers


def closure_table(elems, product, ids):
    """The group table mul[i, j] = ids[product(elems[i], elems[j])], in the
    narrowest unsigned dtype that holds every id, so that the associativity
    gathers cost a byte per triple on tables of up to 256 elements.

    Returns (mul, miss): miss is (i, j, product) for the first pair in row
    order whose product has no id, with mul filled up to it, or None.
    """
    import numpy as np

    size = len(elems)
    mul = np.zeros((size, size), dtype=np.min_scalar_type(size - 1))
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            c = product(a, b)
            got = ids.get(c)
            if got is None:
                return mul, (i, j, c)
            mul[i, j] = got
    return mul, None


def first_nonassociative(mul):
    """(i, j, k) of the first triple in C order with (ij)k != i(jk) in a group
    table, or None."""
    import numpy as np

    bad = mul[mul] != mul[:, mul]
    if not bad.any():
        return None
    return tuple(int(v) for v in np.argwhere(bad)[0])


def add_mod(a, b, m, out):
    """(a + b) mod m into the uint8 buffer out, for uint8 tables a and b whose
    entries are below m <= 256; out may be a or b.

    The sum s < 2m reduces as min(s, s - m): s - m wraps above s exactly when
    s < m.  That needs 2(m - 1) to fit the lane, so for m > 128 the sum is
    formed in uint16 lanes.
    """
    import numpy as np

    if 2 * (m - 1) > 255:
        s = np.add(a, b, dtype=np.uint16)
        np.minimum(s, s - np.uint16(m), out=s)
        np.copyto(out, s, casting="unsafe")
        return out
    np.add(a, b, out=out)
    np.minimum(out, out - np.uint8(m), out=out)
    return out


def parallel_map(fn, items, _workers=None):
    """fn applied to each item, in order.

    The name and the ignored third parameter stay only because the benchmark's
    tracer (bench/tracer.py) wraps this function by name and calls it as
    parallel_map(fn, items, workers)."""
    return [fn(item) for item in items]
