"""Window enumeration and deterministic parallel sweeps.

A window W(lo, hi) is the finite set of series supported inside [lo, hi). Its
elements are enumerated in a fixed base-p^n digit order, so every sweep, table
and report derived from a window is reproducible. Sweeps estimate their work
with `window_size` and `check_work` before enumerating anything. Parallel maps
split the work into ordered chunks and reassemble results in order, which
keeps every outcome independent of the worker count.
"""

import os

from .errors import InvalidParams
from .laurent import laurent

# Largest window sweep a check accepts.  Evaluations count Python-level calls
# (omega, eta, chi_z, ext_mul, heis_mul, window elements) at tens of
# microseconds apiece; table entries count numpy array elements.  Every
# default suite spec stays below both.
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


def worker_count():
    raw = os.environ.get("CONTRACTA_WORKERS", "").strip()
    if raw:
        return max(1, int(raw))
    return min(8, os.cpu_count() or 1)


def chunked(items, n_chunks):
    items = list(items)
    n_chunks = max(1, min(n_chunks, len(items)) if items else 1)
    size, rem = divmod(len(items), n_chunks)
    out = []
    start = 0
    for k in range(n_chunks):
        end = start + size + (1 if k < rem else 0)
        out.append(items[start:end])
        start = end
    return [c for c in out if c]


def parallel_map(fn, items, workers=None):
    """Map fn over items with ordered reassembly; result is worker-count independent."""
    from concurrent.futures import ThreadPoolExecutor

    items = list(items)
    workers = worker_count() if workers is None else max(1, workers)
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    chunks = chunked(items, workers * 4)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda chunk: [fn(item) for item in chunk], chunks))
    return [r for part in parts for r in part]
