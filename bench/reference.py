"""Reference arithmetic for checking contracta's outputs, written from the
definitions with plain dicts and integers and sharing no code with it.

A series is a `Ser`: the coefficient at index i is fin.get(i, 0) plus, for
i >= start of the tail, pattern[(i - start) % len(pattern)], all mod p^n.
Every operation works on the sparse support, never on a dense index span, so
checking a wide input costs what its support costs.
"""

import re
from fractions import Fraction
from math import gcd


class Ser:
    __slots__ = ("p", "n", "fin", "tail")

    def __init__(self, p, n, fin=None, tail=None):
        self.p, self.n = p, n
        card = p ** n
        self.fin = {i: c % card for i, c in (fin or {}).items() if c % card}
        self.tail = None
        if tail is not None and any(c % card for c in tail[1]):
            self.tail = (tail[0], tuple(c % card for c in tail[1]))

    @property
    def card(self):
        return self.p ** self.n

    def coef(self, i):
        c = self.fin.get(i, 0)
        if self.tail is not None and i >= self.tail[0]:
            start, pat = self.tail
            c += pat[(i - start) % len(pat)]
        return c % self.card

    def is_zero(self):
        return not self.fin and self.tail is None

    def valuation(self):
        """Least index with a nonzero coefficient; None for zero."""
        cands = [i for i in self.fin if self.coef(i)]
        if self.tail is not None:
            start, pat = self.tail
            cands += [start + k for k in range(len(pat)) if self.coef(start + k)]
        return min(cands) if cands else None

    def __repr__(self):
        return to_text(self)


def mono(p, k, c=1, n=1):
    return Ser(p, n, {k: c})


def _lcm(a, b):
    return a * b // gcd(a, b)


def _build(p, n, f, keys, tails):
    """The series with coefficient f(i), where f is zero off `keys` and the
    regions covered by `tails` (start, period) pairs, and periodic with the
    lcm of the periods beyond every start and every key."""
    keys = set(keys)
    if not tails:
        return Ser(p, n, {i: f(i) for i in keys})
    period = 1
    for _, d in tails:
        period = _lcm(period, d)
    start = max([s for s, _ in tails] + [k + 1 for k in keys])
    idx = {k for k in keys if k < start}
    idx.update(range(min(s for s, _ in tails), start))
    return Ser(p, n, {i: f(i) for i in idx}, (start, tuple(f(start + k) for k in range(period))))


def _same_ring(a, b):
    if (a.p, a.n) != (b.p, b.n):
        raise ValueError(f"mixed rings {a.p}^{a.n} and {b.p}^{b.n}")


def _tails(*xs):
    return [(x.tail[0], len(x.tail[1])) for x in xs if x.tail is not None]


def add(a, b):
    _same_ring(a, b)
    return _build(a.p, a.n, lambda i: a.coef(i) + b.coef(i), list(a.fin) + list(b.fin), _tails(a, b))


def scale(a, c):
    return _build(a.p, a.n, lambda i: c * a.coef(i), a.fin, _tails(a))


def neg(a):
    return scale(a, -1)


def sub(a, b):
    return add(a, neg(b))


def shift(a, k):
    tail = None if a.tail is None else (a.tail[0] + k, a.tail[1])
    return Ser(a.p, a.n, {i + k: c for i, c in a.fin.items()}, tail)


def mul(a, b):
    """Product; at most one factor may carry a tail."""
    _same_ring(a, b)
    if a.tail is not None and b.tail is not None:
        raise ValueError("product of two tailed series")
    if a.tail is not None:
        a, b = b, a
    if not a.fin:
        return Ser(a.p, a.n)
    if b.tail is None:
        out = {}
        for i, c in a.fin.items():
            for j, d in b.fin.items():
                out[i + j] = out.get(i + j, 0) + c * d
        return Ser(a.p, a.n, out)
    # a finite, b tailed: coefficient i is sum_j a_j b_(i-j), periodic from start + hi
    start, pat = b.tail
    keys = [i + j for i in a.fin for j in b.fin]
    return _build(a.p, a.n, lambda i: sum(c * b.coef(i - j) for j, c in a.fin.items()),
                  keys, [(start + min(a.fin), len(pat)), (start + max(a.fin), len(pat))])


def equal(a, b):
    """Same ring and the same coefficient at every index."""
    if (a.p, a.n) != (b.p, b.n):
        return False
    keys = set(a.fin) | set(b.fin)
    tails = _tails(a, b)
    if tails:
        period = 1
        for _, d in tails:
            period = _lcm(period, d)
        top = max([s for s, _ in tails] + [k + 1 for k in keys])
        keys.update(range(min(s for s, _ in tails), top + period))
    return all(a.coef(i) == b.coef(i) for i in keys)


# --- characters, cocycles, multipliers -----------------------------------


def chi_turns(y, x):
    """chi_y(x) as a fraction of a turn: sum_j x_j y_(-j) / p^n mod 1."""
    _same_ring(x, y)
    if x.tail is None:
        e = sum(c * y.coef(-j) for j, c in x.fin.items())
    elif y.tail is None:
        e = sum(c * x.coef(-k) for k, c in y.fin.items())
    else:
        raise ValueError("chi with tails on both sides")
    return Fraction(e % x.card, x.card)


def theta(shift_n, x, y):
    return Ser(x.p, x.n, {i: c * y.coef(i + shift_n) for i, c in x.fin.items()})


def eta(support, x, y):
    """sum over m in the support of t^m theta(2m, x, y): index i + m gets x_i y_(i+2m)."""
    if x.tail is not None:
        raise ValueError("eta needs a finitely supported first argument")
    out = {}
    for m in support:
        for i, c in x.fin.items():
            out[i + m] = out.get(i + m, 0) + c * y.coef(i + 2 * m)
    return Ser(x.p, x.n, out)


def omega(support, z, x, y):
    """chi_z(eta(x, y)) as an exponent mod p."""
    return int(chi_turns(z, eta(support, x, y)) * z.p) % z.p


def omega2(support, z, x, y):
    return (omega(support, z, x, y) - omega(support, z, y, x)) % z.p


def h_omega(support, z, x):
    """The index w with chi_w(y) = omega2(x, y): coefficient -j is omega2(x, t^j).

    omega2(x, t^j) can be nonzero only when j - 2m or j + 2m is in the support of x.
    """
    js = {i + s for i in x.fin for m in support for s in (2 * m, -2 * m)}
    return Ser(x.p, 1, {-j: omega2(support, z, x, mono(x.p, j)) for j in js})


def tail_index(p, k0):
    """The all-ones character index sum_{j >= k0} t^j."""
    return Ser(p, 1, {}, (k0, (1,)))


def radical_threshold(support, k0):
    """Prop 5.7: for z = sum_{j >= k0} t^j the radical of omega2 is {nu > max S - k0}."""
    return max(support) - k0


def rank_mod_p(rows, p):
    """Rank over Z/p of sparse rows given as {column: value} dicts."""
    basis = {}
    for row in rows:
        vec = {k: v % p for k, v in row.items() if v % p}
        while vec:
            piv = min(vec)
            if piv not in basis:
                basis[piv] = vec
                break
            b = basis[piv]
            f = vec[piv] * pow(b[piv], p - 2, p) % p
            for k, v in b.items():
                vec[k] = (vec.get(k, 0) - f * v) % p
            vec = {k: v for k, v in vec.items() if v}
    return len(basis)


# --- extension and Heisenberg groups -------------------------------------


def ext_mul(support, a, b):
    (w1, x1), (w2, x2) = a, b
    return add(add(w1, w2), eta(support, x1, x2)), add(x1, x2)


def ext_inv(support, a):
    w, x = a
    return sub(neg(w), eta(support, x, neg(x))), neg(x)


def ext_commutator(support, a, b):
    return ext_mul(support, ext_mul(support, a, b),
                   ext_mul(support, ext_inv(support, a), ext_inv(support, b)))


def _dot(u, v, p):
    acc = Ser(p, 1)
    for a, b in zip(u, v):
        acc = add(acc, mul(a, b))
    return acc


def heis_mul(g, h):
    (xi, ups, z), (xi2, ups2, z2) = g, h
    p = z.p
    return (tuple(add(a, b) for a, b in zip(xi, xi2)),
            tuple(add(a, b) for a, b in zip(ups, ups2)),
            add(add(z, z2), _dot(xi, ups2, p)))


def heis_inv(g):
    xi, ups, z = g
    return (tuple(neg(a) for a in xi), tuple(neg(a) for a in ups),
            add(neg(z), _dot(xi, ups, z.p)))


def heis_char_turns(idx, arg):
    (ups, z), (mu, w) = idx, arg
    return (chi_turns(z, w) + sum(chi_turns(y, m) for y, m in zip(ups, mu))) % 1


def heis_dual(xi, idx):
    ups, z = idx
    return tuple(add(y, mul(z, c)) for c, y in zip(xi, ups)), z


# --- codecs: contracta's series text and JSON forms -----------------------

_TERM = re.compile(r"^([+-]?\d+)\*t\^([+-]?\d+)$")
_TAIL = re.compile(r"^per\[([^\]]*)\]\*t\^\{>=([+-]?\d+)\}$")
_RING = re.compile(r"^p=(\d+)\^(\d+)$")


def from_text(text):
    body, _, ring = text.rpartition("@")
    m = _RING.match(ring.strip())
    if not body or m is None:
        raise ValueError(f"not a series literal: {text!r}")
    p, n = int(m.group(1)), int(m.group(2))
    fin, tail = {}, None
    body = body.strip()
    if body != "0":
        for part in body.split(" + "):
            t = _TERM.match(part.strip())
            if t:
                fin[int(t.group(2))] = fin.get(int(t.group(2)), 0) + int(t.group(1))
                continue
            t = _TAIL.match(part.strip())
            if t is None or tail is not None:
                raise ValueError(f"bad term {part!r} in {text!r}")
            tail = (int(t.group(2)), tuple(int(c) for c in t.group(1).split(",")))
    return Ser(p, n, fin, tail)


def to_text(x):
    parts = [f"{c}*t^{i}" for i, c in sorted(x.fin.items())]
    if x.tail is not None:
        start, pat = x.tail
        parts.append("per[" + ",".join(map(str, pat)) + "]*t^{>=" + str(start) + "}")
    return (" + ".join(parts) if parts else "0") + f" @ p={x.p}^{x.n}"


def from_json(obj):
    tail = obj.get("tail")
    return Ser(obj["p"], obj["n"], {int(k): v for k, v in obj.get("finite", {}).items()},
               None if tail is None else (tail["start"], tuple(tail["pattern"])))


def to_json(x):
    out = {"p": x.p, "n": x.n, "finite": {str(i): c for i, c in sorted(x.fin.items())}}
    if x.tail is not None:
        out["tail"] = {"start": x.tail[0], "pattern": list(x.tail[1])}
    return out


def from_ext_text(text):
    """Parse the '(w | x)' form of an extension element."""
    if not (text.startswith("(") and text.endswith(")")) or " | " not in text:
        raise ValueError(f"not an extension element: {text!r}")
    w, x = text[1:-1].split(" | ")
    return from_text(w), from_text(x)


def ext_equal(a, b):
    return equal(a[0], b[0]) and equal(a[1], b[1])


def heis_equal(g, h):
    return (all(equal(a, b) for a, b in zip(g[0], h[0]))
            and all(equal(a, b) for a, b in zip(g[1], h[1])) and equal(g[2], h[2])
            and len(g[0]) == len(h[0]) and len(g[1]) == len(h[1]))


def heis_from_json(obj):
    return (tuple(from_json(c) for c in obj["xi"]), tuple(from_json(c) for c in obj["upsilon"]),
            from_json(obj["z"]))


def heis_to_json(g):
    xi, ups, z = g
    return {"n": len(xi), "p": z.p, "xi": [to_json(c) for c in xi],
            "upsilon": [to_json(c) for c in ups], "z": to_json(z)}
