"""The `contracta` calls of the oneshot workload and the checks on their output.

A round is one list of calls drawn from the seed: small calls across every
subcommand, one small `verify` per suite, a few wide calls (index spans of
10^5-10^6, a verdict at depth ~200, orbit queries with a periodic quotient)
and four calls that hit known faults.  The kinds and the sizes of the wide
calls are fixed strata; the seed draws coefficients, moduli, supports,
offsets and small jitter, so the work per round barely depends on the seed.

Every call carries what its check needs; `check_call` judges an exit code
and output against the reference arithmetic, never against stored output.
"""

import json
import random

import reference as ref
import sweep_checks

# Calls that end in a traceback or a false claim today.  Each should end in
# exit 2 with one `error:` line; until then each counts as a failed operation.
_Z1 = {"p": 2, "n": 1, "finite": {}, "tail": {"start": 1, "pattern": [1]}}
_SPEC1 = json.dumps({"cocycle": {"p": 2, "support": [1]}, "z": _Z1})
FAULTY = [
    ["s-omega", "--spec", _SPEC1, "--window", "3", "1"],
    ["verdict", "--spec", '{"blocks":[{"kind":"T"}]}'],
    ["verify", "duality-iso", "--params", '{"configs":[[2]]}'],
    ["verdict", "--spec", _SPEC1, "--depth", "-5"],
]

# the fixed seed of the probe that traced sweeps replay
PROBE_SEED = 0


# --- random inputs ------------------------------------------------------------


def _ser(rng, p, n, lo, hi, terms=None):
    """A finite series with `terms` nonzero coefficients inside [lo, hi)."""
    terms = terms or rng.randint(1, min(4, hi - lo))
    idx = rng.sample(range(lo, hi), min(terms, hi - lo))
    return ref.Ser(p, n, {i: rng.randrange(1, p ** n) for i in idx})


def _tailed(rng, p, n, lo, hi, start):
    """A series with finite part in [lo, hi) and a periodic tail from start >= hi."""
    x = _ser(rng, p, n, lo, hi)
    pat = [rng.randrange(p ** n) for _ in range(rng.randint(1, 3))]
    pat[0] = pat[0] or 1
    return ref.Ser(p, n, x.fin, (start, tuple(pat)))


def _ring(rng):
    return rng.choice([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)])


def _support(rng, top=3):
    return sorted(rng.sample(range(1, top + 1), rng.randint(1, 2)))


def _spec_json(p, support, z):
    return json.dumps({"cocycle": {"p": p, "support": support}, "z": ref.to_json(z)})


def _ext_json(p, support, w, x):
    return json.dumps({"cocycle": {"p": p, "support": support},
                       "w": ref.to_json(w), "x": ref.to_json(x)})


def _heis(rng, p, lo, hi):
    return ((_ser(rng, p, 1, lo, hi),), (_ser(rng, p, 1, lo, hi),), _ser(rng, p, 1, lo, hi))


def _call(kind, argv, **data):
    return {"kind": kind, "argv": argv, **data}


# --- small calls ----------------------------------------------------------------


def _small_calls(rng):
    out = []
    T = ref.to_text
    for op in ("add", "sub"):
        p, n = _ring(rng)
        x = _tailed(rng, p, n, -4, 2, rng.randint(2, 5)) if rng.random() < 0.5 else _ser(rng, p, n, -4, 4)
        y = _tailed(rng, p, n, -3, 3, rng.randint(3, 6))
        out.append(_call("eval-" + op, ["eval", T(x), "--" + op, T(y)], x=x, y=y, op=op))
    p, n = _ring(rng)
    x, y = _ser(rng, p, n, -3, 3), _tailed(rng, p, n, -2, 1, rng.randint(1, 4))
    out.append(_call("eval-mul", ["eval", T(x), "--mul", T(y)], x=x, y=y, op="mul"))
    p, n = _ring(rng)
    x, k = _tailed(rng, p, n, -3, 2, 3), rng.randint(-9, 9)
    out.append(_call("eval-shift", ["eval", T(x), "--shift", str(k)], x=x, k=k, op="shift"))
    x, c = _ser(rng, p, n, -3, 4), rng.randint(-20, 20)
    out.append(_call("eval-scale", ["eval", T(x), "--scale", str(c)], x=x, k=c, op="scale"))

    p, n = _ring(rng)
    y, x, k = _ser(rng, p, n, -4, 4), _tailed(rng, p, n, -4, 0, rng.randint(0, 3)), rng.randint(-2, 2)
    out.append(_call("char", ["char", T(y), T(x), "--dual-shift", str(k)], y=y, x=x, k=k))

    p = rng.choice([2, 3, 5])
    S = _support(rng, 4)
    x, y = _ser(rng, p, 1, -3, 3), _tailed(rng, p, 1, -3, 3, rng.randint(3, 6))
    out.append(_call("eta", ["cocycle", "--p", str(p), "--support", ",".join(map(str, S)), T(x), T(y)],
                     S=S, x=x, y=y))
    m = rng.randint(1, 6)
    x, y = _ser(rng, p, 1, -3, 3), _ser(rng, p, 1, -3, 6)
    out.append(_call("theta", ["cocycle", "--p", str(p), "--support", "1", "--theta", str(m), T(x), T(y)],
                     m=m, x=x, y=y))

    p, S = rng.choice([2, 3]), _support(rng)
    a = (_ser(rng, p, 1, -2, 3), _ser(rng, p, 1, -2, 3))
    b = (_ser(rng, p, 1, -2, 3), _ser(rng, p, 1, -2, 3))
    out.append(_call("ext", ["ext", "mul", _ext_json(p, S, *a), _ext_json(p, S, *b)], op="mul", S=S, a=a, b=b))
    op = rng.choice(["inv", "commutator", "alpha"])
    k = rng.randint(-3, 3)
    argv = ["ext", op, _ext_json(p, S, *a)] + ([_ext_json(p, S, *b)] if op == "commutator" else [])
    out.append(_call("ext", argv + (["--k", str(k)] if op == "alpha" else []), op=op, S=S, a=a, b=b, k=k))

    p, S = rng.choice([2, 3]), _support(rng, 4)
    if rng.random() < 0.5:
        j = rng.randint(-4, 4)
        argv = ["commutator", "--p", str(p), "--support", ",".join(map(str, S)), "--witness", str(j)]
        out.append(_call("commutator", argv, S=S, p=p, g=(0, j - S[0]), h=(0, j + S[0]), want=j))
    else:
        nn, k = rng.randint(-4, 4), rng.randint(1, 4)
        argv = ["commutator", "--p", str(p), "--support", ",".join(map(str, S)), "--n", str(nn), "--k", str(k)]
        out.append(_call("commutator", argv, S=S, p=p, g=(0, nn), h=(0, nn + 2 * k),
                         want=nn + k if k in S else None))

    p, S = rng.choice([2, 3, 5]), _support(rng)
    z = _tailed(rng, p, 1, -3, 0, rng.randint(0, 3)) if rng.random() < 0.5 else _ser(rng, p, 1, -4, 2)
    x, y = _ser(rng, p, 1, -4, 3), _ser(rng, p, 1, -6, 3)
    out.append(_call("multiplier", ["multiplier", "--spec", _spec_json(p, S, z), T(x), T(y)],
                     S=S, z=z, x=x, y=y))

    p, S, k0 = rng.choice([2, 3]), _support(rng), rng.randint(1, 3)
    z = ref.tail_index(p, k0)
    x = _ser(rng, p, 1, -4, 5)
    out.append(_call("s-omega-x", ["s-omega", "--spec", _spec_json(p, S, z), T(x)], S=S, k0=k0, z=z, x=x))
    lo = rng.randint(-3, 1)
    hi = lo + (3 if p == 2 else 2)
    out.append(_call("s-omega-window", ["s-omega", "--spec", _spec_json(p, S, z), "--window", str(lo), str(hi)],
                     S=S, k0=k0, p=p, lo=lo, hi=hi))
    d = rng.randint(8, 16)
    out.append(_call("verdict", ["verdict", "--spec", _spec_json(p, S, z), "--depth", str(d)],
                     S=S, k0=k0, z=z, p=p, depth=d))

    p = rng.choice([2, 3])
    g, h = _heis(rng, p, -2, 3), _heis(rng, p, -2, 3)
    out.append(_call("heis", ["heis", "mul", json.dumps(ref.heis_to_json(g)), json.dumps(ref.heis_to_json(h))],
                     op="mul", g=g, h=h))
    op = rng.choice(["inv", "char", "dual"])
    argv = ["heis", op, json.dumps(ref.heis_to_json(g))] + ([] if op == "inv" else [json.dumps(ref.heis_to_json(h))])
    out.append(_call("heis", argv, op=op, g=g, h=h))

    # an orbit query that is a member by construction, or one with another z
    p = rng.choice([2, 3])
    base = _heis(rng, p, -2, 3)
    xi = _ser(rng, p, 1, -2, 2)
    member = rng.random() < 0.6
    zq = base[2] if member else ref.add(base[2], ref.mono(p, rng.randint(-2, 2)))
    query = (base[0], (ref.add(base[1][0], ref.mul(base[2], xi)),), zq)
    out.append(_orbit_call(base, query))
    return out


def _orbit_call(base, query):
    argv = ["orbit", json.dumps(ref.heis_to_json(base)), json.dumps(ref.heis_to_json(query))]
    return _call("orbit", argv, base=base, query=query)


def _verify_calls(rng):
    """One small `verify` per suite, with seeded parameters of near-equal cost."""
    out = []

    def add(name, params):
        out.append(_call("verify", ["verify", name, "--params", json.dumps(params)], suite=name, params=params))

    # the pairing-matrix check needs a window symmetric about 0
    r = rng.randint(1, 2)
    add("duality-iso", {"window": [-r, r], "configs": [list(rng.choice([(2, 1), (3, 1)]))]})
    a = rng.randint(-3, 1)
    p = rng.choice([2, 3])
    add("dual-action", {"window": [a, a + 2], "t_configs": [[p, 1]], "shift_range": [-1, 1],
                        "samples": 8, "sample_configs": [[p, 1]], "primes": [p], "iterations": 6})
    add("cocycle-laws", {"primes": [rng.choice([2, 3])], "max_support": rng.randint(1, 2),
                         "windows": [[a, a + 2]]})
    add("extension-group", {"configs": [{"p": rng.choice([2, 3]), "support": _support(rng, 2)}]})
    b = rng.randint(-3, 1)
    add("commutator-formula", {"primes": [rng.choice([2, 3])], "max_support": 2,
                               "n_range": [b, b + 2], "k_range": [1, 2]})
    p, S = rng.choice([2, 3]), _support(rng)
    z = _tailed(rng, p, 1, -2, 0, rng.randint(0, 2)) if rng.random() < 0.5 else _ser(rng, p, 1, -3, 1)
    spec = {"cocycle": {"p": p, "support": S}, "z": ref.to_text(z)}
    add("multiplier-axioms", {"window": [a, a + 2], "specs": [spec]})
    S = _support(rng)
    z = _tailed(rng, 2, 1, -2, 0, rng.randint(0, 2)) if rng.random() < 0.5 else _ser(rng, 2, 1, -3, 1)
    add("mackey-identity", {"window": [b, b + 2], "specs": [{"cocycle": {"p": 2, "support": S},
                                                             "z": ref.to_json(z)}]})
    p, k0 = rng.choice([2, 3]), rng.randint(1, 3)
    add("s-omega-prop57", {"p": p, "k0": k0, "S": _support(rng), "window": [a, a + 3]})
    add("verdict-thm56", {"p": rng.choice([2, 3]), "k0": rng.randint(1, 3), "S": _support(rng),
                          "depth": rng.randint(6, 12)})
    # products close in the suite's z window only for axiom windows inside [0, 2]
    c = rng.randint(0, 1)
    add("heisenberg", {"p": rng.choice([2, 3]), "axioms_window": [c, c + 1], "pullback_window": [a, a + 1]})
    return out


# --- wide calls -------------------------------------------------------------------


def _jitter(rng, n):
    return int(n * rng.uniform(0.98, 1.02))


def _wide_calls(rng):
    out = []
    T = ref.to_text
    for span in (100_000, 300_000, 1_000_000):
        p, n = _ring(rng)
        A = _jitter(rng, span)
        y = ref.add(ref.mono(p, -A, rng.randrange(1, p ** n), n), _ser(rng, p, n, -3, 3))
        x = _ser(rng, p, n, -3, 4)
        out.append(_call("char", ["char", T(y), T(x)], y=y, x=x, k=0))
    p, n = _ring(rng)
    A = _jitter(rng, 150_000)
    x = ref.add(ref.mono(p, -A, rng.randrange(1, p ** n), n), _ser(rng, p, n, -3, 3))
    y = _tailed(rng, p, n, -3, 3, _jitter(rng, 150_000))
    out.append(_call("eval-add", ["eval", T(x), "--add", T(y)], x=x, y=y, op="add"))

    S, k0 = [rng.randint(1, 3)], rng.randint(1, 2)
    z, d = ref.tail_index(2, k0), _jitter(rng, 200)
    out.append(_call("verdict", ["verdict", "--spec", _spec_json(2, S, z), "--depth", str(d)],
                     S=S, k0=k0, z=z, p=2, depth=d))

    # 1/z is periodic when z has a nonzero constant term; these z have periods 7 and 8
    for p, z_fin in ((2, {0: 1, 1: 1, 3: 1}), (3, {0: 2, 1: 1, 2: 1})):
        s = rng.randint(-3, 3)
        z = ref.shift(ref.Ser(p, 1, z_fin), s)
        base = ((_ser(rng, p, 1, -2, 3),), (_ser(rng, p, 1, -2, 3),), z)
        diff = _ser(rng, p, 1, -2, 4)
        query = (base[0], (ref.add(base[1][0], diff),), z)
        out.append(_orbit_call(base, query))
    return out


def round_calls(seed):
    """The oneshot round for this seed, in a seeded order."""
    rng = random.Random(f"oneshot-{seed}")
    calls = _small_calls(rng) + _verify_calls(rng) + _wide_calls(rng)
    calls += [_call("faulty", argv) for argv in FAULTY]
    rng.shuffle(calls)
    return calls


def suite_calls(names):
    """`verify NAME` at default params for each suite."""
    return [_call("verify", ["verify", name], suite=name, params=None) for name in names]


def probe_calls():
    """The fixed probe a traced sweep replays: one small verify per suite."""
    return _verify_calls(random.Random(f"probe-{PROBE_SEED}"))


# --- checks -----------------------------------------------------------------------


def _turns(obj, p):
    return ref.Fraction(obj["num"], p ** obj["p_power"])


def _ext_from_json(obj):
    return ref.from_json(obj["w"]), ref.from_json(obj["x"])


def _check_eval(c, r):
    x, y = c["x"], c.get("y")
    op = c["op"]
    want = {"add": lambda: ref.add(x, y), "sub": lambda: ref.sub(x, y), "mul": lambda: ref.mul(x, y),
            "shift": lambda: ref.shift(x, c["k"]), "scale": lambda: ref.scale(x, c["k"])}[op]()
    got = ref.from_json(r["result"]["json"])
    errs = []
    if not ref.equal(got, want) or not ref.equal(ref.from_text(r["result"]["text"]), want):
        errs.append(f"eval {op}: {r['result']['text']} != reference {want}")
    v = want.valuation()
    if r["valuation"] != ("inf" if v is None else v):
        errs.append(f"eval {op}: valuation {r['valuation']} != {v}")
    return errs


def _check_char(c, r):
    y = ref.shift(c["y"], c["k"])
    want = ref.chi_turns(y, c["x"])
    got = _turns(r["pairing"], y.p)
    return [] if got == want else [f"char: {got} != reference {want}"]


def _check_eta(c, r):
    want = ref.eta(c["S"], c["x"], c["y"])
    return [] if ref.equal(ref.from_json(r["result"]["json"]), want) else [f"eta != reference {want}"]


def _check_theta(c, r):
    want = ref.theta(c["m"], c["x"], c["y"])
    return [] if ref.equal(ref.from_json(r["result"]["json"]), want) else [f"theta != reference {want}"]


def _check_ext(c, r):
    S, a, b = c["S"], c["a"], c["b"]
    want = {"mul": lambda: ref.ext_mul(S, a, b), "inv": lambda: ref.ext_inv(S, a),
            "commutator": lambda: ref.ext_commutator(S, a, b),
            "alpha": lambda: (ref.shift(a[0], c["k"]), ref.shift(a[1], c["k"]))}[c["op"]]()
    got = _ext_from_json(r["result"])
    if not ref.ext_equal(got, want) or not ref.ext_equal(ref.from_ext_text(r["text"]), want):
        return [f"ext {c['op']}: {r['text']} != reference"]
    return []


def _check_commutator(c, r):
    p, S = c["p"], c["S"]
    zero = ref.Ser(p, 1)
    g = (zero, ref.mono(p, c["g"][1]))
    h = (zero, ref.mono(p, c["h"][1]))
    got = ref.ext_commutator(S, g, h)
    want = (zero if c["want"] is None else ref.mono(p, c["want"]), zero)
    errs = []
    if not ref.ext_equal(got, want):
        errs.append("reference commutator disagrees with the closed form")
    if not ref.ext_equal(ref.from_ext_text(r["commutator"]), got) or r["match"] is not True:
        errs.append(f"commutator {r['commutator']} != reference")
    label = "expected" if "expected" in r else "predicted"
    if not ref.ext_equal(ref.from_ext_text(r[label]), want):
        errs.append(f"commutator {label} {r[label]} != closed form")
    return errs


def _check_multiplier(c, r):
    S, z, x, y = c["S"], c["z"], c["x"], c["y"]
    p = z.p
    w1 = ref.Fraction(ref.omega(S, z, x, y), p)
    w2 = ref.Fraction(ref.omega2(S, z, x, y), p)
    errs = []
    if _turns(r["omega"], p) != w1:
        errs.append(f"omega {r['omega']} != reference {w1}")
    if _turns(r["omega2"], p) != w2 or _turns(r["omega2_closed_form"], p) != w2:
        errs.append(f"omega2 {r['omega2']} / closed form {r['omega2_closed_form']} != reference {w2}")
    if r["paths_agree"] is not True:
        errs.append("omega2 paths disagree")
    return errs


def _check_s_omega_x(c, r):
    S, z, x = c["S"], c["z"], c["x"]
    h = ref.h_omega(S, z, x)
    errs = []
    if not ref.equal(ref.from_text(r["h_image"]), h):
        errs.append(f"h_image {r['h_image']} != reference {h}")
    v = x.valuation()
    member = v is None or v > ref.radical_threshold(S, c["k0"])
    if r["member"] is not member or h.is_zero() is not member:
        errs.append(f"member {r['member']} != Prop 5.7 {member}")
    return errs


def _check_s_omega_window(c, r):
    p, lo, hi = c["p"], c["lo"], c["hi"]
    K = ref.radical_threshold(c["S"], c["k0"])
    got = sorted(tuple(sorted(ref.from_text(t).fin.items())) for t in r["members"])
    want = sorted(tuple((lo + k, d) for k, d in enumerate(digits) if d)
                  for digits in _digit_words(p, hi - lo) if all(d == 0 for d in digits[:max(0, K + 1 - lo)]))
    errs = [] if got == want else [f"s-omega window members {r['members']} != Prop 5.7 ball above {K}"]
    if len(r["members"]) != p ** max(0, hi - max(lo, K + 1)):
        errs.append("s-omega window member count != p^(hi - max(lo, K+1))")
    return errs


def _digit_words(p, width):
    words = [()]
    for _ in range(width):
        words = [w + (d,) for w in words for d in range(p)]
    return words


def _check_verdict(c, r):
    errs = sweep_checks.check_verdict(c["p"], c["S"], c["z"], c["depth"], r)
    if r["K"] != ref.radical_threshold(c["S"], c["k0"]):
        errs.append(f"verdict K {r['K']} != max S - k0")
    return errs


def _check_heis(c, r):
    g, h, op = c["g"], c["h"], c["op"]
    if op in ("mul", "inv"):
        want = ref.heis_mul(g, h) if op == "mul" else ref.heis_inv(g)
        ok = ref.heis_equal(ref.heis_from_json(r["result"]), want)
    elif op == "char":
        want = ref.heis_char_turns((g[1], g[2]), (h[1], h[2]))
        ok = _turns(r["value"], g[2].p) == want
    else:
        ups, z = ref.heis_dual(g[0], (h[1], h[2]))
        ok = (all(ref.equal(ref.from_text(t), u) for t, u in zip(r["upsilon"], ups))
              and ref.equal(ref.from_text(r["z"]), z))
    return [] if ok else [f"heis {op} != reference"]


def _check_orbit(c, r):
    (_, ups, z), (_, q_ups, q_z) = c["base"], c["query"]
    fixed = z.is_zero()
    if r["kind"] != ("FixedPoint" if fixed else "AffineSlice"):
        return [f"orbit kind {r['kind']}"]
    member = ref.equal(q_z, z) and (not fixed or all(ref.equal(a, b) for a, b in zip(ups, q_ups)))
    if r["status"] != ("member" if member else "non-member"):
        return [f"orbit status {r['status']}, expected member={member}"]
    if member:
        # the quotient times z must give back the difference
        for t, a, b in zip(r["xi"], ups, q_ups):
            if not ref.equal(ref.mul(ref.from_text(t), z), ref.sub(b, a)):
                return [f"orbit witness {t} times z != query - base"]
    return []


def _check_verify(c, r):
    return sweep_checks.check_report(c["suite"], c["params"], r)


# what reading a result of the wrong shape raises
MALFORMED = (KeyError, TypeError, ValueError, IndexError, AttributeError)

CHECKS = {
    "eval-add": _check_eval, "eval-sub": _check_eval, "eval-mul": _check_eval,
    "eval-shift": _check_eval, "eval-scale": _check_eval, "char": _check_char,
    "eta": _check_eta, "theta": _check_theta, "ext": _check_ext, "commutator": _check_commutator,
    "multiplier": _check_multiplier, "s-omega-x": _check_s_omega_x,
    "s-omega-window": _check_s_omega_window, "verdict": _check_verdict, "heis": _check_heis,
    "orbit": _check_orbit, "verify": _check_verify,
}


def check_call(c, code, out, err):
    """(failed, errors) for one finished call.

    A call fails when it breaks the exit-code contract: the known-faulty
    calls must end in exit 2 with a single `error:` line, every other call
    in exit 0 with a report.  `errors` lists wrong results: values that
    disagree with the reference.
    """
    if c["kind"] == "faulty":
        lines = err.strip().splitlines()
        ok = code == 2 and not out and len(lines) == 1 and lines[0].startswith("error:")
        return not ok, []
    if code != 0:
        return True, []
    try:
        env = json.loads(out)
    except ValueError:
        return False, [f"{c['argv'][0]}: stdout is not JSON"]
    if env.get("command") != ["--json"] + c["argv"] or env.get("schema_version") != "1":
        return False, [f"{c['argv'][0]}: envelope does not echo the command"]
    try:
        return False, CHECKS[c["kind"]](c, env["results"])
    except MALFORMED as exc:
        return False, [f"{c['argv'][0]}: malformed result ({type(exc).__name__}: {exc})"]
