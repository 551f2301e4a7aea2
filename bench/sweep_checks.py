"""Checks on contracta's suite reports and on sampled sweep outputs.

Each suite's `checked` totals must equal a closed form computed from the
parameters the benchmark passed, merged with its own copy of the documented
defaults, so a sweep that quietly checks less fails here.  The radical and
verdict suites must also show the paper's results: Prop 5.7 (the radical is
the congruence ball above max S - k0) and Thm 5.6 (at least depth/2
independent witnesses, with K = max S - k0).  Sampled outputs are checked
against the reference arithmetic.
"""

from itertools import product

import reference as ref

DEFAULTS = {
    "duality-iso": {"window": [-2, 2], "configs": [[2, 1], [3, 1], [2, 2], [3, 2]],
                    "table_limit": 300, "samples": 30000},
    "dual-action": {"t_configs": [[2, 1], [3, 1], [2, 2]], "window": [-2, 2],
                    "shift_range": [-2, 2], "samples": 200,
                    "sample_configs": [[2, 1], [3, 1], [2, 2], [3, 2]], "primes": [2, 3, 5],
                    "iterations": 20},
    "cocycle-laws": {"primes": [2, 3], "max_support": 4, "windows": [[0, 2], [-1, 2], [-1, 3]]},
    "extension-group": {"configs": [{"p": 2, "support": [1]}, {"p": 2, "support": [1, 2]},
                                    {"p": 3, "support": [1]}, {"p": 3, "support": [1, 2]}]},
    "commutator-formula": {"primes": [2, 3], "max_support": 4, "n_range": [-3, 3],
                           "k_range": [1, 4]},
    "multiplier-axioms": {"window": [-1, 3], "specs": [
        {"cocycle": {"p": 2, "support": [1]}, "z": "1*t^-1 @ p=2^1"},
        {"cocycle": {"p": 2, "support": [1]}, "z": "per[1]*t^{>=1} @ p=2^1"},
        {"cocycle": {"p": 2, "support": [1, 3]}, "z": "per[1]*t^{>=1} @ p=2^1"},
        {"cocycle": {"p": 3, "support": [1, 2]}, "z": "2*t^-1 @ p=3^1"}]},
    "s-omega-prop57": {"p": None, "k0": None, "S": None, "window": [-2, 3]},
    "verdict-thm56": {"p": None, "k0": None, "S": None, "depth": 12},
    "heisenberg": {"p": 2, "axioms_window": [0, 2], "pullback_window": [-1, 2]},
}
DEFAULTS["mackey-identity"] = DEFAULTS["multiplier-axioms"]

# the (p, k0, S) grid the radical suites sweep when no single config is given
GRID = [(p, k0, S) for p in (2, 3) for k0 in (1, 2) for S in ((1,), (2,), (1, 2), (1, 3))]


def merged(name, params):
    return {**DEFAULTS[name], **(params or {})}


def _width(w):
    return w[1] - w[0]


def _spec_p(spec):
    return spec["cocycle"]["p"]


def _radical_configs(q):
    if q["p"] is None:
        return GRID
    return [(q["p"], q["k0"], tuple(q["S"]))]


def expected_checked(name, params):
    """{check name: total checked} that the suite must report for these params."""
    q = merged(name, params)
    out = {}

    def put(check, count):
        out[check] = out.get(check, 0) + count

    if name == "duality-iso":
        w = _width(q["window"])
        for p, n in q["configs"]:
            card = p ** n
            size = card ** w
            put("canonical-round-trip", size)
            if size <= q["table_limit"]:
                put("additivity-exhaustive", size ** 3)
            else:
                put("additivity-exhaustive", card ** 6)  # the W(-1, 1) sub-window
                put("additivity-sampled", q["samples"])
            put("separates-points", size - 1)
            put("pairing-matrix-rank", (w + 1) ** 2)
    elif name == "dual-action":
        lo, hi = q["window"]
        shifts = _width(q["shift_range"]) + 1
        for p, n in q["t_configs"]:
            size = (p ** n) ** (hi - (lo if n == 1 else max(lo, -1)))
            put("shift-dual-identity", shifts * size * size)
        per = q["samples"] // len(q["sample_configs"])
        put("contraction-time-brute", per * len(q["sample_configs"]))
        primes = len(q["primes"])
        # three polynomials per prime, of degrees 1, 2, 2
        put("dual-matrix-is-transpose", 9 * primes)
        put("dual-shift-formula", 11 * primes)
        put("iterates-contract", 10 * primes)
        put("contractivity-certificate", 4 * primes)
        put("shift-stabilizer-trivial", 6)
        put("nonclosed-orbit-witness", 1)
    elif name == "cocycle-laws":
        supports = 2 ** q["max_support"]
        for p, w in product(q["primes"], q["windows"]):
            s = p ** _width(w)
            put("cocycle-laws", supports * (s ** 2 + s ** 3))
    elif name == "extension-group":
        for cfg in q["configs"]:
            p = cfg["p"]
            s = 8 * 8 if p == 2 else 3 * 27  # w and x slot windows fixed per prime
            for check, count in (("window-closure", s * s), ("identity", 2 * s),
                                 ("inverses", 2 * s), ("associativity", s ** 3),
                                 ("shift-automorphism", s * s + s), ("json-round-trip", s)):
                put(check, count)
    elif name == "commutator-formula":
        supports = 2 ** q["max_support"]
        ns = _width(q["n_range"]) + 1
        ks = _width(q["k_range"]) + 1
        for p in q["primes"]:
            put("monomial-commutator", supports * ns * ks * (p - 1) ** 2)
            put("derived-witness", (supports - 1) * ns)
        # the alternating-form check sweeps the default extension configs on W(-1, 2)
        put("alternating-form", sum((c["p"] ** 3) ** 2
                                    for c in DEFAULTS["extension-group"]["configs"]))
    elif name == "multiplier-axioms":
        w = _width(q["window"])
        for spec in q["specs"]:
            s = _spec_p(spec) ** w
            put("multiplier-m1-m2", s ** 3 + 2 * s)
            put("omega2-closed-form", s * s)
            put("omega2-bicharacter", 2 * s ** 3 + s * s)
    elif name == "mackey-identity":
        w = _width(q["window"])
        for spec in q["specs"]:
            put("mackey-identity", (_spec_p(spec) ** w) ** 4)
    elif name == "s-omega-prop57":
        w = _width(q["window"])
        for p, _, _ in _radical_configs(q):
            put("radical-is-congruence-ball", 2 * p ** w)
    elif name == "verdict-thm56":
        for _ in _radical_configs(q):
            put("type-i-verdict", q["depth"] + 1)
    elif name == "heisenberg":
        p = q["p"]
        c = p ** _width(q["axioms_window"])
        size = c * c * c * p
        ser = p ** _width(q["pullback_window"])
        for check, count in (("mul-closure", size * size), ("identity", 2 * size),
                             ("inverses", 2 * size), ("associativity", size ** 3),
                             ("json-round-trip", size),
                             ("pullback-and-dual-action", 3 * ser ** 5),
                             ("orbit-membership", c ** 4 + 2)):
            put(check, count)
    else:
        raise ValueError(f"unknown suite {name!r}")
    return out


def check_prop57(config):
    """One s-omega-prop57 check config against Prop 5.7."""
    p, k0, S = config["p"], config["k0"], config["support"]
    lo, hi = config["window"]
    K = ref.radical_threshold(S, k0)
    want = p ** max(0, hi - max(lo, K + 1))
    errors = []
    if config["threshold"] != K:
        errors.append(f"Prop 5.7 threshold {config['threshold']} != max S - k0 = {K}")
    if config["members"] != want:
        errors.append(f"Prop 5.7 members {config['members']} != p^(hi - max(lo, K+1)) = {want}")
    return errors


def check_verdict(spec_p, S, z, depth, report):
    """A verdict report (suite or CLI) against Thm 5.6 and the reference h_omega.

    z is the reference character index; K is checked only for the tail index.
    """
    errors = []
    wits = report["witnesses"]
    if report["verdict"] != "NotTypeI_witnessed":
        errors.append(f"verdict {report['verdict']} is not NotTypeI_witnessed")
    if 2 * len(wits) < depth:
        errors.append(f"{len(wits)} witnesses < depth/2 = {depth / 2}")
    rows = []
    for w in wits:
        want = ref.h_omega(S, z, ref.mono(spec_p, w["q"]))
        got = ref.from_text(w["h_image"])
        if not ref.equal(want, got):
            errors.append(f"witness q={w['q']}: h_image {w['h_image']} != reference {want}")
        rows.append(got.fin)
    if ref.rank_mod_p(rows, spec_p) != len(rows):
        errors.append("witness images are not independent")
    return errors


def check_report(name, params, report):
    """All checks on one suite report run with `params` (None: defaults)."""
    q = merged(name, params)
    errors = []
    if report.get("suite") != name or report.get("params") != q:
        errors.append(f"{name}: report does not echo the merged params")
    if report.get("pass") is not True or report.get("failures") != 0:
        errors.append(f"{name}: report does not pass")
    got = {}
    for c in report["checks"]:
        got[c["name"]] = got.get(c["name"], 0) + c["checked"]
        if c["status"] != "pass":
            errors.append(f"{name}: check {c['name']} failed: {c['counterexample']}")
    want = expected_checked(name, params)
    if got != want:
        errors.append(f"{name}: checked totals {got} != closed forms {want}")
    for c in report["checks"]:
        cfg = c["config"]
        if name == "s-omega-prop57":
            errors += check_prop57(cfg)
        elif name == "verdict-thm56":
            p, S = cfg["p"], cfg["support"]
            rep = cfg["report"]
            if rep["K"] != ref.radical_threshold(S, cfg["k0"]):
                errors.append(f"Thm 5.6: K {rep['K']} != max S - k0 for {cfg}")
            errors += check_verdict(p, S, ref.tail_index(p, cfg["k0"]), cfg["depth"], rep)
    return errors


def _turns(rec, p):
    return ref.Fraction(rec["num"], p ** rec["exp"])


def check_samples(records):
    """Program outputs on seeded sweep inputs against the reference arithmetic."""
    J = ref.from_json
    errors = []
    for r in records:
        k = r["kind"]
        if k == "eta":
            ok = ref.equal(J(r["out"]), ref.eta(r["S"], J(r["x"]), J(r["y"])))
        elif k == "cocycle-triple":
            S = r["S"]
            x, y, z, xy, yz = (J(r[f]) for f in ("x", "y", "z", "xy", "yz"))
            e = {f: J(r[f]) for f in ("e_x_y", "e_xy_z", "e_x_yz", "e_y_z")}
            ok = (ref.equal(xy, ref.add(x, y)) and ref.equal(yz, ref.add(y, z))
                  and ref.equal(e["e_x_y"], ref.eta(S, x, y)) and ref.equal(e["e_xy_z"], ref.eta(S, xy, z))
                  and ref.equal(e["e_x_yz"], ref.eta(S, x, yz)) and ref.equal(e["e_y_z"], ref.eta(S, y, z))
                  # eta(x, y) + eta(x + y, z) = eta(x, y + z) + eta(y, z)
                  and ref.equal(ref.add(e["e_x_y"], e["e_xy_z"]), ref.add(e["e_x_yz"], e["e_y_z"])))
        elif k == "ext_mul":
            want = ref.ext_mul(r["S"], tuple(map(J, r["a"])), tuple(map(J, r["b"])))
            ok = ref.ext_equal(tuple(map(J, r["out"])), want)
        elif k == "heis_mul":
            g, h, out = (tuple(map(J, r[f])) for f in ("g", "h", "out"))
            want = ref.heis_mul(((g[0],), (g[1],), g[2]), ((h[0],), (h[1],), h[2]))
            ok = ref.heis_equal(((out[0],), (out[1],), out[2]), want)
        elif k == "chi":
            y = J(r["y"])
            ok = _turns(r, y.p) == ref.chi_turns(y, J(r["x"]))
        elif k == "omega2":
            z = J(r["z"])
            ok = _turns(r, z.p) == ref.Fraction(ref.omega2(r["S"], z, J(r["x"]), J(r["y"])), z.p)
        elif k == "h_omega":
            ok = ref.equal(J(r["out"]), ref.h_omega(r["S"], J(r["z"]), J(r["x"])))
        else:
            ok = False
        if not ok:
            errors.append(f"sample {k} disagrees with the reference: {r}")
    return errors
