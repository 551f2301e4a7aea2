#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each must pass on a right value and
fail on a planted wrong one.

    python3 bench/selftest.py

Right values come from the reference or from hand-computed examples, never
from contracta, so the self-test runs without the program.  run.py runs it
before every measurement.
"""

import copy
import json
import sys

import calls
import reference as ref
import sweep_checks

R = ref.Ser


def _cases():
    """(name, errors on the right value, errors on the planted wrong value)."""
    out = []

    def case(name, good, bad):
        out.append((name, good, bad))

    # hand-computed values the reference must reproduce
    two = lambda fin, tail=None: R(2, 1, fin, tail)
    case("chi(1, 1) over Z/2 is half a turn",
         [] if ref.chi_turns(two({0: 1}), two({0: 1})) == ref.Fraction(1, 2) else ["chi"],
         [] if ref.chi_turns(two({0: 1}), two({1: 1})) == ref.Fraction(1, 2) else ["chi"])
    case("eta_{1}(1, t^2) = t",
         [] if ref.equal(ref.eta([1], two({0: 1}), two({2: 1})), two({1: 1})) else ["eta"],
         [] if ref.equal(ref.eta([1], two({0: 1}), two({3: 1})), two({1: 1})) else ["eta"])
    z = ref.tail_index(2, 1)
    case("omega2(1, t^-2) is half a turn for S = {1}, z = sum_{j>=1} t^j",
         [] if ref.omega2([1], z, two({0: 1}), two({-2: 1})) == 1 else ["omega2"],
         [] if ref.omega2([1], z, two({0: 1}), two({-3: 1})) == 1 else ["omega2"])
    three = lambda fin, tail=None: R(3, 1, fin, tail)
    case("(t^-1 + 2t^3) t^2 = t + 2t^5 over Z/3",
         [] if ref.equal(ref.mul(three({-1: 1, 3: 2}), three({2: 1})), three({1: 1, 5: 2})) else ["mul"],
         [] if ref.equal(ref.mul(three({-1: 1, 3: 2}), three({2: 1})), three({1: 1, 5: 1})) else ["mul"])
    case("1/(1 + t) = sum_{j>=0} t^j over Z/2",
         [] if ref.equal(ref.mul(two({}, (0, (1,))), two({0: 1, 1: 1})), two({0: 1})) else ["mul"],
         [] if ref.equal(ref.mul(two({}, (1, (1,))), two({0: 1, 1: 1})), two({0: 1})) else ["mul"])

    # oneshot output checks: a right result built from the reference, then a wrong one
    rnd = {c["kind"]: c for c in calls.round_calls(0)}

    def env(c, results):
        return 0, json.dumps({"command": ["--json"] + c["argv"], "schema_version": "1",
                              "results": results}), "elapsed 0.001s\n"

    def judged(c, results):
        failed, errs = calls.check_call(c, *env(c, results))
        return errs + (["failed"] if failed else [])

    c = rnd["eval-add"]
    want = ref.add(c["x"], c["y"])
    good = {"result": {"json": ref.to_json(want), "text": ref.to_text(want)}, "valuation": want.valuation()}
    wrong = ref.add(want, ref.mono(want.p, 7, 1, want.n))
    case("eval --add against reference add", judged(c, good),
         judged(c, dict(good, result={"json": ref.to_json(wrong), "text": ref.to_text(wrong)})))
    case("a result of the wrong shape is reported, not raised", judged(c, good), judged(c, {"result": {}}))
    c = rnd["char"]
    t = ref.chi_turns(ref.shift(c["y"], c["k"]), c["x"])
    good = {"pairing": _torus(t, c["x"].p)}
    case("char against the reference exponent sum", judged(c, good),
         judged(c, {"pairing": _torus(t + ref.Fraction(1, c["x"].p), c["x"].p)}))
    c = rnd["multiplier"]
    p = c["z"].p
    w1 = _torus(ref.Fraction(ref.omega(c["S"], c["z"], c["x"], c["y"]), p), p)
    w2 = _torus(ref.Fraction(ref.omega2(c["S"], c["z"], c["x"], c["y"]), p), p)
    good = {"omega": w1, "omega2": w2, "omega2_closed_form": w2, "paths_agree": True}
    w2x = _torus(ref.Fraction(ref.omega2(c["S"], c["z"], c["x"], c["y"]) + 1, p), p)
    case("multiplier against reference omega2", judged(c, good), judged(c, dict(good, omega2_closed_form=w2x)))
    # orbit members: an exact quotient, and the periodic 1/(1 + t) = sum_{j>=0} t^j
    u = two({-1: 1})
    for zz, xi, wrong in ((two({0: 1, 2: 1}), two({1: 1}), two({2: 1})),
                          (two({0: 1, 1: 1}), two({}, (0, (1,))), two({}, (1, (1,))))):
        c = calls._orbit_call(((u,), (u,), zz), ((u,), (ref.add(u, ref.mul(zz, xi)),), zz))
        good = {"kind": "AffineSlice", "status": "member", "xi": [ref.to_text(xi)]}
        case(f"orbit quotient {xi} times z is the difference", judged(c, good),
             judged(c, dict(good, xi=[ref.to_text(wrong)])))
    c = rnd["faulty"]
    case("a known-faulty call fails until it ends in exit 2 with one error line",
         [] if calls.check_call(c, 2, "", "error: InvalidParams: bad\n") == (False, []) else ["faulty"],
         [] if calls.check_call(c, 1, "", "Traceback (most recent call last):\n  ...\n") == (False, [])
         else ["faulty"])

    # closed-form checked totals
    params = {"primes": [2], "max_support": 1, "windows": [[0, 2]]}
    report = _fake_report("cocycle-laws", params, [("cocycle-laws", {}, 80), ("cocycle-laws", {}, 80)])
    case("cocycle-laws checked total equals sum of s^2 + s^3",
         sweep_checks.check_report("cocycle-laws", params, report),
         sweep_checks.check_report("cocycle-laws", params, _planted(report, "checks", 0, "checked", 79)))
    case("defaults: cocycle-laws closed form is 9 027 712",
         [] if sum(sweep_checks.expected_checked("cocycle-laws", None).values()) == 9_027_712 else ["total"],
         [] if sum(sweep_checks.expected_checked("cocycle-laws", {"max_support": 3}).values()) == 9_027_712
         else ["total"])

    # Prop 5.7 and Thm 5.6
    cfg = {"p": 2, "k0": 1, "support": [1], "window": [-2, 3], "threshold": 0, "members": 4, "elements": 32}
    case("Prop 5.7 member count", sweep_checks.check_prop57(cfg), sweep_checks.check_prop57(dict(cfg, members=8)))
    wits = [{"q": q, "h_image": ref.to_text(ref.h_omega([1], z, ref.mono(2, q)))} for q in range(0, -7, -1)]
    rep = {"K": 0, "verdict": "NotTypeI_witnessed", "witnesses": wits}
    case("Thm 5.6 witnesses and their h images", sweep_checks.check_verdict(2, [1], z, 12, rep),
         sweep_checks.check_verdict(2, [1], z, 12, dict(rep, witnesses=wits[:5])))
    bad_img = copy.deepcopy(rep)
    bad_img["witnesses"][3]["h_image"] = wits[2]["h_image"]
    case("Thm 5.6 witness images independent", sweep_checks.check_verdict(2, [1], z, 12, rep),
         sweep_checks.check_verdict(2, [1], z, 12, bad_img))

    # properties: the cocycle identity on a wide triple
    S = [1, 3]
    x, y, w = two({-6: 1, 0: 1, 5: 1}), two({-4: 1, 2: 1, 7: 1}), two({-8: 1, -1: 1, 8: 1})
    xy, yw = ref.add(x, y), ref.add(y, w)
    J = ref.to_json
    rec = {"kind": "cocycle-triple", "S": S, "x": J(x), "y": J(y), "z": J(w), "xy": J(xy), "yz": J(yw),
           "e_x_y": J(ref.eta(S, x, y)), "e_xy_z": J(ref.eta(S, xy, w)),
           "e_x_yz": J(ref.eta(S, x, yw)), "e_y_z": J(ref.eta(S, y, w))}
    bad = dict(rec, e_x_y=J(ref.add(ref.eta(S, x, y), two({2: 1}))))
    case("cocycle identity on a wide triple", sweep_checks.check_samples([rec]),
         sweep_checks.check_samples([bad]))
    return out


def _torus(t, p):
    """A CLI torus result for the fraction t of a turn."""
    t %= 1
    e = 0
    while p ** e % t.denominator:
        e += 1
    return {"num": t.numerator, "p_power": e if t else 0, "value": "?"}


def _fake_report(name, params, checks):
    return {"suite": name, "params": sweep_checks.merged(name, params), "failures": 0, "pass": True,
            "checks": [{"name": n, "config": cfg, "checked": k, "status": "pass", "counterexample": None}
                       for n, cfg, k in checks]}


def _planted(report, key, idx, field, value):
    out = copy.deepcopy(report)
    out[key][idx][field] = value
    return out


def run():
    """Messages for every check that missed its planted fault or rejected a right value."""
    broken = []
    for name, good, bad in _cases():
        if good:
            broken.append(f"{name}: rejects the right value ({good[0]})")
        if not bad:
            broken.append(f"{name}: accepts the planted wrong value")
    return broken


if __name__ == "__main__":
    problems = run()
    for p in problems:
        print("FAIL", p)
    print(f"{len(_cases())} checks, {len(problems)} problems")
    sys.exit(1 if problems else 0)
