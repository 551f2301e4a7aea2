"""Acceptance gate: one test per primary guarantee, each printing a verdict line.

Criteria 1 and 3-11 consume a shared cache of one full verification-suite
pass. Criterion 11 compares the sha256 of each report's canonical bytes with
the committed golden digests, so any change in behaviour shows up as a test
failure. Criterion 2 is checked directly against the matrix layer. Run with
`-s` to see the lines.
"""

import hashlib
import json
import time

from contracta import run_suite, suite_names

BUDGETS = {
    "duality-iso": 5.0,
    "dual-action": 5.0,
    "cocycle-laws": 10.0,
    "commutator-formula": 5.0,
    "extension-group": 10.0,
    "multiplier-axioms": 10.0,
    "mackey-identity": 20.0,
    "s-omega-prop57": 30.0,
    "verdict-thm56": 10.0,
    "heisenberg": 10.0,
}

# sha256 of json.dumps(report, sort_keys=True, separators=(",", ":")) for each
# suite at its default params
GOLDEN_DIGESTS = {
    "cocycle-laws": "bc553794cd494326eb621090fcc660931e85b6a4ac9bba44fc82935d7e9dc2eb",
    "commutator-formula": "8c8db97f3f61c1cdaf8fcb7aa18c3394a3e8438c6198884eff6933e5bbfa1e96",
    "dual-action": "c2a9d8e36e46bec4e29b5f2e606b8e3a0da15ac60b0e602d56c0a7ac1a64e319",
    "duality-iso": "f1cfa14a56f668edb1ffe1870d9a6bc6f810663343332b9267c59b8c76db5bfc",
    "extension-group": "cbea6e2abba7f4f9d4a8a87c18936988014e590e9179ff7fa689c3eed454441b",
    "heisenberg": "7a0eb35ffffebbc32ed034f641d94656b910d5409474126bac58b2eb48912b48",
    "mackey-identity": "6111599ec3c66a898caf9ae4994f71d38e15f248d907f37f3b11bb13aefad9ff",
    "multiplier-axioms": "2ab03038caea26c06254d8fb865e5f6821d3d46abe03294a8691336d44c9c32f",
    "s-omega-prop57": "563fe84c048df0354230789e87cbbd14d547cfb06d9796f896d45ef20261cbdc",
    "verdict-thm56": "043ca72397072df54c0424c89ff008bd6a2a8ea3c08e0307933fe616fdffcb03",
}

_CACHE = {}


def _reports():
    """One full pass of every suite; returns {suite: (report, elapsed, canonical_bytes)}."""
    if not _CACHE:
        for name in suite_names():
            t0 = time.perf_counter()
            rep = run_suite(name)
            elapsed = time.perf_counter() - t0
            blob = json.dumps(rep, sort_keys=True, separators=(",", ":")).encode()
            _CACHE[name] = (rep, elapsed, blob)
    return _CACHE


def _suite(name):
    rep, elapsed, _ = _reports()[name]
    return rep, elapsed


def _verdict_line(criterion, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"[{status}] criterion {criterion}: {elapsed:.2f}s{suffix}")


def _names(rep):
    return {c["name"] for c in rep["checks"]}


def test_criterion_01_character_isomorphism():
    rep, elapsed = _suite("duality-iso")
    ok = rep["pass"] and elapsed < BUDGETS["duality-iso"]
    _verdict_line(1, ok, elapsed, f"{len(rep['checks'])} checks, exact")
    assert rep["pass"] is True
    assert {"additivity-exhaustive", "pairing-matrix-rank", "separates-points"} <= _names(rep)
    configs = {(c["config"]["p"], c["config"]["n"]) for c in rep["checks"] if "p" in c["config"]}
    assert {(2, 1), (3, 1), (2, 2), (3, 2)} <= configs
    assert elapsed < BUDGETS["duality-iso"]


def test_criterion_02_transpose_formula():
    from contracta import companion_matrix, contractivity_certificate, dual_companion, padic, poly
    from contracta.padic import min_entry_valuation, pmul

    t0 = time.perf_counter()
    checked = 0
    for p in (2, 3, 5):
        for coeffs in ((-p,), (-p, 0), (p, p)):
            g = poly(p, coeffs)
            c = companion_matrix(g)
            ct = dual_companion(g)
            # entrywise transpose
            for i in range(g.m):
                for j in range(g.m):
                    assert ct.rows[i][j] == c.rows[j][i]
            # displayed coordinate formula on probe vectors
            probes = [
                tuple(padic(p, int(i == s)) for i in range(g.m)) for s in range(g.m)
            ] + [tuple(padic(p, i + 1) for i in range(g.m))]
            for v in probes:
                got = ct.matvec(v)
                for i in range(g.m - 1):
                    assert got[i] == v[i + 1]
                acc = padic(p, 0)
                for a, vi in zip(g.coeffs, v):
                    from contracta.padic import padd, pneg

                    acc = padd(acc, pneg(pmul(a, vi)))
                assert got[g.m - 1] == acc
            # contraction of iterates out to k = 20
            assert contractivity_certificate(g) is True
            for mat in (c, ct):
                v = tuple(padic(p, 1) for _ in range(g.m))
                vals = []
                for _ in range(21):
                    vals.append(min_entry_valuation(v))
                    v = mat.matvec(v)
                assert all(vals[k + 2] >= vals[k] + 1 for k in range(19))
                assert vals[20] >= 10
            checked += 1
    assert contractivity_certificate(poly(2, (-1,))) is False
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    _verdict_line(2, ok, elapsed, f"{checked} polynomials, exact")
    assert elapsed < 1.0


def test_criterion_03_dual_action_identity():
    rep, elapsed = _suite("dual-action")
    ok = rep["pass"] and elapsed < BUDGETS["dual-action"]
    _verdict_line(3, ok, elapsed, "exhaustive identity + 200 sampled contraction times")
    assert rep["pass"] is True
    assert {"shift-dual-identity", "contraction-time-brute"} <= _names(rep)
    sampled = [c for c in rep["checks"] if c["name"] == "contraction-time-brute"]
    assert sum(c["checked"] for c in sampled) >= 200
    assert elapsed < BUDGETS["dual-action"]


def test_criterion_04_cocycle_laws():
    rep, elapsed = _suite("cocycle-laws")
    ok = rep["pass"] and elapsed < BUDGETS["cocycle-laws"]
    _verdict_line(4, ok, elapsed, f"{len(rep['checks'])} support/window combinations")
    assert rep["pass"] is True
    # every subset of {1,...,4} for both primes, three windows each
    assert len(rep["checks"]) == 2 * 16 * 3
    assert elapsed < BUDGETS["cocycle-laws"]


def test_criterion_05_commutator_formula():
    rep, elapsed = _suite("commutator-formula")
    ok = rep["pass"] and elapsed < BUDGETS["commutator-formula"]
    _verdict_line(5, ok, elapsed, "monomial grid + derived witnesses")
    assert rep["pass"] is True
    assert {"monomial-commutator", "derived-witness"} <= _names(rep)
    assert elapsed < BUDGETS["commutator-formula"]


def test_criterion_06_multiplier_axioms_and_mackey():
    rep_ax, t_ax = _suite("multiplier-axioms")
    rep_mk, t_mk = _suite("mackey-identity")
    elapsed = t_ax + t_mk
    ok = rep_ax["pass"] and rep_mk["pass"] and elapsed < 20.0
    _verdict_line(6, ok, elapsed, "4 multiplier specs, pairs and triples on W(-1,3)")
    assert rep_ax["pass"] is True
    assert rep_mk["pass"] is True
    assert len([c for c in rep_ax["checks"] if c["name"] == "multiplier-m1-m2"]) == 4
    assert len(rep_mk["checks"]) == 4
    assert elapsed < 20.0


def test_criterion_07_skew_pairing_two_paths():
    rep, elapsed = _suite("multiplier-axioms")
    checks = {c["name"]: c for c in rep["checks"]}
    ok = rep["pass"] and elapsed < 10.0
    _verdict_line(7, ok, elapsed, "closed form vs direct + bicharacter laws")
    assert checks["omega2-closed-form"]["status"] == "pass"
    assert checks["omega2-bicharacter"]["status"] == "pass"
    assert elapsed < 10.0


def test_criterion_08_radical_is_congruence_ball():
    rep, elapsed = _suite("s-omega-prop57")
    ok = rep["pass"] and elapsed < BUDGETS["s-omega-prop57"]
    _verdict_line(8, ok, elapsed, f"{len(rep['checks'])} (p, k0, S) configurations")
    assert rep["pass"] is True
    assert len(rep["checks"]) == 16  # p in {2,3} x k0 in {1,2} x four supports
    assert all(c["name"] == "radical-is-congruence-ball" for c in rep["checks"])
    assert elapsed < BUDGETS["s-omega-prop57"]


def test_criterion_09_verdict_and_witness_value():
    from contracta import (
        CocycleSpec,
        Modulus,
        MultiplierSpec,
        lau_monomial,
        omega2,
        tail_character_index,
        torus_from_fraction,
        torus_inv,
    )

    rep, elapsed = _suite("verdict-thm56")
    assert rep["pass"] is True
    witnesses_ok = True
    for c in rep["checks"]:
        data = c["config"]["report"]
        assert data["verdict"] == "NotTypeI_witnessed"
        if len(data["witnesses"]) < 6:
            witnesses_ok = False
    # displayed witness value at the radical boundary, both primes
    for p, k0, top in ((2, 1, 1), (3, 2, 3)):
        spec = MultiplierSpec(
            CocycleSpec(p, tuple(range(1, top + 1))), tail_character_index(p, k0)
        )
        mod = Modulus(p, 1)
        q = top - k0  # first exponent outside the radical
        for a in range(1, p):
            for c_ in range(1, p):
                x = lau_monomial(mod, q, c_)
                y = lau_monomial(mod, q - 2 * top, a)
                got = omega2(spec, y, x)
                assert got == torus_from_fraction(a * c_, 1, p)
                assert omega2(spec, x, y) == torus_inv(got)
    ok = witnesses_ok and elapsed < BUDGETS["verdict-thm56"]
    _verdict_line(9, ok, elapsed, ">= 6 independent witnesses per configuration")
    assert witnesses_ok
    assert elapsed < BUDGETS["verdict-thm56"]


def test_criterion_10_heisenberg():
    rep, elapsed = _suite("heisenberg")
    ok = rep["pass"] and elapsed < BUDGETS["heisenberg"]
    _verdict_line(10, ok, elapsed, "group axioms, pullback, dual action, orbits")
    assert rep["pass"] is True
    names = _names(rep)
    assert {"mul-closure", "associativity", "pullback-and-dual-action", "orbit-membership"} <= names
    assert elapsed < BUDGETS["heisenberg"]


def test_criterion_11_determinism_across_workers():
    reports = _reports()
    mismatches = []
    for name in suite_names():
        rep, _, blob = reports[name]
        if hashlib.sha256(blob).hexdigest() != GOLDEN_DIGESTS.get(name):
            mismatches.append(name)
        assert rep["pass"] is True, name
    total = sum(v[1] for v in reports.values())
    ok = not mismatches and total < 120.0
    _verdict_line(11, ok, total, "every report matches its golden digest, full pass")
    assert sorted(GOLDEN_DIGESTS) == sorted(suite_names())
    assert mismatches == []
    assert total < 120.0
