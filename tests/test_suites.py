"""Verification-suite registry contracts and the sweep helpers behind them."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from contracta import (
    CocycleSpec,
    ExtElem,
    HeisElem,
    Modulus,
    lau_add,
    lau_monomial,
    lau_zero,
    laurent,
    run_suite,
    series_to_text,
    suite_names,
    window_elements,
    window_id,
)
from contracta import cocycles, multipliers, suites
from contracta.errors import InvalidParams, UnknownSuite
from contracta.sweep import add_table, window_digits

M2 = Modulus(2, 1)
M3 = Modulus(3, 1)


def test_registry_lists_all_suites():
    names = suite_names()
    assert names == sorted(names)
    assert set(names) == {
        "cocycle-laws",
        "commutator-formula",
        "dual-action",
        "duality-iso",
        "extension-group",
        "heisenberg",
        "mackey-identity",
        "multiplier-axioms",
        "s-omega-prop57",
        "verdict-thm56",
    }


def test_unknown_suite_identifies_itself():
    with pytest.raises(UnknownSuite) as err:
        run_suite("no-such-suite")
    assert "no-such-suite" in str(err.value)
    assert "dual-action" in str(err.value)


def test_unknown_params_rejected():
    with pytest.raises(InvalidParams):
        run_suite("dual-action", {"bogus": 1})


def test_dual_action_reports_converted_primes():
    rep = run_suite("dual-action", {"primes": [3, "2"], "samples": 4})
    assert rep["pass"] is True
    configs = [c["config"] for c in rep["checks"] if c["name"].startswith("dual-")]
    assert configs == [{"primes": [2, 3]}, {"primes": [2, 3]}]


def test_run_suites_script_rejects_unknown_name(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_suites.py"
    proc = subprocess.run([sys.executable, str(script), "--suite", "verdict-thm56", "--suite", "nope",
                           "--out-dir", str(tmp_path)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: UnknownSuite: ")
    assert list(tmp_path.iterdir()) == []


def test_report_envelope_shape():
    rep = run_suite("dual-action")
    assert set(rep) == {"suite", "params", "checks", "failures", "pass"}
    assert rep["suite"] == "dual-action"
    assert rep["pass"] is True
    assert rep["failures"] == 0
    for entry in rep["checks"]:
        assert set(entry) == {"name", "config", "checked", "status", "counterexample"}
        assert entry["status"] == "pass"
        assert entry["counterexample"] is None
        assert entry["checked"] > 0


def test_single_config_mode():
    rep = run_suite("s-omega-prop57", {"p": 2, "k0": 1, "S": [1]})
    assert rep["pass"] is True
    assert len(rep["checks"]) == 1
    assert rep["checks"][0]["config"]["p"] == 2


def test_single_config_requires_full_trio():
    with pytest.raises(InvalidParams, match="together"):
        run_suite("s-omega-prop57", {"p": 2})
    with pytest.raises(InvalidParams):
        run_suite("verdict-thm56", {"k0": 1})


def test_single_config_validates_values():
    with pytest.raises(InvalidParams):
        run_suite("s-omega-prop57", {"p": 2, "k0": 0, "S": [1]})
    with pytest.raises(InvalidParams):
        run_suite("s-omega-prop57", {"p": 2, "k0": 1, "S": []})


# ---------------------------------------------------------------- planted faults
#
# One wrong value in heis_mul, ext_mul, eta, chi_exponent or omega_exponent
# must fail the check whose loop forms that value once and reuses it.  The
# checked count and the first counterexample are the ones the per-pair loops
# (for the character, the whole (x, y, z) table of torus values) gave for the
# same fault.

def _check_named(rep, name):
    return next(c for c in rep["checks"] if c["name"] == name)


def test_planted_heis_mul_fault_fails_pullback(monkeypatch):
    zero, one = lau_zero(M2), lau_monomial(M2, 0, 1)
    g = HeisElem(1, (lau_monomial(M2, -1, 1),), (zero,), zero)
    n = HeisElem(1, (zero,), (one,), zero)
    real = suites.heis_mul

    def faulty(a, b):
        out = real(a, b)
        if a == g and b == n:
            return HeisElem(1, out.xi, out.upsilon, lau_add(out.z, one))
        return out

    monkeypatch.setattr(suites, "heis_mul", faulty)
    rep = run_suite("heisenberg", {"axioms_window": [0, 1], "pullback_window": [-1, 1]})
    # xi = t^-1 lies outside the axioms window, so only the pullback sees the fault
    assert [c["name"] for c in rep["checks"] if c["status"] == "fail"] == ["pullback-and-dual-action"]
    check = _check_named(rep, "pullback-and-dual-action")
    assert check["checked"] == 1536
    assert check["counterexample"] == {
        "kind": "pullback", "upsilon": "0 @ p=2^1", "z": "1*t^0 @ p=2^1",
        "xi": "1*t^-1 @ p=2^1", "mu": "1*t^0 @ p=2^1", "w": "0 @ p=2^1",
    }


def test_planted_ext_mul_fault_fails_shift_automorphism(monkeypatch):
    spec = CocycleSpec(2, (1,))
    zero, one = lau_zero(M2), lau_monomial(M2, 0, 1)
    a = ExtElem(spec, zero, lau_monomial(M2, -1, 1))
    real = suites.ext_mul

    def faulty(x, y):
        # a*a is (0 | 0); (1 | 0) stays in the window, so the closure table holds it
        if x == a and y == a:
            return ExtElem(spec, one, zero)
        return real(x, y)

    monkeypatch.setattr(suites, "ext_mul", faulty)
    rep = run_suite("extension-group", {"configs": [{"p": 2, "support": [1]}]})
    assert _check_named(rep, "window-closure")["status"] == "pass"
    check = _check_named(rep, "shift-automorphism")
    assert check["status"] == "fail"
    assert check["checked"] == 4160
    assert check["counterexample"] == {"a": "(0 @ p=2^1 | 1*t^-1 @ p=2^1)",
                                       "b": "(0 @ p=2^1 | 1*t^-1 @ p=2^1)"}


def test_planted_ext_mul_fault_fails_associativity(monkeypatch):
    spec = CocycleSpec(2, (1,))
    a = ExtElem(spec, lau_monomial(M2, 0, 1), lau_monomial(M2, 1, 1))
    b = ExtElem(spec, lau_monomial(M2, -1, 1), lau_monomial(M2, 0, 1))
    g = ExtElem(spec, lau_monomial(M2, 1, 1), lau_zero(M2))
    real = suites.ext_mul

    def faulty(x, y):
        # a*b becomes (a*b)*g, another element of the closed window
        return real(real(x, y), g) if (x, y) == (a, b) else real(x, y)

    monkeypatch.setattr(suites, "ext_mul", faulty)
    rep = run_suite("extension-group", {"configs": [{"p": 2, "support": [1]}]})
    assert [c["name"] for c in rep["checks"] if c["status"] == "fail"] == [
        "associativity", "shift-automorphism"]
    check = _check_named(rep, "associativity")
    assert check["checked"] == 64 ** 3
    assert check["counterexample"] == {"a": "(0 @ p=2^1 | 1*t^-1 @ p=2^1)",
                                       "b": "(0 @ p=2^1 | 1*t^-1 + 1*t^1 @ p=2^1)",
                                       "c": "(1*t^-1 @ p=2^1 | 1*t^0 @ p=2^1)"}


def test_planted_heis_mul_fault_fails_associativity(monkeypatch):
    zero, one = lau_zero(M2), lau_monomial(M2, 0, 1)
    g = HeisElem(1, (one,), (zero,), zero)
    h = HeisElem(1, (zero,), (one,), zero)
    central = HeisElem(1, (zero,), (zero,), lau_monomial(M2, 1, 1))
    real = suites.heis_mul

    def faulty(x, y):
        return real(real(x, y), central) if (x, y) == (g, h) else real(x, y)

    monkeypatch.setattr(suites, "heis_mul", faulty)
    rep = run_suite("heisenberg", {"axioms_window": [0, 1], "pullback_window": [0, 1]})
    assert [c["name"] for c in rep["checks"] if c["status"] == "fail"] == ["associativity"]
    check = _check_named(rep, "associativity")
    assert check["checked"] == 16 ** 3

    def elem(xi, ups, z):
        return {"n": 1, "p": 2, "xi": [{"finite": xi, "n": 1, "p": 2}],
                "upsilon": [{"finite": ups, "n": 1, "p": 2}], "z": {"finite": z, "n": 1, "p": 2}}

    assert check["counterexample"] == {"g": elem({}, {}, {"0": 1}), "h": elem({"0": 1}, {}, {}),
                                       "k": elem({}, {"0": 1}, {})}


def test_planted_eta_fault_fails_shift_equivariance(monkeypatch):
    t2 = lau_monomial(M2, 2, 1)
    real = cocycles.eta_coeffs

    def faulty(spec, x, y):
        # (t^2, t^2) is the shifted pair of (t, t) and lies outside the window
        if x == t2 and y == t2:
            return {3: 1}
        return real(spec, x, y)

    monkeypatch.setattr(cocycles, "eta_coeffs", faulty)
    rep = run_suite("cocycle-laws", {"primes": [2], "max_support": 1, "windows": [[0, 2]]})
    law = {"law": "shift-equivariance", "status": "fail", "counterexample": {
        "x": "1*t^1 @ p=2^1", "y": "1*t^1 @ p=2^1", "lhs": "1*t^3 @ p=2^1", "rhs": "0 @ p=2^1"}}
    assert [(c["config"]["support"], c["checked"], c["counterexample"]) for c in rep["checks"]] == [
        ([], 80, {"laws": [law]}),
        ([1], 80, {"laws": [law]}),
    ]


def test_planted_chi_char_fault_fails_additivity(monkeypatch):
    # chi_1(1) is off by a third of a turn; every x row before x = 1 is
    # additive, and the first (y, z) in that row is the one the whole
    # (x, y, z) table gave
    one = lau_monomial(M3, 0, 1)
    real = suites.chi_exponent

    def faulty(y, x):
        e = real(y, x)
        return (e + 1) % 3 if y == one and x == one else e

    monkeypatch.setattr(suites, "chi_exponent", faulty)
    rep = run_suite("duality-iso", {"configs": [[3, 1]]})
    check = _check_named(rep, "additivity-exhaustive")
    assert check["status"] == "fail"
    assert check["checked"] == 81 ** 3
    assert check["counterexample"] == {"x": "1*t^0 @ p=3^1", "y": "1*t^-2 @ p=3^1",
                                       "z": "1*t^0 @ p=3^1"}


def test_planted_chi_exponent_fault_fails_shift_dual_identity(monkeypatch):
    # chi_{t}(1) over F_3 is off by a third of a turn; at k = -1 the right
    # side reads it for y = x = t, and only the p = 3 config holds t
    one, t = lau_monomial(M3, 0, 1), lau_monomial(M3, 1, 1)
    real = suites.chi_exponent

    def faulty(y, x):
        e = real(y, x)
        return (e + 1) % 3 if y == t and x == one else e

    monkeypatch.setattr(suites, "chi_exponent", faulty)
    rep = run_suite("dual-action")
    assert [c["name"] for c in rep["checks"] if c["status"] == "fail"] == ["shift-dual-identity"]
    check = next(c for c in rep["checks"] if c["status"] == "fail")
    assert check["config"] == {"p": 3, "n": 1, "window": [-2, 2], "shifts": [-2, 2]}
    assert check["checked"] == 8776
    assert check["counterexample"] == {"k": -1, "y": "1*t^1 @ p=3^1", "x": "1*t^1 @ p=3^1"}


def test_planted_omega_exponent_fault_fails_radical_ball(monkeypatch):
    # omega(t, t^-1) is off by half a turn, so t pairs nontrivially with t^-1
    # in both the window sweep and the monomial probes of h_omega
    t, t_inv = lau_monomial(M2, 1, 1), lau_monomial(M2, -1, 1)
    real = multipliers.omega_exponent

    def faulty(m, x, y):
        e = real(m, x, y)
        return (e + 1) % 2 if x == t and y == t_inv else e

    monkeypatch.setattr(multipliers, "omega_exponent", faulty)
    rep = run_suite("s-omega-prop57", {"p": 2, "k0": 1, "S": [1]})
    check = _check_named(rep, "radical-is-congruence-ball")
    assert check["status"] == "fail"
    assert (check["checked"], check["config"]["members"]) == (64, 2)
    assert check["counterexample"] == {"x": "1*t^1 @ p=2^1", "window_says": False,
                                       "exact_says": False, "expected": True}


def test_planted_lau_add_fault_fails_sampled_additivity(monkeypatch):
    # y + z gains t^-1 when y_1 = 3 and z_1 = 2, which only an x with x_1 != 0
    # sees; the counterexample is the 18th sample, the triple that laurent()
    # builds from the drawn digits
    real = suites.lau_add

    def faulty(y, z):
        out = real(y, z)
        if y.coeff(1) == 3 and z.coeff(1) == 2:
            return real(out, lau_monomial(y.modulus, -1, 1))
        return out

    monkeypatch.setattr(suites, "lau_add", faulty)
    rep = run_suite("duality-iso", {"configs": [[2, 2]], "table_limit": 100, "samples": 500})
    assert [c["name"] for c in rep["checks"] if c["status"] == "fail"] == ["additivity-sampled"]
    check = _check_named(rep, "additivity-sampled")
    assert check["checked"] == 500
    assert check["counterexample"] == {"x": "3*t^-2 + 3*t^-1 + 3*t^0 + 2*t^1 @ p=2^2",
                                       "y": "3*t^1 @ p=2^2",
                                       "z": "2*t^-2 + 3*t^-1 + 1*t^0 + 2*t^1 @ p=2^2"}


# ---------------------------------------------------------------- sweep

class _RecordingList(list):
    """A list that records every index it is read at."""

    def __init__(self, items, seen):
        super().__init__(items)
        self.seen = seen

    def __getitem__(self, i):
        self.seen.append(int(i))
        return super().__getitem__(i)


def test_sampled_draws_are_pinned(monkeypatch):
    # a passing sampled check reports only its count, so the golden report
    # digests do not see which samples it drew: duality-iso's window-id
    # triples and dual-action's contraction-time draws are pinned here
    triples, contractions = [], []
    sampled = suites._additivity_sampled
    brute = suites.contraction_time_brute

    def recording_sampled(mod, elems, lo, hi, n_samples):
        seen = []
        triples.append([mod.p, mod.n, seen])
        return sampled(mod, _RecordingList(elems, seen), lo, hi, n_samples)

    def recording_brute(y, k, *args):
        contractions.append([series_to_text(y), k])
        return brute(y, k, *args)

    monkeypatch.setattr(suites, "_additivity_sampled", recording_sampled)
    monkeypatch.setattr(suites, "contraction_time_brute", recording_brute)
    assert run_suite("duality-iso")["pass"] and run_suite("dual-action")["pass"]

    def digest(draws):
        return hashlib.sha256(json.dumps(draws, separators=(",", ":")).encode()).hexdigest()

    assert [(p, n, len(seen)) for p, n, seen in triples] == [(3, 2, 3 * 30000)]
    assert digest(triples) == "f3fd9ab800dfd1b3129f3e5a2b9c63dcb4a4ed9d96ff4d1e3dd4299e9b4a80ee"
    assert len(contractions) == 200
    assert digest(contractions) == "211cec13d17d21d8a043decbfd4bfd7d095879bd4ea5c1771573a6b4feed4b69"


def test_window_elements_enumerates_card_pow_width():
    elems = window_elements(M3, -1, 2)
    assert len(elems) == 27
    assert len(set(elems)) == 27
    assert elems[0].is_zero()


def test_window_id_inverts_enumeration():
    elems = window_elements(M2, -2, 2)
    for i, x in enumerate(elems):
        assert window_id(x, -2, 2) == i


def test_window_id_rejects_out_of_window():
    x = laurent(M2, {5: 1})
    with pytest.raises(InvalidParams):
        window_id(x, -2, 2)


def test_add_table_matches_semantics():
    digits, powers = window_digits(3, 0, 2)
    table = add_table(digits, powers, 3)
    elems = window_elements(M3, 0, 2)
    from contracta import lau_add

    for i in range(len(elems)):
        for j in range(len(elems)):
            assert elems[table[i, j]] == lau_add(elems[i], elems[j])
