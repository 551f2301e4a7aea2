"""Verification-suite registry contracts and the sweep helpers behind them."""

import subprocess
import sys
from pathlib import Path

import pytest

from contracta import Modulus, laurent, run_suite, suite_names, window_elements, window_id
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


# ---------------------------------------------------------------- sweep

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
