"""Command-line surface: envelopes, exit codes, file IO, determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import contracta
from contracta.cli import main

Z0_SPEC = '{"cocycle":{"p":2,"support":[1]},"z":{"p":2,"n":1,"finite":{},"tail":{"start":1,"pattern":[1]}}}'
Z1_SPEC = '{"cocycle":{"p":2,"support":[1]},"z":{"p":2,"n":1,"finite":{},"tail":{"start":-1,"pattern":[1]}}}'
POLE_SPEC = '{"cocycle":{"p":2,"support":[1]},"z":{"p":2,"n":1,"finite":{"-1":1}}}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------- envelope

def test_envelope_shape(capsys):
    code, report, err = run_json(capsys, "eval", "1*t^0 @ p=2^1")
    assert code == 0
    assert set(report) == {"command", "results", "schema_version", "timing"}
    assert report["schema_version"] == "1"
    assert report["timing"] is None
    assert report["command"][0] == "--json"
    assert err.startswith("elapsed ")


def test_json_flag_gives_compact_canonical_line(capsys):
    code, out, _ = run(capsys, "--json", "eval", "0 @ p=2^1")
    assert code == 0
    assert out.count("\n") == 1
    assert ": " not in out and ", " not in out
    # keys are sorted for byte stability
    body = json.loads(out)
    assert list(body) == sorted(body)


def test_default_output_is_indented(capsys):
    code, out, _ = run(capsys, "eval", "0 @ p=2^1")
    assert code == 0
    assert out.startswith("{\n  ")
    json.loads(out)


def test_out_writes_compact_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "--out", str(target), "eval", "1*t^2 @ p=3^1")
    assert code == 0
    assert out == ""  # nothing on stdout when writing to a file
    data = json.loads(target.read_text())
    assert data["results"]["result"]["text"] == "1*t^2 @ p=3^1"


# ---------------------------------------------------------------- commands

def test_eval_operation(capsys):
    code, report, _ = run_json(
        capsys, "eval", "1*t^0 + 1*t^1 @ p=2^1", "--mul", "1*t^0 + 1*t^1 @ p=2^1"
    )
    assert code == 0
    assert report["results"]["result"]["text"] == "1*t^0 + 1*t^2 @ p=2^1"


def test_eval_valuation_of_zero_is_inf(capsys):
    code, report, _ = run_json(capsys, "eval", "0 @ p=2^1")
    assert code == 0
    assert report["results"]["valuation"] == "inf"


def test_eval_rejects_two_operations(capsys):
    code, _, err = run(capsys, "eval", "0 @ p=2^1", "--shift", "1", "--scale", "2")
    assert code == 2
    assert "InvalidParams" in err


def test_char_pairing(capsys):
    code, report, _ = run_json(capsys, "char", "1*t^-1 @ p=2^1", "1*t^1 @ p=2^1")
    assert code == 0
    assert report["results"]["pairing"]["value"] == "1/2^1"


def test_char_dual_shift_consistency(capsys):
    # chi_{T^k y}(x) = chi_y(t^k x)
    _, direct, _ = run_json(
        capsys, "char", "1*t^-3 @ p=2^1", "1*t^1 @ p=2^1", "--dual-shift", "2"
    )
    _, shifted, _ = run_json(capsys, "char", "1*t^-1 @ p=2^1", "1*t^1 @ p=2^1")
    assert direct["results"]["pairing"] == shifted["results"]["pairing"]


def test_cocycle_eta_and_laws(capsys):
    code, report, _ = run_json(
        capsys, "cocycle", "--p", "2", "--support", "1", "1*t^0 @ p=2^1", "1*t^2 @ p=2^1"
    )
    assert code == 0
    assert report["results"]["result"]["text"] == "1*t^1 @ p=2^1"
    code, report, _ = run_json(
        capsys, "cocycle", "--p", "2", "--support", "1", "--laws", "-1", "2"
    )
    assert code == 0
    assert report["results"]["pass"] is True


def test_commutator_match(capsys):
    code, report, _ = run_json(
        capsys, "commutator", "--p", "2", "--support", "1", "--n", "0", "--k", "1"
    )
    assert code == 0
    assert report["results"]["match"] is True
    assert report["results"]["commutator"] == "(1*t^1 @ p=2^1 | 0 @ p=2^1)"


def test_commutator_witness_roundtrip(capsys):
    code, report, _ = run_json(
        capsys, "commutator", "--p", "2", "--support", "1", "--witness", "4"
    )
    assert code == 0
    assert report["results"]["match"] is True


def test_multiplier_values(capsys):
    code, report, _ = run_json(
        capsys, "multiplier", "--spec", POLE_SPEC, "1*t^0 @ p=2^1", "1*t^2 @ p=2^1"
    )
    assert code == 0
    res = report["results"]
    assert res["omega"]["value"] == "1/2^1"
    assert res["omega2"]["value"] == "1/2^1"
    assert res["paths_agree"] is True


def test_multiplier_axioms_window(capsys):
    code, report, _ = run_json(
        capsys, "multiplier", "--spec", POLE_SPEC, "--axioms", "-1", "2"
    )
    assert code == 0
    assert report["results"]["pass"] is True


def test_s_omega_window_members(capsys):
    code, report, _ = run_json(capsys, "s-omega", "--spec", Z0_SPEC, "--window", "-2", "3")
    assert code == 0
    assert report["results"]["members"] == [
        "0 @ p=2^1",
        "1*t^1 @ p=2^1",
        "1*t^2 @ p=2^1",
        "1*t^1 + 1*t^2 @ p=2^1",
    ]


def test_s_omega_pointwise(capsys):
    code, report, _ = run_json(capsys, "s-omega", "--spec", Z0_SPEC, "1*t^0 @ p=2^1")
    assert code == 0
    assert report["results"]["member"] is False
    assert report["results"]["h_image"] == "1*t^2 @ p=2^1"


def test_verdict_frozen(capsys):
    code, report, _ = run_json(capsys, "verdict", "--spec", Z0_SPEC, "--depth", "12")
    assert code == 0
    res = report["results"]
    assert res["verdict"] == "NotTypeI_witnessed"
    assert res["K"] == 0
    assert len(res["witnesses"]) == 13


def test_heis_and_orbit(capsys):
    g = json.dumps(
        {"n": 1, "p": 2, "xi": [{"p": 2, "n": 1, "finite": {"0": 1}}],
         "upsilon": [{"p": 2, "n": 1, "finite": {}}], "z": {"p": 2, "n": 1, "finite": {}}}
    )
    h = json.dumps(
        {"n": 1, "p": 2, "xi": [{"p": 2, "n": 1, "finite": {}}],
         "upsilon": [{"p": 2, "n": 1, "finite": {"1": 1}}], "z": {"p": 2, "n": 1, "finite": {}}}
    )
    code, report, _ = run_json(capsys, "heis", "mul", g, h)
    assert code == 0
    assert report["results"]["result"]["z"]["finite"] == {"1": 1}

    code, report, _ = run_json(capsys, "orbit", h, h)
    assert code == 0
    assert report["results"]["status"] == "member"


def test_heis_arity_error(capsys):
    g = json.dumps(
        {"n": 1, "p": 2, "xi": [{"p": 2, "n": 1, "finite": {}}],
         "upsilon": [{"p": 2, "n": 1, "finite": {}}], "z": {"p": 2, "n": 1, "finite": {}}}
    )
    code, _, err = run(capsys, "heis", "mul", g)
    assert code == 2
    assert "InvalidParams" in err


# ---------------------------------------------------------------- verify

def test_verify_single_config(capsys):
    code, report, _ = run_json(
        capsys, "verify", "s-omega-prop57", "--params", '{"p":2,"k0":1,"S":[1]}'
    )
    assert code == 0
    assert report["results"]["pass"] is True


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nope")
    assert code == 2
    assert "UnknownSuite" in err


def test_verify_failing_report_exits_one(capsys, monkeypatch):
    import contracta.suites as suites_mod

    def fake_run_suite(name, params=None):
        return {"suite": name, "params": {}, "checks": [], "failures": 1, "pass": False}

    monkeypatch.setattr(suites_mod, "run_suite", fake_run_suite)
    code, out, _ = run(capsys, "--json", "verify", "dual-action")
    assert code == 1
    assert json.loads(out)["results"]["pass"] is False


# ---------------------------------------------------------------- errors

def test_parse_error_exits_two(capsys):
    code, _, err = run(capsys, "eval", "clearly not a series")
    assert code == 2
    assert "ParseError" in err


@pytest.mark.parametrize("argv", [
    ["s-omega", "--spec", Z0_SPEC, "--window", "3", "1"],
    ["verdict", "--spec", '{"blocks":[{"kind":"T"}]}'],
    ["verify", "duality-iso", "--params", '{"configs":[[2]]}'],
    ["verify", "dual-action", "--params", '{"sample_configs":[]}'],
    ["verdict", "--spec", Z0_SPEC, "--depth", "-5"],
    ["verdict", "--spec", Z0_SPEC, "--depth", "0"],
    ["s-omega", "--spec", Z0_SPEC, "--window", "-1", "2", "--witness-window", "0", "0"],
    ["cocycle", "--p", "2", "--support", "1", "--laws", "2", "2"],
    ["multiplier", "--spec", POLE_SPEC, "--axioms", "1", "0"],
    ["multiplier", "--spec", POLE_SPEC, "--mackey", "2", "-1"],
    ["multiplier", "--spec", POLE_SPEC, "--mackey", "-5", "4"],
    ["multiplier", "--spec", POLE_SPEC, "--mackey", "0", "1000000000"],
    ["multiplier", "--spec", POLE_SPEC, "--axioms", "-5", "4"],
    ["verify", "mackey-identity", "--params", '{"window":[-3,3]}'],
    ["cocycle", "--p", "2", "--support", "1", "--laws", "0", "12"],
    ["verify", "cocycle-laws", "--params", '{"primes":[2],"windows":[[0,12]]}'],
    ["s-omega", "--spec", Z0_SPEC, "--window", "0", "30"],
    ["verify", "verdict-thm56", "--params", '{"depth":"x"}'],
    ["verify", "verdict-thm56", "--params", '{"depth":null}'],
    ["verify", "verdict-thm56", "--params", '{"depth":Infinity}'],
    ["verify", "duality-iso", "--params", '{"window":[0,2],"configs":[[2,1]]}'],
    ["verify", "heisenberg", "--params", '{"axioms_window":[-2,-1]}'],
    ["verify", "heisenberg", "--params", '{"p":3}'],
    ["verify", "cocycle-laws", "--params", '{"primes":["x"]}'],
    ["verify", "commutator-formula", "--params", '{"primes":["x"]}'],
    ["verify", "dual-action", "--params", '{"primes":["x"]}'],
    ["verify", "dual-action", "--params", '{"primes":5}'],
    ["verify", "cocycle-laws", "--params", '{"max_support":40}'],
    ["verify", "commutator-formula", "--params", '{"max_support":40}'],
    ["verify", "cocycle-laws", "--params", '{"max_support":-1}'],
    ["verify", "commutator-formula", "--params", '{"max_support":-1}'],
    ["verify", "cocycle-laws", "--params", '{"primes":[],"max_support":40}'],
    ["verify", "commutator-formula", "--params", '{"n_range":[-1000000,1000000]}'],
    ["verify", "cocycle-laws", "--params", '{"windows":5}'],
    ["verify", "extension-group", "--params", '{"configs":5}'],
    ["verify", "multiplier-axioms", "--params", '{"specs":5}'],
    ["verify", "mackey-identity", "--params", '{"specs":5}'],
    ["verify", "duality-iso", "--params", '{"table_limit":"x"}'],
    ["verdict", "--spec", Z1_SPEC, "--depth", "5000"],
    ["verify", "verdict-thm56", "--params", '{"depth":5000}'],
    ["verify", "extension-group", "--params", '{"configs":[{"p":5,"support":[1]}]}'],
    ["verify", "duality-iso", "--params", '{"configs":[[131,1]],"window":[-1,1]}'],
    ["verify", "duality-iso", "--params", '{"configs":[[3,2]],"samples":40000}'],
    ["verify", "duality-iso", "--params", '{"configs":[[3,2]],"samples":-1}'],
    ["verify", "duality-iso", "--params", '{"configs":[[2,1]],"window":[-30,30]}'],
    ["eval", "1*t^0 @ p=318665857834031151167461^1"],
    ["verify", "dual-action", "--params", '{"samples":-5}'],
    ["verify", "dual-action", "--params", '{"iterations":-3}'],
    ["verify", "dual-action", "--params", '{"window":[-8,8]}'],
    ["verify", "dual-action", "--params", '{"shift_range":[-100000000,100000000]}'],
    ["eval", "1*t^0 @ p=2^1000000000000"],
    ["multiplier", "--spec", '{"cocycle":{"p":2,"support":[1]},'
     '"z":{"p":2,"n":1000000000000,"finite":{"-1":1}}}', "1*t^0 @ p=2^1", "1*t^1 @ p=2^1"],
    ["verify", "duality-iso", "--params", '{"configs":[[2,1000000000000]]}'],
    ["verify", "dual-action", "--params", '{"sample_configs":[[1000003,1]],"samples":1}'],
    ["eval", "per[1]*t^{>=-1000000} @ p=2^1", "--add", "1*t^1000000 @ p=2^1"],
])
def test_bad_input_is_one_error_line(capsys, argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_large_prime_literal_returns_quickly(capsys):
    # trial division up to the square root of this 19-digit prime ran unbounded
    t0 = time.perf_counter()
    code, report, _ = run_json(capsys, "eval", "1*t^0 @ p=1000000000000000003^1")
    assert time.perf_counter() - t0 < 2
    assert code == 0
    assert report["results"]["result"]["json"]["p"] == 1000000000000000003


def test_wide_sparse_tailed_add_returns_quickly(capsys):
    # the finite parts below the tail start merge sparsely, not one slot at a
    # time over the 6e8-wide span between the two terms
    t0 = time.perf_counter()
    code, report, _ = run_json(capsys, "eval", "1*t^-300000000 @ p=2^1",
                               "--add", "per[1]*t^{>=300000000} @ p=2^1")
    assert time.perf_counter() - t0 < 2
    assert code == 0
    result = report["results"]["result"]
    assert result["text"] == "1*t^-300000000 + per[1]*t^{>=300000000} @ p=2^1"
    assert report["results"]["valuation"] == -300000000


def test_wide_dense_tailed_add_is_refused_quickly(capsys):
    # the sum holds every slot from the tail start at -1e6 up to the finite
    # term at 1e6; the canonical form would spell out two million entries
    t0 = time.perf_counter()
    code, out, err = run(capsys, "--json", "eval", "per[1]*t^{>=-1000000} @ p=2^1",
                         "--add", "1*t^1000000 @ p=2^1")
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: InvalidParams: the sum holds 2000001 dense coefficients from index -1000000 "
        "to 1000001; the limit is 65536"]


_NUMPY_PROBE = """
import contextlib, io, json, sys
WATCHED = ("numpy", "contracta.multipliers", "contracta.suites")
def loaded():
    return [name for name in WATCHED if name in sys.modules]
import contracta
seen = {"import contracta": loaded()}
import contracta.cli
seen["import contracta.cli"] = loaded()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = contracta.cli.main(["--json", *argv])
    seen[argv[0]] = [code, loaded()]
print(json.dumps(seen))
"""


def test_numpy_loads_only_for_table_commands():
    # a fresh interpreter: other tests have already imported numpy into this one
    x = '{"p":2,"n":1,"finite":{"0":1}}'
    ext = '{"cocycle":{"p":2,"support":[1]},"w":%s,"x":%s}' % (x, x)
    heis = '{"n":1,"p":2,"xi":[%s],"upsilon":[%s],"z":%s}' % (x, x, x)
    calls = [
        ["eval", "1*t^0 @ p=2^1", "--add", "1*t^1 @ p=2^1"],
        ["char", "1*t^-1 @ p=2^1", "1*t^0 @ p=2^1"],
        ["cocycle", "--p", "2", "--support", "1", "1*t^0 @ p=2^1", "1*t^2 @ p=2^1"],
        ["ext", "mul", ext, ext],
        ["commutator", "--p", "2", "--support", "1", "--n", "0", "--k", "1"],
        ["heis", "mul", heis, heis],
        ["orbit", heis, heis],
        ["verdict", "--spec", Z0_SPEC, "--depth", "6"],
        ["multiplier", "--spec", POLE_SPEC, "1*t^0 @ p=2^1", "1*t^2 @ p=2^1"],
        ["verify", "cocycle-laws", "--params", '{"primes":[2],"max_support":1,"windows":[[0,1]]}'],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(contracta.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(calls)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    # each call runs after the ones above it, in the same interpreter
    assert seen.pop("import contracta") == []
    assert seen.pop("import contracta.cli") == []
    assert seen.pop("verify") == [0, ["numpy", "contracta.multipliers", "contracta.suites"]]
    assert seen.pop("verdict") == [0, ["contracta.multipliers"]]
    assert seen.pop("multiplier") == [0, ["contracta.multipliers"]]
    assert seen == {argv[0]: [0, []] for argv in calls[:-3]}


def test_radical_sweeps_do_not_load_numpy():
    # the radical window and the verdict probes read omega exponents in
    # plain Python
    calls = [
        ["s-omega", "--spec", Z0_SPEC, "--window", "-2", "3"],
        ["verify", "s-omega-prop57"],
    ]
    src = os.path.dirname(os.path.dirname(os.path.abspath(contracta.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(calls)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["s-omega"] == [0, ["contracta.multipliers"]]
    assert seen["verify"] == [0, ["contracta.multipliers", "contracta.suites"]]


def test_suite_names_match_the_registry():
    from contracta.cli import SUITE_NAMES
    from contracta.suites import suite_names

    assert SUITE_NAMES == tuple(suite_names())


@pytest.mark.parametrize("argv, digest", [
    (["--help"], "5c1d4d8647a39e9d1edd13b4393f80ce3866128fd124ff284d13d928099ed163"),
    (["verify", "--help"], "112b424fcf036e2ccbb78fcf7a0d97139b6ef988d8f580f00d1ad95b49be9f39"),
    (["eval", "--help"], "7ffd985fa555459cbc742fa5d8f45ea8b18a1b2ffb81ed26d07fa95db338afb7"),
])
def test_help_text_is_pinned(capsys, monkeypatch, argv, digest):
    # sha256 of the help bytes as Python 3.11's argparse lays them out at 80 columns
    monkeypatch.setenv("COLUMNS", "80")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_spec_file_ingestion(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(POLE_SPEC)
    code, report, _ = run_json(
        capsys, "multiplier", "--spec", str(spec_file), "1*t^0 @ p=2^1", "1*t^2 @ p=2^1"
    )
    assert code == 0
    assert report["results"]["omega"]["value"] == "1/2^1"


def test_missing_spec_file_is_io_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "multiplier", "--spec", str(tmp_path / "absent.json"), "0 @ p=2^1", "0 @ p=2^1"
    )
    assert code == 2
    assert "IoError" in err


def test_bad_spec_json_is_schema_error(capsys, tmp_path):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text("{ not json")
    code, _, err = run(capsys, "multiplier", "--spec", str(spec_file), "0 @ p=2^1", "0 @ p=2^1")
    assert code == 2
    assert "SchemaError" in err


def test_non_utf8_spec_file_is_one_error_line(capsys, tmp_path):
    spec_file = tmp_path / "bad.json"
    spec_file.write_bytes(b"\xff\xfe{")
    for argv in (["verdict", "--spec", str(spec_file)], ["ext", "inv", str(spec_file)]):
        code, out, err = run(capsys, "--json", *argv)
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: SchemaError: ")


def test_global_flags_precede_subcommand(capsys):
    # argparse rejects trailing global flags; the parser error surfaces as exit 2
    code = main(["eval", "0 @ p=2^1", "--json"])
    capsys.readouterr()
    assert code == 2
