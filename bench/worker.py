"""The benchmark's child process for the work that needs contracta imported.

    python3 worker.py MODE CONFIG_JSON

MODE is `setup` or `setup-cli` (import contracta, or contracta.cli, and
report when done), `samples` (contracta's outputs on seeded sweep inputs,
for the parent to check) or `replay` (in-process `contracta.cli.main` on
lists of argument lists, untraced and then traced).  The last stdout line is
one JSON object.  Timestamps are time.monotonic(), which the parent shares,
so the parent can time the set-up from before it started this process.
"""

import sys
import time

MODE = sys.argv[1]
if MODE == "setup-cli":
    import contracta.cli  # noqa: F401
else:
    import contracta  # noqa: F401
IMPORT_DONE = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402

from tracer import Tracer  # noqa: E402


def _check_origin():
    """Refuse to measure a contracta that is not the checkout's own source."""
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src", "contracta"))
    if os.path.dirname(os.path.realpath(contracta.__file__)) != src:
        sys.exit(f"contracta imported from {contracta.__file__}, not from {src}")


def _main_call(argv):
    """(exit code, seconds) of one in-process contracta.cli.main call, output discarded."""
    from contracta.cli import main

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--json", *argv])
    except Exception:  # the known-faulty calls end in tracebacks; the parent counts them
        code = 1
    return code, time.perf_counter() - t0


def _replay(argvs, extra):
    """cli.main times of argvs untraced, then argvs and extra under a tracer.

    Returns (tracer, untraced seconds per call, traced seconds for argvs).
    """
    main_s = [_main_call(a)[1] for a in argvs]
    tracer = Tracer()
    tracer.install()
    try:
        call = tracer.span("cli.main", _main_call)
        t0 = time.perf_counter()
        for a in argvs:
            call(a)
        traced_s = time.perf_counter() - t0
        for a in extra:
            call(a)
    finally:
        tracer.uninstall()
    return tracer, main_s, traced_s


# --- seeded samples of program outputs on sweep inputs ---------------------------


def _digits(rng, p, n, lo, hi):
    return {i: rng.randrange(p ** n) for i in range(lo, hi)}


def _samples(kind, seed):
    """Program outputs on seeded inputs, as JSON records the parent checks."""
    from contracta import (CocycleSpec, ExtElem, HeisElem, Modulus, MultiplierSpec, chi_char, eta,
                           ext_mul, h_omega, heis_mul, lau_add, laurent, omega2, series_to_json,
                           tail_character_index, text_to_series)

    rng = random.Random(f"samples-{kind}-{seed}")
    J = series_to_json
    out = []
    if kind == "group-laws":
        for _ in range(100):
            # eta on a cocycle-laws window
            p = rng.choice([2, 3])
            S = sorted(rng.sample(range(1, 5), rng.randint(0, 4)))
            lo, hi = rng.choice([(0, 2), (-1, 2), (-1, 3)])
            x, y = (laurent(Modulus(p, 1), _digits(rng, p, 1, lo, hi)) for _ in range(2))
            out.append({"kind": "eta", "S": S, "x": J(x), "y": J(y), "out": J(eta(CocycleSpec(p, S), x, y))})
        for _ in range(60):
            # the cocycle identity on triples much wider than the sweeps' windows
            p = rng.choice([2, 3])
            S = sorted(rng.sample(range(1, 5), rng.randint(1, 4)))
            spec = CocycleSpec(p, S)
            x, y, z = (laurent(Modulus(p, 1), _digits(rng, p, 1, -8, 9)) for _ in range(3))
            xy, yz = lau_add(x, y), lau_add(y, z)
            out.append({"kind": "cocycle-triple", "S": S, "x": J(x), "y": J(y), "z": J(z),
                        "xy": J(xy), "yz": J(yz), "e_x_y": J(eta(spec, x, y)), "e_xy_z": J(eta(spec, xy, z)),
                        "e_x_yz": J(eta(spec, x, yz)), "e_y_z": J(eta(spec, y, z))})
        for _ in range(100):
            # ext_mul on the extension-group windows
            p = rng.choice([2, 3])
            S = sorted(rng.sample([1, 2], rng.randint(1, 2)))
            (wl, wh), (xl, xh) = ((-1, 2), (-1, 2)) if p == 2 else ((0, 1), (-1, 2))
            mod = Modulus(p, 1)
            a, b = (ExtElem(CocycleSpec(p, S), laurent(mod, _digits(rng, p, 1, wl, wh)),
                            laurent(mod, _digits(rng, p, 1, xl, xh))) for _ in range(2))
            c = ext_mul(a, b)
            out.append({"kind": "ext_mul", "S": S, "a": [J(a.w), J(a.x)], "b": [J(b.w), J(b.x)],
                        "out": [J(c.w), J(c.x)]})
        for _ in range(100):
            # heis_mul on the heisenberg windows
            p = rng.choice([2, 3])
            mod = Modulus(p, 1)
            g, h = (HeisElem(1, (laurent(mod, _digits(rng, p, 1, 0, 2)),), (laurent(mod, _digits(rng, p, 1, 0, 2)),),
                             laurent(mod, _digits(rng, p, 1, 0, 3))) for _ in range(2))
            gh = heis_mul(g, h)
            out.append({"kind": "heis_mul", "g": [J(g.xi[0]), J(g.upsilon[0]), J(g.z)],
                        "h": [J(h.xi[0]), J(h.upsilon[0]), J(h.z)], "out": [J(gh.xi[0]), J(gh.upsilon[0]), J(gh.z)]})
    else:
        for _ in range(150):
            # chi_char on the duality-iso windows
            p, n = rng.choice([(2, 1), (3, 1), (2, 2), (3, 2)])
            y, x = (laurent(Modulus(p, n), _digits(rng, p, n, -2, 2)) for _ in range(2))
            v = chi_char(y, x)
            out.append({"kind": "chi", "y": J(y), "x": J(x), "num": v.num, "exp": v.exp})
        specs = [("1*t^-1 @ p=2^1", [1]), ("per[1]*t^{>=1} @ p=2^1", [1]),
                 ("per[1]*t^{>=1} @ p=2^1", [1, 3]), ("2*t^-1 @ p=3^1", [1, 2])]
        for _ in range(150):
            # omega2 on the multiplier-axioms windows and specs
            z_text, S = rng.choice(specs)
            z = text_to_series(z_text)
            p = z.modulus.p
            x, y = (laurent(Modulus(p, 1), _digits(rng, p, 1, -1, 3)) for _ in range(2))
            v = omega2(MultiplierSpec(CocycleSpec(p, S), z), x, y)
            out.append({"kind": "omega2", "S": S, "z": J(z), "x": J(x), "y": J(y), "num": v.num, "exp": v.exp})
        for _ in range(100):
            # h_omega on the s-omega-prop57 windows and grid
            p, k0 = rng.choice([2, 3]), rng.choice([1, 2])
            S = rng.choice([[1], [2], [1, 2], [1, 3]])
            z = tail_character_index(p, k0)
            x = laurent(Modulus(p, 1), _digits(rng, p, 1, -2, 3))
            out.append({"kind": "h_omega", "S": S, "z": J(z), "x": J(x),
                        "out": J(h_omega(MultiplierSpec(CocycleSpec(p, S), z), x))})
    return out


def main():
    _check_origin()
    cfg = json.loads(sys.argv[2]) if len(sys.argv) > 2 else {}
    if MODE in ("setup", "setup-cli"):
        result = {}
    elif MODE == "samples":
        result = {"samples": _samples(cfg["workload"], cfg["seed"])}
    elif MODE == "replay":
        tracer, main_s, traced_s = _replay(cfg["argvs"], cfg["extra"])
        result = {"main_s": main_s, "traced_s": traced_s, "layers": tracer.metrics(), "spans": tracer.spans}
    else:
        sys.exit(f"unknown mode {MODE!r}")
    result["import_done"] = IMPORT_DONE
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
