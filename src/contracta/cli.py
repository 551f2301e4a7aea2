"""Command-line front end.

Every invocation prints a report envelope

    {"command": [...], "timing": null, "results": ..., "schema_version": "1"}

as JSON (indented by default, canonical one-line form with --json, or into a
file with --out).  Wall-clock timing goes to stderr only, so reports are
byte-identical across runs.  Exit codes: 0 all assertions
pass, 1 an assertion failed, 2 usage or input error.
"""

import argparse
import json
import sys
import time

from .errors import ContractaError, InvalidParams, IoError, SchemaError

# The package loads `laurent` in any case; every other layer module is
# imported by the handler that calls it, so a command loads only what it runs.
from .laurent import (
    lau_add,
    lau_monomial,
    lau_mul,
    lau_scale,
    lau_shift,
    lau_sub,
    lau_zero,
    series_to_json,
    series_to_text,
    text_to_series,
)

SCHEMA_VERSION = "1"

# `suites.suite_names()`, spelled out so that building the parser (and the
# `verify` help text) does not load every layer module
SUITE_NAMES = (
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
)


def spec_from_obj(obj):
    if not isinstance(obj, dict):
        raise SchemaError("spec must be a JSON object")
    if "blocks" in obj:
        from .duality import block_spec_from_json

        return block_spec_from_json(obj)
    if "cocycle" in obj and "z" in obj:
        from .multipliers import multiplier_from_json

        return multiplier_from_json(obj)
    if "support" in obj:
        from .cocycles import cocycle_from_json

        return cocycle_from_json(obj)
    if "xi" in obj:
        from .heisenberg import heis_from_json

        return heis_from_json(obj)
    raise SchemaError("unrecognized spec shape: expected blocks, cocycle+z, support, or xi keys")


def _json_arg(value):
    """The JSON value given inline (text starting with "{") or in the file value names."""
    try:
        if not value.lstrip().startswith("{"):
            with open(value, "r", encoding="utf-8") as fh:
                value = fh.read()
        return json.loads(value)
    except OSError as exc:
        raise IoError(str(exc)) from None
    except ValueError as exc:  # UnicodeDecodeError included
        raise SchemaError(f"not valid JSON: {exc}") from None


def _spec_arg(value):
    return spec_from_obj(_json_arg(value))


def _multiplier_arg(value):
    spec = _spec_arg(value)
    from .multipliers import MultiplierSpec

    if not isinstance(spec, MultiplierSpec):
        raise InvalidParams("the spec must describe a multiplier (cocycle + z)")
    return spec


def _heis_arg(value):
    spec = _spec_arg(value)
    from .heisenberg import HeisElem

    if not isinstance(spec, HeisElem):
        raise InvalidParams("expected a group element (n, p, xi, upsilon, z)")
    return spec


def _series_result(x):
    return {"text": series_to_text(x), "json": series_to_json(x)}


def _torus_result(value):
    return {"value": value.as_text(), "num": value.num, "p_power": value.exp}


def _valuation_field(x):
    return "inf" if x.is_zero() else int(x.valuation)


def _window_arg(pair, flag):
    lo, hi = pair
    if lo >= hi:
        raise InvalidParams(f"{flag} must satisfy LO < HI, got {lo} {hi}")
    return lo, hi


def _cocycle_from_args(args):
    from .cocycles import CocycleSpec

    if args.prefix is not None:
        return CocycleSpec.from_prefix(args.p, args.prefix)
    if args.support is None:
        raise InvalidParams("either --support or --prefix is required")
    try:
        support = tuple(int(v) for v in args.support.split(",") if v != "")
    except ValueError:
        raise InvalidParams("--support must be a comma-separated list of integers") from None
    return CocycleSpec(args.p, support)


# --- handlers -------------------------------------------------------------------


def _cmd_eval(args):
    x = text_to_series(args.series)
    ops = [name for name in ("add", "sub", "mul") if getattr(args, name) is not None]
    ops += [name for name in ("shift", "scale") if getattr(args, name) is not None]
    if len(ops) > 1:
        raise InvalidParams("at most one operation per eval call")
    result = x
    if args.add is not None:
        result = lau_add(x, text_to_series(args.add))
    elif args.sub is not None:
        result = lau_sub(x, text_to_series(args.sub))
    elif args.mul is not None:
        result = lau_mul(x, text_to_series(args.mul))
    elif args.shift is not None:
        result = lau_shift(x, args.shift)
    elif args.scale is not None:
        result = lau_scale(x, args.scale)
    return {
        "input": series_to_text(x),
        "result": _series_result(result),
        "valuation": _valuation_field(result),
    }, True


def _cmd_char(args):
    from .duality import chi_char, dual_action_T

    y = text_to_series(args.index)
    x = text_to_series(args.argument)
    if args.dual_shift:
        y = dual_action_T(args.dual_shift, y)
    return {
        "index": series_to_text(y),
        "argument": series_to_text(x),
        "pairing": _torus_result(chi_char(y, x)),
    }, True


def _cmd_cocycle(args):
    from .cocycles import check_cocycle_laws, cocycle_to_json, eta, theta

    spec = _cocycle_from_args(args)
    if args.laws is not None:
        lo, hi = _window_arg(args.laws, "--laws")
        report = check_cocycle_laws(spec, lo, hi)
        return report, bool(report["pass"])
    if args.x is None or args.y is None:
        raise InvalidParams("series arguments X and Y are required unless --laws is given")
    x = text_to_series(args.x)
    y = text_to_series(args.y)
    if args.theta is not None:
        value = theta(args.theta, x, y)
        label = {"theta_shift": args.theta}
    else:
        value = eta(spec, x, y)
        label = {"cocycle": cocycle_to_json(spec)}
    out = dict(label)
    out.update({"x": series_to_text(x), "y": series_to_text(y), "result": _series_result(value)})
    return out, True


def _cmd_ext(args):
    from .extensions import ext_alpha, ext_commutator, ext_from_json, ext_inv, ext_mul, ext_to_json

    elems = [ext_from_json(_json_arg(v)) for v in args.elements]
    op = args.op
    if op == "mul":
        if len(elems) != 2:
            raise InvalidParams("mul takes exactly two elements")
        result = ext_mul(*elems)
    elif op == "inv":
        if len(elems) != 1:
            raise InvalidParams("inv takes exactly one element")
        result = ext_inv(elems[0])
    elif op == "commutator":
        if len(elems) != 2:
            raise InvalidParams("commutator takes exactly two elements")
        result = ext_commutator(*elems)
    else:  # alpha
        if len(elems) != 1:
            raise InvalidParams("alpha takes exactly one element")
        result = ext_alpha(elems[0], args.k)
    return {"op": op, "result": ext_to_json(result), "text": result.as_text()}, True


def _cmd_commutator(args):
    from .extensions import (
        ExtElem,
        derived_witness,
        ext_commutator,
        ext_elem,
        predicted_monomial_commutator,
    )

    spec = _cocycle_from_args(args)
    mod = spec.modulus
    if args.witness is not None:
        g, h = derived_witness(spec, args.witness)
        got = ext_commutator(g, h)
        want = ExtElem(spec, lau_monomial(mod, args.witness, 1), lau_zero(mod))
        ok = got == want
        return {
            "g": g.as_text(),
            "h": h.as_text(),
            "commutator": got.as_text(),
            "expected": want.as_text(),
            "match": ok,
        }, ok
    g = ext_elem(spec, {}, {args.n: 1})
    h = ext_elem(spec, {}, {args.n + 2 * args.k: 1})
    got = ext_commutator(g, h)
    want = predicted_monomial_commutator(spec, args.n, args.k)
    ok = got == want
    return {
        "n": args.n,
        "k": args.k,
        "g": g.as_text(),
        "h": h.as_text(),
        "commutator": got.as_text(),
        "predicted": want.as_text(),
        "match": ok,
    }, ok


def _cmd_multiplier(args):
    from .multipliers import (
        check_multiplier_axioms,
        mackey_identity_check,
        multiplier_to_json,
        omega,
        omega2,
        omega2_closed_form,
    )

    m = _multiplier_arg(args.spec)
    if args.axioms is not None:
        lo, hi = _window_arg(args.axioms, "--axioms")
        report = check_multiplier_axioms(m, lo, hi)
        return report, bool(report["pass"])
    if args.mackey is not None:
        lo, hi = _window_arg(args.mackey, "--mackey")
        report = mackey_identity_check(m, lo, hi)
        return report, bool(report["pass"])
    if args.x is None or args.y is None:
        raise InvalidParams("series arguments X and Y are required unless --axioms/--mackey is given")
    x = text_to_series(args.x)
    y = text_to_series(args.y)
    value2 = omega2(m, x, y)
    closed = omega2_closed_form(m, x, y)
    ok = value2 == closed
    return {
        "multiplier": multiplier_to_json(m),
        "x": series_to_text(x),
        "y": series_to_text(y),
        "omega": _torus_result(omega(m, x, y)),
        "omega2": _torus_result(value2),
        "omega2_closed_form": _torus_result(closed),
        "paths_agree": ok,
    }, ok


def _cmd_s_omega(args):
    from .multipliers import h_omega, in_s_omega, multiplier_to_json, s_omega_window
    from .sweep import window_elements

    m = _multiplier_arg(args.spec)
    if args.window is not None:
        lo, hi = _window_arg(args.window, "--window")
        if args.witness_window is not None:
            wlo, whi = _window_arg(args.witness_window, "--witness-window")
        else:
            wlo, whi = lo - 2 * m.s.max_shift, hi
        members = s_omega_window(m, (lo, hi), (wlo, whi))
        ordered = [series_to_text(x) for x in window_elements(m.s.modulus, lo, hi) if x in members]
        return {
            "multiplier": multiplier_to_json(m),
            "window": [lo, hi],
            "witness_window": [wlo, whi],
            "members": ordered,
        }, True
    if args.x is None:
        raise InvalidParams("a series argument X or a --window is required")
    x = text_to_series(args.x)
    image = h_omega(m, x)
    return {
        "multiplier": multiplier_to_json(m),
        "x": series_to_text(x),
        "member": in_s_omega(m, x),
        "h_image": series_to_text(image),
    }, True


def _cmd_verdict(args):
    from .multipliers import type_i_verdict

    m = _multiplier_arg(args.spec)
    report = type_i_verdict(m, args.depth)
    return report.to_json(), True


def _cmd_heis(args):
    from .heisenberg import heis_char, heis_dual_action, heis_inv, heis_mul, heis_to_json, n_slice

    arity = 1 if args.op == "inv" else 2
    if len(args.elements) != arity:
        raise InvalidParams(f"{args.op} takes exactly {arity} element(s)")
    elems = [_heis_arg(v) for v in args.elements]
    if args.op == "mul":
        return {"op": "mul", "result": heis_to_json(heis_mul(*elems))}, True
    if args.op == "inv":
        return {"op": "inv", "result": heis_to_json(heis_inv(elems[0]))}, True
    if args.op == "char":
        value = heis_char(n_slice(elems[0]), n_slice(elems[1]))
        return {"op": "char", "value": _torus_result(value)}, True
    # dual: the first element supplies xi, the second the index (upsilon, z)
    ups, z = heis_dual_action(elems[0].xi, n_slice(elems[1]))
    return {
        "op": "dual",
        "upsilon": [series_to_text(c) for c in ups],
        "z": series_to_text(z),
    }, True


def _cmd_orbit(args):
    from .heisenberg import n_slice, orbit_description

    idx_elem = _heis_arg(args.index)
    query_elem = _heis_arg(args.query)
    desc = orbit_description(n_slice(idx_elem))
    status, xi = desc.membership(n_slice(query_elem), bound=args.bound)
    return {
        "kind": desc.kind,
        "status": status,
        "xi": None if xi is None else [series_to_text(c) for c in xi],
    }, True


def _cmd_verify(args):
    from .suites import run_suite

    params = None
    if args.params is not None:
        try:
            params = json.loads(args.params)
        except ValueError as exc:
            raise InvalidParams(f"--params is not valid JSON: {exc}") from None
    report = run_suite(args.suite, params)
    return report, bool(report["pass"])


# --- wiring ---------------------------------------------------------------------


def _window_pair(parser, flag, help_text):
    parser.add_argument(flag, nargs=2, type=int, metavar=("LO", "HI"), default=None, help=help_text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="contracta",
        description="exact arithmetic for characters, cocycles and multipliers "
                    "of contraction groups over Laurent series",
    )
    parser.add_argument("--json", action="store_true", help="canonical one-line JSON output")
    parser.add_argument("--out", metavar="FILE", default=None, help="write the report to FILE")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="parse a series literal; optionally apply one operation")
    p.add_argument("series")
    p.add_argument("--add", metavar="SERIES")
    p.add_argument("--sub", metavar="SERIES")
    p.add_argument("--mul", metavar="SERIES")
    p.add_argument("--shift", type=int, metavar="K")
    p.add_argument("--scale", type=int, metavar="C")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("char", help="evaluate the character pairing chi_Y(X)")
    p.add_argument("index", help="series literal Y indexing the character")
    p.add_argument("argument", help="series literal X")
    p.add_argument("--dual-shift", type=int, default=0, metavar="K",
                   help="replace Y by the k-th dual shift first")
    p.set_defaults(handler=_cmd_char)

    p = sub.add_parser("cocycle", help="evaluate eta/theta or sweep the cocycle laws")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--support", metavar="N1,N2,...")
    p.add_argument("--prefix", metavar="BITS", help="indicator word defining the support")
    p.add_argument("--theta", type=int, metavar="N", help="evaluate a single theta term instead")
    _window_pair(p, "--laws", "exhaustively check the cocycle laws on W(LO, HI)")
    p.add_argument("x", nargs="?")
    p.add_argument("y", nargs="?")
    p.set_defaults(handler=_cmd_cocycle)

    p = sub.add_parser("ext", help="extension-group arithmetic on JSON elements")
    p.add_argument("op", choices=["mul", "inv", "commutator", "alpha"])
    p.add_argument("elements", nargs="+", help="inline JSON or file paths")
    p.add_argument("--k", type=int, default=1, help="shift amount for alpha")
    p.set_defaults(handler=_cmd_ext)

    p = sub.add_parser("commutator", help="compare a monomial commutator against the closed form")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--support", metavar="N1,N2,...")
    p.add_argument("--prefix", metavar="BITS")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--witness", type=int, metavar="J",
                   help="round-trip the derived witness pair for t^J instead")
    p.set_defaults(handler=_cmd_commutator)

    p = sub.add_parser("multiplier", help="evaluate omega/omega2 or sweep the multiplier laws")
    p.add_argument("--spec", required=True, help="inline JSON or path: {cocycle, z}")
    _window_pair(p, "--axioms", "check (M1)/(M2) on W(LO, HI)")
    _window_pair(p, "--mackey", "check the obstruction identity on W(LO, HI)")
    p.add_argument("x", nargs="?")
    p.add_argument("y", nargs="?")
    p.set_defaults(handler=_cmd_multiplier)

    p = sub.add_parser("s-omega", help="radical membership, pointwise or over a window")
    p.add_argument("--spec", required=True)
    _window_pair(p, "--window", "list members within W(LO, HI)")
    _window_pair(p, "--witness-window", "witness window (defaults to 2*max S below)")
    p.add_argument("x", nargs="?")
    p.set_defaults(handler=_cmd_s_omega)

    p = sub.add_parser("verdict", help="search for independent non-type-I witnesses")
    p.add_argument("--spec", required=True)
    p.add_argument("--depth", type=int, default=12)
    p.set_defaults(handler=_cmd_verdict)

    p = sub.add_parser("heis", help="Heisenberg group operations on JSON elements")
    p.add_argument("op", choices=["mul", "inv", "char", "dual"])
    p.add_argument("elements", nargs="+", help="inline JSON or file paths")
    p.set_defaults(handler=_cmd_heis)

    p = sub.add_parser("orbit", help="describe a dual orbit and decide membership")
    p.add_argument("index", help="group element whose (upsilon, z) indexes the orbit")
    p.add_argument("query", help="group element whose (upsilon, z) is tested")
    p.add_argument("--bound", type=int, default=256)
    p.set_defaults(handler=_cmd_orbit)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", help="one of: " + ", ".join(SUITE_NAMES))
    p.add_argument("--params", metavar="JSON", default=None)
    p.set_defaults(handler=_cmd_verify)
    return parser


def _emit(args, command, results, ok):
    report = {
        "command": command,
        "timing": None,
        "results": results,
        "schema_version": SCHEMA_VERSION,
    }
    if args.out:
        text = json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise IoError(str(exc)) from None
    elif args.json:
        sys.stdout.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if ok else 1


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        results, ok = args.handler(args)
        code = _emit(args, list(argv), results, ok)
    except ContractaError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
