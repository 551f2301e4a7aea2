"""Named verification sweeps: every module invariant, runnable by name.

Each suite exhaustively (or, where the window is too large, in a staged
grounded-plus-sampled fashion) checks one family of identities and returns a
JSON-ready report.  Reports are deterministic: fixed seeds, ordered merges,
no set iteration.
"""

from itertools import combinations

from .cocycles import CocycleSpec, check_cocycle_laws, cocycle_from_json, eta
from .duality import (
    BlockElem,
    BlockSpec,
    EBlock,
    TBlock,
    chi_exponent,
    contraction_time,
    contraction_time_brute,
    dual_action_T,
    nonclosed_orbit_witness,
    stabilizer_is_trivial,
)
from .errors import ContractaError, InvalidParams, UnknownSuite
from .extensions import (
    ExtElem,
    derived_witness,
    ext_alpha,
    ext_commutator,
    ext_elem,
    ext_from_json,
    ext_inv,
    ext_mul,
    ext_mul_coeffs,
    ext_to_json,
    predicted_monomial_commutator,
)
from .heisenberg import (
    HeisElem,
    heis_char_exponent,
    heis_dual_action,
    heis_from_json,
    heis_inv,
    heis_mul,
    heis_mul_coeffs,
    heis_to_json,
    n_slice,
    orbit_description,
)
from .laurent import (
    lau_add,
    lau_monomial,
    lau_mul,
    lau_scale,
    lau_shift,
    lau_sub,
    lau_zero,
    laurent,
    series_from_json,
    series_to_json,
    series_to_text,
    text_to_series,
)
from .multipliers import (
    MultiplierSpec,
    check_multiplier_axioms,
    in_s_omega,
    mackey_identity_check,
    omega2,
    omega2_closed_form,
    omega2_exponent,
    s_omega_window,
    tail_character_index,
    type_i_verdict,
)
from .padic import (
    companion_matrix,
    contractivity_certificate,
    dual_companion,
    min_entry_valuation,
    padd,
    padic,
    pmul,
    pneg,
    poly,
)
from .scalars import Modulus, gf_rank, torus_from_fraction, torus_inv
from .sweep import (
    add_mod,
    add_table,
    check_suite_work,
    check_work,
    closure_table,
    coeffs_window_id,
    first_nonassociative,
    parallel_map,
    window_digits,
    window_elements,
    window_size,
)

SEED = 20260825


def _merge(defaults, params):
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise InvalidParams("params must be a JSON object")
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise InvalidParams(f"unknown parameter(s): {', '.join(unknown)}")
    out = dict(defaults)
    out.update(params)
    return out


def _int(params, key):
    """params[key] as an integer, accepting what int() accepts."""
    try:
        return int(params[key])
    except (TypeError, ValueError, OverflowError):
        raise InvalidParams(f"{key} must be an integer, got {params[key]!r}") from None


def _count(params, key):
    """params[key] as an integer, refusing a negative one."""
    value = _int(params, key)
    if value < 0:
        raise InvalidParams(f"{key} must be >= 0, got {value}")
    return value


def _list(params, key):
    """params[key], refusing anything but a list."""
    value = params[key]
    if not isinstance(value, list):
        raise InvalidParams(f"{key} must be a list, got {value!r}")
    return value


def _primes(params):
    """params["primes"] as a list of integers, accepting what int() accepts."""
    value = _list(params, "primes")
    try:
        return [int(p) for p in value]
    except (TypeError, ValueError, OverflowError):
        raise InvalidParams(f"primes must be a list of integers, got {value!r}") from None


def _supports(params, work_per_support, check):
    """Every subset of 1..max_support, by size and then lexicographically.

    Refuses a negative max_support, and hands check(evaluations) the work of
    2^max_support supports at work_per_support each before enumerating."""
    top = _count(params, "max_support")
    # listing the supports is work even with no jobs; min() keeps the estimate
    # cheap to form, and 2^64 supports exceed the limit anyway
    check((1 << min(top, 64)) * max(1, work_per_support))
    supports = []
    for r in range(top + 1):
        supports.extend(combinations(range(1, top + 1), r))
    return supports


def _window(value, name="window"):
    try:
        lo, hi = int(value[0]), int(value[1])
    except (TypeError, ValueError, OverflowError, IndexError):
        raise InvalidParams(f"{name} must be a pair of integers") from None
    if lo >= hi:
        raise InvalidParams(f"{name} must satisfy lo < hi, got [{lo}, {hi}]")
    return lo, hi


def _moduli(value, name):
    """The moduli of a list of [p, n] pairs."""
    try:
        pairs = [(int(p), int(n)) for p, n in value]
    except (TypeError, ValueError, OverflowError):
        raise InvalidParams(f"{name} must be a list of [p, n] integer pairs") from None
    return [Modulus(p, n) for p, n in pairs]


def _check(name, config, checked, cx=None):
    return {
        "name": name,
        "config": config,
        "checked": checked,
        "status": "pass" if cx is None else "fail",
        "counterexample": cx,
    }


def _finish(name, params, checks):
    failures = sum(1 for c in checks if c["status"] != "pass")
    return {
        "suite": name,
        "params": params,
        "checks": checks,
        "failures": failures,
        "pass": failures == 0,
    }


# --- duality-iso --------------------------------------------------------------

_DUALITY_DEFAULTS = {
    "window": [-2, 2],
    "configs": [[2, 1], [3, 1], [2, 2], [3, 2]],
    "table_limit": 300,
    "samples": 30000,
}


def _suite_duality_iso(params):
    params = _merge(_DUALITY_DEFAULTS, params)
    lo, hi = _window(params["window"])
    if lo != -hi:
        raise InvalidParams(f"window must be symmetric about 0, got [{lo}, {hi}]")
    table_limit = _int(params, "table_limit")
    checks = []
    for mod in _moduli(params["configs"], "configs"):
        card = mod.card
        size = window_size(card, lo, hi)
        # a few calls per window element, chi on every pair of the exhaustive
        # window with one sum per triple, and three characters per sample
        check_work("duality-iso window", size, 0)
        full = size if size <= table_limit else window_size(card, -1, 1)
        check_work("duality-iso additivity", full ** 2, full ** 3)
        if size > table_limit:
            n_samples = _count(params, "samples")
            check_work("duality-iso sampled additivity", 3 * n_samples, 0)
        elems = window_elements(mod, lo, hi)
        cfg = {"p": mod.p, "n": mod.n, "window": [lo, hi], "elements": size}

        cx = None
        for x in elems:
            if text_to_series(series_to_text(x)) != x or series_from_json(series_to_json(x)) != x:
                cx = {"x": series_to_text(x)}
                break
        checks.append(_check("canonical-round-trip", cfg, size, cx))

        if size <= table_limit:
            checks.append(_check("additivity-exhaustive", cfg, size ** 3,
                                 _additivity_full(mod, elems, lo, hi)))
        else:
            sub_lo, sub_hi = -1, 1
            sub = window_elements(mod, sub_lo, sub_hi)
            sub_cfg = dict(cfg, window=[sub_lo, sub_hi], elements=len(sub))
            checks.append(_check("additivity-exhaustive", sub_cfg, len(sub) ** 3,
                                 _additivity_full(mod, sub, sub_lo, sub_hi)))
            checks.append(_check("additivity-sampled", cfg, n_samples,
                                 _additivity_sampled(mod, elems, lo, hi, n_samples)))

        cx = None
        for y in elems:
            if y.is_zero():
                continue
            probe = lau_monomial(mod, -int(y.valuation), 1)
            if chi_exponent(y, probe) == 0:
                cx = {"y": series_to_text(y), "x": series_to_text(probe)}
                break
        checks.append(_check("separates-points", cfg, size - 1, cx))

        # the monomial pairing matrix on the inclusive symmetric window is
        # anti-diagonal; full rank mod p lifts to invertibility mod p^n
        span = list(range(lo, hi + 1))
        rows = []
        for a in span:
            xa = lau_monomial(mod, a, 1)
            rows.append([chi_exponent(lau_monomial(mod, b, 1), xa) % mod.p for b in span])
        rank = gf_rank(rows, mod.p)
        cx = None if rank == len(span) else {"rank": rank, "expected": len(span)}
        checks.append(_check("pairing-matrix-rank", dict(cfg, span=[lo, hi + 1]), len(span) ** 2, cx))
    return _finish("duality-iso", params, checks)


def _additivity_full(mod, elems, lo, hi):
    """chi_{y+z}(x) = chi_y(x) chi_z(x) over every (x, y, z); the table holds
    one chi_exponent call per pair."""
    import numpy as np

    size = len(elems)
    table = np.zeros((size, size), dtype=np.uint8)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            table[i, j] = chi_exponent(y, x)
    digits, powers = window_digits(mod.card, lo, hi)
    add_id = add_table(digits, powers, mod.card)
    # one x row at a time, so only size^2 entries are live; rows in order
    # keep the first counterexample in C order over (x, y, z)
    rhs = np.empty((size, size), dtype=np.uint8)
    for i, row in enumerate(table):
        bad = row[add_id] != add_mod(row[:, None], row[None, :], mod.card, rhs)
        if bad.any():
            j, k = (int(v) for v in np.argwhere(bad)[0])
            return {
                "x": series_to_text(elems[i]),
                "y": series_to_text(elems[j]),
                "z": series_to_text(elems[k]),
            }
    return None


def _additivity_sampled(mod, elems, lo, hi, n_samples):
    """Seeded random triples of the window elements elems, checked with direct
    character evaluations."""
    import numpy as np

    rng = np.random.default_rng(SEED)
    _, powers = window_digits(mod.card, lo, hi)
    # a row of drawn digits is the window element whose id is digits @ powers
    ids = rng.integers(0, mod.card, size=(n_samples, 3, hi - lo)) @ powers
    for i, j, k in ids:
        x, y, z = elems[i], elems[j], elems[k]
        lhs = chi_exponent(lau_add(y, z), x)
        if lhs != (chi_exponent(y, x) + chi_exponent(z, x)) % mod.card:
            return {"x": series_to_text(x), "y": series_to_text(y), "z": series_to_text(z)}
    return None


# --- dual-action --------------------------------------------------------------

_DUAL_ACTION_DEFAULTS = {
    "t_configs": [[2, 1], [3, 1], [2, 2]],
    "window": [-2, 2],
    "shift_range": [-2, 2],
    "samples": 200,
    "sample_configs": [[2, 1], [3, 1], [2, 2], [3, 2]],
    "primes": [2, 3, 5],
    "iterations": 20,
}


def _suite_dual_action(params):
    params = _merge(_DUAL_ACTION_DEFAULTS, params)
    lo, hi = _window(params["window"])
    k_lo, k_hi = _window(params["shift_range"], "shift_range")
    samples = _count(params, "samples")
    iters = _count(params, "iterations")
    primes = sorted(_primes(params))
    sample_moduli = _moduli(params["sample_configs"], "sample_configs")
    if not sample_moduli:
        raise InvalidParams("sample_configs must be nonempty")
    per = samples // len(sample_moduli)
    # one brute-force contraction time per sample, which tries every
    # coefficient of its modulus, and ten iterated companion matvec chains
    # per prime
    check_work("dual-action contraction samples", per * sum(mod.card for mod in sample_moduli), 0)
    check_work("dual-action iterates", 10 * iters * len(primes), 0)
    checks = []

    for mod in _moduli(params["t_configs"], "t_configs"):
        # keep n = 2 windows small enough for an all-pairs direct sweep
        c_lo, c_hi = (lo, hi) if mod.n == 1 else (max(lo, -1), hi)
        size = window_size(mod.card, c_lo, c_hi)
        check_work("dual-action shift identity", 2 * (k_hi - k_lo + 1) * size ** 2, 0)
        elems = window_elements(mod, c_lo, c_hi)
        cfg = {"p": mod.p, "n": mod.n, "window": [c_lo, c_hi], "shifts": [k_lo, k_hi]}
        cx = None
        count = 0
        for k in range(k_lo, k_hi + 1):
            # t^k x depends on (k, x) alone, so each x is shifted once per k
            shifted = [lau_shift(x, k) for x in elems]
            for y in elems:
                yk = dual_action_T(k, y)
                for x, xk in zip(elems, shifted):
                    count += 1
                    if chi_exponent(yk, x) != chi_exponent(y, xk):
                        cx = {"k": k, "y": series_to_text(y), "x": series_to_text(x)}
                        break
                if cx:
                    break
            if cx:
                break
        checks.append(_check("shift-dual-identity", cfg, count, cx))

    checks.append(_contraction_sample_check(sample_moduli, per))
    checks.extend(_transpose_formula_checks(primes, iters))
    checks.append(_stabilizer_check())
    checks.append(_nonclosed_orbit_check())
    return _finish("dual-action", params, checks)


def _contraction_sample_check(moduli, per):
    import numpy as np

    rng = np.random.default_rng(SEED + 1)
    jobs = []
    for mod in moduli:
        draws = rng.integers(0, mod.card, size=(per, 6))
        ks = rng.integers(-4, 5, size=per)
        for row, k in zip(draws, ks):
            coeffs = {-3 + i: int(c) for i, c in enumerate(row)}
            if not any(coeffs.values()):
                coeffs[0] = 1  # the zero index is excluded
            jobs.append((laurent(mod, coeffs), int(k)))

    def run(job):
        y, k = job
        closed = contraction_time(y, k)
        brute = contraction_time_brute(y, k)
        if closed != brute:
            return {"y": series_to_text(y), "k": k, "closed": closed, "brute": brute}
        return None

    results = parallel_map(run, jobs)
    cx = next((r for r in results if r is not None), None)
    return _check("contraction-time-brute", {"samples": len(jobs)}, len(jobs), cx)


def _transpose_formula_checks(primes, iters):
    entry_cx = formula_cx = contract_cx = cert_cx = None
    entries = formulas = contracts = certs = 0
    for p in primes:
        for coeffs in [(-p,), (-p, 0), (p, p)]:
            g = poly(p, coeffs)
            mat = companion_matrix(g)
            dual = dual_companion(g)
            m = g.m
            for i in range(m):
                for j in range(m):
                    entries += 1
                    if dual.rows[i][j] != mat.rows[j][i]:
                        entry_cx = entry_cx or {"p": p, "coeffs": list(coeffs), "i": i, "j": j}

            vecs = [tuple(padic(p, 1 if r == i else 0) for r in range(m)) for i in range(m)]
            vecs.append(tuple(padic(p, r + 1) for r in range(m)))
            vecs.append(tuple(padic(p, (p + 1) ** (r + 1)) for r in range(m)))
            for v in vecs:
                # the dual action is the left shift with a feedback last slot
                acc = padic(p, 0)
                for a, c in zip(g.coeffs, v):
                    acc = padd(acc, pmul(a, c))
                expected = tuple(v[1:]) + (pneg(acc),)
                formulas += 1
                if dual.matvec(v) != expected:
                    formula_cx = formula_cx or {"p": p, "coeffs": list(coeffs), "v": [c.frac for c in v]}

            certs += 1
            if not contractivity_certificate(g):
                cert_cx = cert_cx or {"p": p, "coeffs": list(coeffs)}
            for matrix in (mat, dual):
                for v in vecs[:m]:
                    vals = [min_entry_valuation(v)]
                    w = v
                    for _ in range(iters):
                        w = matrix.matvec(w)
                        vals.append(min_entry_valuation(w))
                    contracts += 1
                    ok = all(vals[k + 2] >= vals[k] + 1 for k in range(iters - 1))
                    if not ok or vals[iters] < iters // 2:
                        contract_cx = contract_cx or {"p": p, "coeffs": list(coeffs), "vals": vals}
        certs += 1
        if contractivity_certificate(poly(p, (-1,))):
            cert_cx = cert_cx or {"p": p, "coeffs": [-1], "expected": False}
    return [
        _check("dual-matrix-is-transpose", {"primes": primes}, entries, entry_cx),
        _check("dual-shift-formula", {"primes": primes}, formulas, formula_cx),
        _check("iterates-contract", {"iterations": iters}, contracts, contract_cx),
        _check("contractivity-certificate", {}, certs, cert_cx),
    ]


def _stabilizer_check():
    cases = []
    for p in (2, 3):
        mod = Modulus(p, 1)
        cases.append(laurent(mod, {0: 1, 1: 1}))
        cases.append(laurent(mod, {-2: 1}))
        cases.append(laurent(mod, {}, tail=(1, (1,))))
    cx = None
    for y in cases:
        if not stabilizer_is_trivial(y, 8):
            cx = {"y": series_to_text(y)}
            break
    return _check("shift-stabilizer-trivial", {"depth": 8}, len(cases), cx)


def _nonclosed_orbit_check():
    g = poly(2, (-2, 0))
    spec = BlockSpec((TBlock(2, 1, 1), EBlock(2, g, 1)))
    mod = Modulus(2, 1)
    x = BlockElem(spec, ((lau_monomial(mod, 0, 1),), ((padic(2, 1), padic(2, 0)),)))
    k = 3
    try:
        n = nonclosed_orbit_witness(spec, x, k, 32)
    except ContractaError as exc:
        return _check("nonclosed-orbit-witness", {"k": k}, 1, {"error": str(exc)})
    # re-derive the iterate independently and confirm the defining property
    t_coord = lau_shift(x.coords[0][0], n)
    mat = dual_companion(g)
    vec = x.coords[1][0]
    for _ in range(n):
        vec = mat.matvec(vec)
    inside = t_coord.valuation > k and min_entry_valuation(vec) >= k
    nonzero = not t_coord.is_zero() or any(not v.is_exact_zero() for v in vec)
    cx = None if (inside and nonzero) else {"n": n}
    return _check("nonclosed-orbit-witness", {"k": k, "witness": n}, 1, cx)


# --- cocycle-laws ---------------------------------------------------------------

_COCYCLE_DEFAULTS = {
    "primes": [2, 3],
    "max_support": 4,
    "windows": [[0, 2], [-1, 2], [-1, 3]],
}


def _suite_cocycle_laws(params):
    params = _merge(_COCYCLE_DEFAULTS, params)
    windows = [_window(w) for w in _list(params, "windows")]
    primes = _primes(params)
    # each job is a check_cocycle_laws sweep of two eta evaluations per pair
    per_support = sum(2 * window_size(p, lo, hi) ** 2 for p in primes for lo, hi in windows)
    supports = _supports(params, per_support, lambda n: check_suite_work("cocycle-laws", n))
    jobs = [(p, s, w) for p in primes for s in supports for w in windows]

    def run(job):
        p, support, (lo, hi) = job
        rep = check_cocycle_laws(CocycleSpec(p, support), lo, hi)
        cfg = {"p": p, "support": list(support), "window": [lo, hi]}
        cx = None
        if not rep["pass"]:
            cx = {"laws": [law for law in rep["laws"] if law["status"] != "pass"]}
        return _check("cocycle-laws", cfg, rep["pairs_checked"] + rep["triples_checked"], cx)

    checks = parallel_map(run, jobs)
    return _finish("cocycle-laws", params, checks)


# --- extension-group ------------------------------------------------------------

_EXT_DEFAULTS = {
    "configs": [
        {"p": 2, "support": [1]},
        {"p": 2, "support": [1, 2]},
        {"p": 3, "support": [1]},
        {"p": 3, "support": [1, 2]},
    ],
}


def _ext_windows(p):
    # eta lands in the scalar slot on these windows, so the table closes
    return ((-1, 2), (-1, 2)) if p == 2 else ((0, 1), (-1, 2))


def _suite_extension_group(params):
    import numpy as np

    params = _merge(_EXT_DEFAULTS, params)
    checks = []
    for entry in _list(params, "configs"):
        spec = _cocycle_from_params(entry)
        mod = spec.modulus
        (w_lo, w_hi), (x_lo, x_hi) = _ext_windows(spec.p)
        size = window_size(mod.card, w_lo, w_hi) * window_size(mod.card, x_lo, x_hi)
        check_work("extension-group", size ** 2, size ** 3)
        w_slots = window_elements(mod, w_lo, w_hi)
        x_slots = window_elements(mod, x_lo, x_hi)
        elems = [ExtElem(spec, w, x) for w in w_slots for x in x_slots]
        ids = {e: i for i, e in enumerate(elems)}
        cfg = {
            "p": spec.p,
            "support": list(spec.support),
            "w_window": [w_lo, w_hi],
            "x_window": [x_lo, x_hi],
            "elements": size,
        }
        n_x = len(x_slots)

        def product_id(a, b, shift=0):
            # the window id of ext_mul(a, b) over both windows moved up by
            # shift, read from the product's coefficient maps; the operands
            # are (shifted) window elements, so both slots are finite maps
            w, x = ext_mul_coeffs(a, b)
            i_w = coeffs_window_id(w, mod.card, w_lo + shift, w_hi + shift)
            i_x = coeffs_window_id(x, mod.card, x_lo + shift, x_hi + shift)
            return None if i_w is None or i_x is None else i_w * n_x + i_x

        mul, miss = closure_table(elems, product_id)
        closure_cx = None
        if miss:
            i, j = miss
            c = ext_mul(elems[i], elems[j])
            closure_cx = {"a": elems[i].as_text(), "b": elems[j].as_text(), "ab": c.as_text()}
        checks.append(_check("window-closure", cfg, size * size, closure_cx))
        if closure_cx:
            continue

        e_id = ids[ExtElem(spec, lau_zero(mod), lau_zero(mod))]
        order = np.arange(size)
        id_ok = (mul[e_id] == order).all() and (mul[:, e_id] == order).all()
        checks.append(_check("identity", cfg, 2 * size, None if id_ok else {"id": int(e_id)}))

        inv_cx = None
        for i, a in enumerate(elems):
            b = ext_inv(a)
            j = ids.get(b)
            if j is None or mul[i, j] != e_id or mul[j, i] != e_id:
                inv_cx = {"a": a.as_text(), "inv": b.as_text()}
                break
            if ext_inv(b) != a:
                inv_cx = {"a": a.as_text(), "double_inv": ext_inv(b).as_text()}
                break
        checks.append(_check("inverses", cfg, 2 * size, inv_cx))

        triple = first_nonassociative(mul)
        assoc_cx = None
        if triple:
            i, j, k = triple
            assoc_cx = {
                "a": elems[i].as_text(),
                "b": elems[j].as_text(),
                "c": elems[k].as_text(),
            }
        checks.append(_check("associativity", cfg, size ** 3, assoc_cx))

        # alpha(a) depends on a alone, so each element is shifted once.
        # alpha(a*b) is the shifted element at the closure table's mul[i, j],
        # and alpha(a)*alpha(b) equals it exactly when its id over the windows
        # moved up by one slot is mul[i, j]
        shifted = [ext_alpha(a, 1) for a in elems]
        alpha_cx = None
        for a, a_t in zip(elems, shifted):
            if ext_alpha(a_t, -1) != a:
                alpha_cx = {"a": a.as_text()}
                break
        if alpha_cx is None:
            for i, a_t in enumerate(shifted):
                row = mul[i].tolist()
                for j, b_t in enumerate(shifted):
                    if product_id(a_t, b_t, 1) != row[j]:
                        alpha_cx = {"a": elems[i].as_text(), "b": elems[j].as_text()}
                        break
                if alpha_cx:
                    break
        checks.append(_check("shift-automorphism", cfg, size * size + size, alpha_cx))

        json_cx = None
        for a in elems:
            if ext_from_json(ext_to_json(a)) != a:
                json_cx = {"a": a.as_text()}
                break
        checks.append(_check("json-round-trip", cfg, size, json_cx))
    return _finish("extension-group", params, checks)


def _cocycle_from_params(entry):
    try:
        return cocycle_from_json({"p": entry["p"], "support": entry["support"]})
    except (KeyError, TypeError, ContractaError) as exc:
        raise InvalidParams(f"bad cocycle config: {exc}") from None


# --- commutator-formula ---------------------------------------------------------

_COMMUTATOR_DEFAULTS = {
    "primes": [2, 3],
    "max_support": 4,
    "n_range": [-3, 3],
    "k_range": [1, 4],
}


def _suite_commutator_formula(params):
    params = _merge(_COMMUTATOR_DEFAULTS, params)
    n_lo, n_hi = _window(params["n_range"], "n_range")
    k_lo, k_hi = _window(params["k_range"], "k_range")
    primes = _primes(params)
    # one commutator per (n, k, c, d) with c, d in 1..p-1
    cells = (n_hi - n_lo + 1) * (k_hi - k_lo + 1) * sum((p - 1) ** 2 for p in primes)
    supports = _supports(params, cells, lambda n: check_work("commutator-formula", n, 0))

    checks = []
    mono_cx = None
    mono = 0
    for p in primes:
        for support in supports:
            spec = CocycleSpec(p, support)
            mod = spec.modulus
            for n in range(n_lo, n_hi + 1):
                for k in range(k_lo, k_hi + 1):
                    pred = predicted_monomial_commutator(spec, n, k)
                    for c in range(1, spec.p):
                        for d in range(1, spec.p):
                            g = ext_elem(spec, {}, {n: c})
                            h = ext_elem(spec, {}, {n + 2 * k: d})
                            want = ExtElem(spec, lau_scale(pred.w, c * d), lau_zero(mod))
                            mono += 1
                            got = ext_commutator(g, h)
                            if got != want:
                                mono_cx = mono_cx or {
                                    "p": spec.p, "support": list(support),
                                    "n": n, "k": k, "c": c, "d": d,
                                    "got": got.as_text(), "want": want.as_text(),
                                }
    checks.append(_check(
        "monomial-commutator",
        {"n_range": [n_lo, n_hi], "k_range": [k_lo, k_hi], "supports": len(supports)},
        mono, mono_cx))

    wit_cx = None
    wit = 0
    for p in primes:
        for support in supports:
            if not support:
                continue
            spec = CocycleSpec(p, support)
            mod = spec.modulus
            for j in range(n_lo, n_hi + 1):
                g, h = derived_witness(spec, j)
                wit += 1
                if ext_commutator(g, h) != ExtElem(spec, lau_monomial(mod, j, 1), lau_zero(mod)):
                    wit_cx = wit_cx or {"p": spec.p, "support": list(support), "j": j}
    checks.append(_check("derived-witness", {"j_range": [n_lo, n_hi]}, wit, wit_cx))

    # on x-only elements the commutator is the alternating form of eta
    alt_cx = None
    alt = 0
    for entry in _EXT_DEFAULTS["configs"]:
        spec = _cocycle_from_params(entry)
        mod = spec.modulus
        slots = window_elements(mod, -1, 2)
        zero = lau_zero(mod)
        for x1 in slots:
            for x2 in slots:
                want = ExtElem(spec, lau_sub(eta(spec, x1, x2), eta(spec, x2, x1)), zero)
                alt += 1
                if ext_commutator(ExtElem(spec, zero, x1), ExtElem(spec, zero, x2)) != want:
                    alt_cx = alt_cx or {
                        "p": spec.p, "support": list(spec.support),
                        "x1": series_to_text(x1), "x2": series_to_text(x2),
                    }
    checks.append(_check("alternating-form", {"window": [-1, 2]}, alt, alt_cx))
    return _finish("commutator-formula", params, checks)


# --- multiplier-axioms / mackey-identity ----------------------------------------

_MULTIPLIER_SPECS = [
    {"cocycle": {"p": 2, "support": [1]}, "z": "1*t^-1 @ p=2^1"},
    {"cocycle": {"p": 2, "support": [1]}, "z": "per[1]*t^{>=1} @ p=2^1"},
    {"cocycle": {"p": 2, "support": [1, 3]}, "z": "per[1]*t^{>=1} @ p=2^1"},
    {"cocycle": {"p": 3, "support": [1, 2]}, "z": "2*t^-1 @ p=3^1"},
]

_MULTIPLIER_DEFAULTS = {"window": [-1, 3], "specs": _MULTIPLIER_SPECS}


def _multiplier_from_params(entry):
    try:
        s = cocycle_from_json(entry["cocycle"])
        z = entry["z"]
        z = text_to_series(z) if isinstance(z, str) else series_from_json(z)
        return MultiplierSpec(s, z)
    except (KeyError, TypeError, ContractaError) as exc:
        raise InvalidParams(f"bad multiplier spec: {exc}") from None


def _suite_multiplier_axioms(params):
    import numpy as np

    params = _merge(_MULTIPLIER_DEFAULTS, params)
    lo, hi = _window(params["window"])
    specs = [_multiplier_from_params(e) for e in _list(params, "specs")]

    def run(m):
        rep = check_multiplier_axioms(m, lo, hi)
        cfg = rep["multiplier"]
        out = [_check("multiplier-m1-m2", dict(cfg, window=[lo, hi]),
                      rep["triples_checked"] + 2 * rep["elements"],
                      None if rep["pass"] else rep["counterexample"])]

        elems = window_elements(m.s.modulus, lo, hi)
        size = len(elems)
        p = m.s.p
        table = np.zeros((size, size), dtype=np.uint8)
        closed_cx = None
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                v = omega2_exponent(m, x, y)
                if torus_from_fraction(v, 1, p) != omega2_closed_form(m, x, y):
                    closed_cx = closed_cx or {"x": series_to_text(x), "y": series_to_text(y)}
                table[i, j] = v
        out.append(_check("omega2-closed-form", cfg, size * size, closed_cx))

        digits, powers = window_digits(p, lo, hi)
        add_id = add_table(digits, powers, p)
        bi_cx = None
        sums = np.empty((size, size, size), dtype=np.uint8)
        first = not np.array_equal(table[add_id], add_mod(table[:, None], table[None], p, sums))
        second = not np.array_equal(table[:, add_id], add_mod(table[:, :, None], table[:, None], p, sums))
        skew = add_mod(table, table.T, p, sums[0]).any()
        if first or second or skew or table.diagonal().any():
            bi_cx = {"first": first, "second": second, "skew": bool(skew)}
        out.append(_check("omega2-bicharacter", cfg, 2 * size ** 3 + size * size, bi_cx))
        return out

    checks = [c for group in parallel_map(run, specs) for c in group]
    return _finish("multiplier-axioms", params, checks)


def _suite_mackey_identity(params):
    params = _merge(_MULTIPLIER_DEFAULTS, params)
    lo, hi = _window(params["window"])
    specs = [_multiplier_from_params(e) for e in _list(params, "specs")]

    def run(m):
        rep = mackey_identity_check(m, lo, hi)
        cfg = dict(rep["multiplier"], window=[lo, hi], method=rep["method"])
        return _check("mackey-identity", cfg, rep["pairs_checked"],
                      None if rep["pass"] else rep["counterexample"])

    checks = parallel_map(run, specs)
    return _finish("mackey-identity", params, checks)


# --- s-omega-prop57 / verdict-thm56 ----------------------------------------------

_SOMEGA_DEFAULTS = {"p": None, "k0": None, "S": None, "window": [-2, 3]}
_VERDICT_DEFAULTS = {"p": None, "k0": None, "S": None, "depth": 12}

_GRID = [(p, k0, S) for p in (2, 3) for k0 in (1, 2) for S in ((1,), (2,), (1, 2), (1, 3))]


def _radical_configs(params):
    trio = (params["p"], params["k0"], params["S"])
    if all(v is None for v in trio):
        return list(_GRID)
    if any(v is None for v in trio):
        raise InvalidParams("p, k0 and S must be given together")
    try:
        p, k0 = int(trio[0]), int(trio[1])
        support = tuple(int(v) for v in trio[2])
    except (TypeError, ValueError, OverflowError):
        raise InvalidParams("p and k0 must be integers, S a list of integers") from None
    if k0 < 1:
        raise InvalidParams("k0 must be >= 1")
    if not support:
        raise InvalidParams("S must be nonempty")
    try:
        CocycleSpec(p, support)
    except ContractaError as exc:
        raise InvalidParams(str(exc)) from None
    return [(p, k0, support)]


def _suite_s_omega(params):
    params = _merge(_SOMEGA_DEFAULTS, params)
    lo, hi = _window(params["window"])
    configs = _radical_configs(params)

    def run(config):
        p, k0, support = config
        spec = CocycleSpec(p, support)
        m = MultiplierSpec(spec, tail_character_index(p, k0))
        threshold = max(support) - k0
        members = s_omega_window(m, (lo, hi), (lo - 2 * spec.max_shift, hi))
        elems = window_elements(spec.modulus, lo, hi)
        cfg = {
            "p": p, "k0": k0, "support": list(support),
            "window": [lo, hi], "threshold": threshold,
            "members": len(members), "elements": len(elems),
        }
        cx = None
        for x in elems:
            in_window = x in members
            expected = x.valuation > threshold
            exact = in_s_omega(m, x)
            if in_window != expected or exact != expected:
                cx = {"x": series_to_text(x), "window_says": in_window,
                      "exact_says": exact, "expected": expected}
                break
        return _check("radical-is-congruence-ball", cfg, 2 * len(elems), cx)

    checks = parallel_map(run, configs)
    return _finish("s-omega-prop57", params, checks)


def _suite_verdict(params):
    params = _merge(_VERDICT_DEFAULTS, params)
    depth = _int(params, "depth")
    configs = _radical_configs(params)

    def run(config):
        p, k0, support = config
        spec = CocycleSpec(p, support)
        m = MultiplierSpec(spec, tail_character_index(p, k0))
        shift = max(support)
        threshold = shift - k0
        rep = type_i_verdict(m, depth)
        cfg = {"p": p, "k0": k0, "support": list(support), "depth": depth,
               "report": rep.to_json()}
        cx = None
        if rep.verdict != "NotTypeI_witnessed":
            cx = {"verdict": rep.verdict}
        elif len(rep.witnesses) < depth // 2:
            cx = {"witnesses": len(rep.witnesses)}
        elif rep.contains_from != threshold:
            cx = {"K": rep.contains_from, "expected": threshold}
        if cx is None:
            # the displayed witness value: omega2(y, x) turns by a*c/p for
            # x = c*t^q with q <= threshold and y = a*t^(q - 2*max S)
            mod = spec.modulus
            for q in (threshold, threshold - 1):
                for a in range(1, p):
                    for c in range(1, p):
                        x = lau_monomial(mod, q, c)
                        y = lau_monomial(mod, q - 2 * shift, a)
                        want = torus_from_fraction(a * c, 1, p)
                        if omega2(m, y, x) != want or omega2(m, x, y) != torus_inv(want):
                            cx = {"q": q, "a": a, "c": c}
        return _check("type-i-verdict", cfg, depth + 1, cx)

    checks = parallel_map(run, configs)
    return _finish("verdict-thm56", params, checks)


# --- heisenberg -----------------------------------------------------------------

_HEIS_DEFAULTS = {
    "p": 2,
    "axioms_window": [0, 2],
    "pullback_window": [-1, 2],
}


def _suite_heisenberg(params):
    import numpy as np

    params = _merge(_HEIS_DEFAULTS, params)
    p = _int(params, "p")
    a_lo, a_hi = _window(params["axioms_window"], "axioms_window")
    if a_lo < 0 or a_hi > 2:
        raise InvalidParams(f"axioms_window must lie inside [0, 2], got [{a_lo}, {a_hi}]")
    b_lo, b_hi = _window(params["pullback_window"], "pullback_window")
    mod = Modulus(p, 1)
    # the group table over (xi, upsilon, z) with z one slot wider, then
    # three characters per (upsilon, z, xi, mu, w) of the pullback window
    size = p * window_size(p, a_lo, a_hi) ** 3
    check_work("heisenberg axioms", size ** 2, size ** 3)
    check_work("heisenberg pullback", 3 * window_size(p, b_lo, b_hi) ** 5, 0)
    zero = lau_zero(mod)
    checks = []

    # the z slot of products needs one extra degree, so close the table there
    coords = window_elements(mod, a_lo, a_hi)
    z_ext = window_elements(mod, a_lo, a_hi + 1)
    elems = [HeisElem(1, (xi,), (ups,), z) for xi in coords for ups in coords for z in z_ext]
    ids = {e: i for i, e in enumerate(elems)}
    base = len(coords) ** 3
    cfg = {"p": p, "window": [a_lo, a_hi], "elements": base, "closure_elements": size}

    n_c, n_z = len(coords), len(z_ext)

    def product_id(g, h):
        # the window id of heis_mul(g, h), read from its coefficient maps
        (xi,), (ups,), z = heis_mul_coeffs(g, h)
        i_xi = coeffs_window_id(xi, p, a_lo, a_hi)
        i_ups = coeffs_window_id(ups, p, a_lo, a_hi)
        i_z = coeffs_window_id(z, p, a_lo, a_hi + 1)
        if i_xi is None or i_ups is None or i_z is None:
            return None
        return (i_xi * n_c + i_ups) * n_z + i_z

    mul, miss = closure_table(elems, product_id)
    closure_cx = {"i": miss[0], "j": miss[1]} if miss else None
    checks.append(_check("mul-closure", cfg, size * size, closure_cx))
    if closure_cx is None:
        e_id = ids[HeisElem(1, (zero,), (zero,), zero)]
        order = np.arange(size)
        ok = (mul[e_id] == order).all() and (mul[:, e_id] == order).all()
        checks.append(_check("identity", cfg, 2 * size, None if ok else {"id": int(e_id)}))

        inv_cx = None
        for i, g in enumerate(elems):
            j = ids.get(heis_inv(g))
            if j is None or mul[i, j] != e_id or mul[j, i] != e_id:
                inv_cx = {"g": heis_to_json(g)}
                break
        checks.append(_check("inverses", cfg, 2 * size, inv_cx))

        triple = first_nonassociative(mul)
        assoc_cx = None
        if triple:
            i, j, k = triple
            assoc_cx = {"g": heis_to_json(elems[i]), "h": heis_to_json(elems[j]),
                        "k": heis_to_json(elems[k])}
        checks.append(_check("associativity", cfg, size ** 3, assoc_cx))

    json_cx = None
    for g in elems:
        if heis_from_json(heis_to_json(g)) != g:
            json_cx = {"g": heis_to_json(g)}
            break
    checks.append(_check("json-round-trip", cfg, size, json_cx))

    ser = window_elements(mod, b_lo, b_hi)
    pb_cfg = {"p": p, "window": [b_lo, b_hi]}
    jobs = [(ups, z) for ups in ser for z in ser]

    # g*n and g*n*g^-1 depend on (xi, mu, w) alone, not on the index (upsilon, z),
    # so they are formed once here instead of once per index
    products = []
    for xi in ser:
        g = HeisElem(1, (xi,), (zero,), zero)
        g_inv = heis_inv(g)
        row = []
        for mu in ser:
            for w in ser:
                gn = heis_mul(g, HeisElem(1, (zero,), (mu,), w))
                row.append((((mu,), w), n_slice(gn), n_slice(heis_mul(gn, g_inv))))
        products.append(row)

    def run(job):
        ups, z = job
        idx = ((ups,), z)
        local = 0
        for xi, row in zip(ser, products):
            moved = heis_dual_action((xi,), idx)
            if moved[1] != z:
                return {"kind": "z-moved", "xi": series_to_text(xi)}
            if z.is_zero() and moved != idx:
                return {"kind": "fixed-point-moved", "xi": series_to_text(xi)}
            for arg, gn_arg, conj_arg in row:
                lhs = heis_char_exponent(idx, gn_arg)
                rhs = heis_char_exponent(moved, arg)
                conj = heis_char_exponent(idx, conj_arg)
                local += 3
                if lhs != rhs or conj != rhs:
                    (mu,), w = arg
                    return {
                        "kind": "pullback", "upsilon": series_to_text(ups),
                        "z": series_to_text(z), "xi": series_to_text(xi),
                        "mu": series_to_text(mu), "w": series_to_text(w),
                    }
        return local

    results = parallel_map(run, jobs)
    pb_cx = next((r for r in results if isinstance(r, dict)), None)
    pb_count = sum(r for r in results if isinstance(r, int))
    checks.append(_check("pullback-and-dual-action", pb_cfg, pb_count, pb_cx))

    checks.append(_orbit_check(mod, coords))
    return _finish("heisenberg", params, checks)


def _orbit_check(mod, coords):
    zero = lau_zero(mod)
    indexes = [((ups,), z) for ups in coords for z in coords]
    count = 0
    cx = None
    verdicts = {}
    for i, idx in enumerate(indexes):
        desc = orbit_description(idx)
        kind_ok = (desc.kind == "FixedPoint") == idx[1].is_zero()
        if not kind_ok:
            cx = {"kind": desc.kind, "z": series_to_text(idx[1])}
            break
        for j, query in enumerate(indexes):
            status, xi = desc.membership(query)
            count += 1
            expected = (idx[1] == query[1]) and (not idx[1].is_zero() or idx[0] == query[0])
            if (status == "member") != expected:
                cx = {"base": i, "query": j, "status": status}
                break
            if status == "member":
                diff = lau_sub(query[0][0], idx[0][0])
                witness_ok = diff.is_zero() if idx[1].is_zero() else lau_mul(xi[0], idx[1]) == diff
                if not witness_ok:
                    cx = {"base": i, "query": j, "xi": series_to_text(xi[0])}
                    break
            verdicts[(i, j)] = status
        if cx:
            break
    if cx is None:
        # membership must be symmetric and orbits must partition the index set
        for (i, j), status in verdicts.items():
            if verdicts[(j, i)] != status:
                cx = {"base": i, "query": j, "asymmetric": True}
                break
            if status == "member":
                for k in range(len(indexes)):
                    if verdicts[(j, k)] == "member" and verdicts[(i, k)] != "member":
                        cx = {"base": i, "mid": j, "query": k, "transitive": False}
                        break
            if cx:
                break
    if cx is None:
        base = orbit_description(((zero,), lau_monomial(mod, 0, 1)))
        status, xi = base.membership(((lau_monomial(mod, 3, 1),), lau_monomial(mod, 0, 1)))
        count += 1
        if status != "member" or xi[0] != lau_monomial(mod, 3, 1):
            cx = {"case": "unit-slice", "status": status}
    if cx is None:
        # a quotient with a periodic presentation: (1)/(1+t) over F_2
        z = laurent(mod, {0: 1, 1: 1})
        desc = orbit_description(((zero,), z))
        status, xi = desc.membership(((lau_monomial(mod, 0, 1),), z))
        count += 1
        if status != "member" or lau_mul(xi[0], z) != lau_monomial(mod, 0, 1):
            cx = {"case": "periodic-witness", "status": status}
    return _check("orbit-membership", {"indexes": len(indexes)}, count, cx)


# --- registry -------------------------------------------------------------------

SUITES = {
    "duality-iso": _suite_duality_iso,
    "dual-action": _suite_dual_action,
    "cocycle-laws": _suite_cocycle_laws,
    "extension-group": _suite_extension_group,
    "commutator-formula": _suite_commutator_formula,
    "multiplier-axioms": _suite_multiplier_axioms,
    "mackey-identity": _suite_mackey_identity,
    "s-omega-prop57": _suite_s_omega,
    "verdict-thm56": _suite_verdict,
    "heisenberg": _suite_heisenberg,
}


def suite_names():
    return sorted(SUITES)


def run_suite(name, params=None):
    fn = SUITES.get(name)
    if fn is None:
        raise UnknownSuite(f"no suite named {name!r}; known: {', '.join(suite_names())}")
    return fn(params)
