"""Per-layer tracing of contracta from outside its code.

`Tracer.install()` rebinds each listed public function, in every contracta
module that imported it, to a wrapper that counts calls and accumulates self
time: the span's duration minus the spans it caused on the same thread.
State is kept per thread, since `parallel_map` runs items on a thread pool.
Durations are thread CPU time, so time a pool thread spends waiting for the
interpreter lock is not charged to the function it waits in.  Suites,
`parallel_map` calls and in-process CLI calls are also kept as wall-clock
spans (name, thread, start, end, parent) for the trace file.
"""

import functools
import sys
import threading
import time
from collections import defaultdict

# layer module -> public functions whose calls and self time are recorded
FUNCTIONS = {
    "scalars": ["torus_from_fraction", "torus_mul"],
    "laurent": ["laurent", "lau_add", "lau_shift", "lau_scale", "lau_mul",
                "text_to_series", "series_to_text"],
    "sweep": ["window_elements", "parallel_map"],
    "duality": ["chi_char"],
    "padic": ["pmul"],
    "cocycles": ["theta", "eta"],
    "extensions": ["ext_mul", "ext_inv"],
    "heisenberg": ["heis_mul", "heis_char", "lau_div"],
    "multipliers": ["omega2", "h_omega", "s_omega_window", "mackey_identity_check"],
}
# methods: (module, class, method, metric prefix); coeff is only counted
METHODS = [("padic", "PadicMatrix", "matvec", "padic.matvec")]
COUNTED = [("laurent", "LaurentElem", "coeff", "laurent.coeff")]
SUITES = ["duality-iso", "dual-action", "cocycle-laws", "extension-group", "commutator-formula",
          "multiplier-axioms", "mackey-identity", "s-omega-prop57", "verdict-thm56", "heisenberg"]


def metric_names():
    """(name, unit) of every per-layer metric the tracer yields."""
    out = []
    names = [f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs] + [m[3] for m in METHODS]
    for name in names:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
        if name == "laurent.laurent":
            out.append(("laurent.laurent.changed_share", "ratio"))
        if name == "sweep.parallel_map":
            out.append(("sweep.parallel_map.busy_ratio", "ratio"))
        if name == "multipliers.mackey_identity_check":
            out.append(("multipliers.mackey_identity_check.direct_calls", "count"))
    out += [(c[3] + ".calls", "count") for c in COUNTED]
    for suite in SUITES:
        out += [(f"suites.{suite}.s", "s"), (f"suites.{suite}.self_s", "s")]
    return out


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._accs = []          # one {name: [calls, self CPU s, wall s of coarse spans]} per thread
        self._undo = []
        self.spans = []          # [name, thread, start, end, parent index]

    def _state(self):
        try:
            return self._local.stack, self._local.acc
        except AttributeError:
            stack, acc = [], defaultdict(lambda: [0, 0.0, 0.0])
            self._local.stack, self._local.acc, self._local.spans = stack, acc, []
            with self._lock:
                self._accs.append(acc)
            return stack, acc

    def _wrap(self, name, fn, coarse=False, after=None):
        state, clock, cpu = self._state, time.perf_counter, time.thread_time
        spans, local = self.spans, self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, acc = state()
            stack.append(0.0)
            if coarse:
                start = clock()
                local.spans.append(len(spans))
                spans.append([name, threading.get_ident(), start, None,
                              local.spans[-2] if len(local.spans) > 1 else None])
            t0 = cpu()
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(acc, args, kwargs, out)
                return out
            finally:
                dt = cpu() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = acc[name]
                rec[0] += 1
                rec[1] += dt - child
                if coarse:
                    end = clock()
                    rec[2] += end - start
                    spans[local.spans.pop()][3] = end

        return wrapper

    def _counter(self, name, fn):
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state()[1][name][0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rebind(self, orig, new):
        """Point every contracta module binding of `orig` at `new`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "contracta" or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def install(self):
        import importlib

        import contracta.cli  # noqa: F401  (load every module that binds the functions)

        extra = {"laurent.laurent": _laurent_changed,
                 "multipliers.mackey_identity_check": _mackey_direct}
        for mod_name, fns in FUNCTIONS.items():
            mod = importlib.import_module(f"contracta.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                orig = getattr(mod, fn_name)
                if name == "sweep.parallel_map":
                    new = self._wrap(name, self._timed_items(orig), coarse=True)
                else:
                    new = self._wrap(name, orig, after=extra.get(name))
                self._rebind(orig, new)
        for mod_name, cls_name, meth, name in METHODS + COUNTED:
            cls = getattr(importlib.import_module(f"contracta.{mod_name}"), cls_name)
            orig = vars(cls)[meth]
            new = self._counter(name, orig) if (mod_name, cls_name, meth, name) in COUNTED \
                else self._wrap(name, orig)
            setattr(cls, meth, new)
            self._undo.append((cls, meth, orig))
        suites = importlib.import_module("contracta.suites")
        for suite in SUITES:
            orig = suites.SUITES[suite]
            suites.SUITES[suite] = self._wrap(f"suites.{suite}", orig, coarse=True)
            self._undo.append((suites.SUITES, suite, orig))

    def uninstall(self):
        for target, attr, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[attr] = orig
            else:
                setattr(target, attr, orig)
        self._undo.clear()

    def span(self, name, fn):
        """Wrap a callable of the benchmark's own as a coarse span (an in-process CLI call)."""
        return self._wrap(name, fn, coarse=True)

    def _timed_items(self, parallel_map):
        """parallel_map whose items add their thread CPU time to `parallel_map.items_cpu`."""
        state = self._state

        def timed(fn, items, workers=None):
            def item(x):
                t0 = time.thread_time()
                try:
                    return fn(x)
                finally:
                    state()[1]["sweep.parallel_map.items_cpu"][1] += time.thread_time() - t0
            return parallel_map(item, items, workers)

        return timed

    def totals(self):
        """{name: [calls, self CPU s, wall s]} summed over threads."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            for acc in self._accs:
                for name, rec in list(acc.items()):
                    for k in range(3):
                        out[name][k] += rec[k]
        return out

    def metrics(self):
        """Every per-layer metric of `metric_names()` as {name: value}."""
        t = self.totals()
        out = {}
        for name, _ in metric_names():
            base, _, field = name.rpartition(".")
            if base.startswith("suites."):
                out[name] = t[base][2] if field == "s" else t[base][1]
            elif field == "calls":
                out[name] = t[base][0]
            elif field == "self_s":
                out[name] = t[base][1]
        calls = t["laurent.laurent"][0]
        out["laurent.laurent.changed_share"] = t["laurent.laurent.changed"][0] / calls if calls else 0.0
        wall = t["sweep.parallel_map"][2]
        out["sweep.parallel_map.busy_ratio"] = t["sweep.parallel_map.items_cpu"][1] / wall if wall else 0.0
        out["multipliers.mackey_identity_check.direct_calls"] = t["multipliers.mackey_identity_check.direct"][0]
        return out


def _laurent_changed(acc, args, kwargs, out):
    """Count laurent() calls whose canonical output differs from the presentation given."""
    coeffs = kwargs.get("coeffs", args[1] if len(args) > 1 else None) or {}
    tail = kwargs.get("tail", args[2] if len(args) > 2 else None)
    if tail is not None:
        tail = (tail[0], tuple(tail[1]))
    if out.tail != tail or len(out.finite) != len(coeffs) or dict(out.finite) != coeffs:
        acc["laurent.laurent.changed"][0] += 1


def _mackey_direct(acc, args, kwargs, out):
    if out.get("method") == "direct":
        acc["multipliers.mackey_identity_check.direct"][0] += 1
