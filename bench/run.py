#!/usr/bin/env python3
"""The contracta benchmark: one command, one workload, one seed.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md):
  group-laws  `contracta verify` on cocycle-laws, extension-group,
              commutator-formula and heisenberg at default params
  characters  the same on duality-iso, dual-action, multiplier-axioms,
              mackey-identity, s-omega-prop57 and verdict-thm56
  oneshot     a seeded round of calls across every subcommand

Every workload is a closed loop with one client: each call is a fresh
`contracta` process, and the next starts when it exits.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics from a
separate traced pass, and the traced pass's overhead.  contracta is run from
this checkout's src/ with CONTRACTA_WORKERS unset.  Every output is checked
against the reference in reference.py; details and result files go to
bench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calls
import selftest
import sweep_checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
ENTRY = "import sys; from contracta.cli import main; sys.exit(main())"  # the console script
SWEEPS = {
    "group-laws": ["cocycle-laws", "extension-group", "commutator-formula", "heisenberg"],
    "characters": ["duality-iso", "dual-action", "multiplier-axioms", "mackey-identity",
                   "s-omega-prop57", "verdict-thm56"],
}
WORKLOADS = [*SWEEPS, "oneshot"]
CALL_TIMEOUT_S = 120
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _env():
    env = {k: v for k, v in os.environ.items() if k != "CONTRACTA_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(mode, cfg):
    """Run worker.py; returns (its JSON result, monotonic time it was started)."""
    t_spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), mode, json.dumps(cfg)],
                          env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), t_spawn


def _invoke(argv):
    """One `contracta --json ...` process: (latency s, exit code, stdout, stderr)."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", ENTRY, "--json", *argv], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    return time.monotonic() - t0, proc.returncode, proc.stdout, proc.stderr


class CallLoop:
    """A closed loop with one client over a fixed list of calls, in whole rounds.

    The first round's outputs are checked; later rounds must repeat them byte
    for byte.  Each call keeps its latency in every round, so that a call's
    best latency can be taken over the rounds.
    """

    def __init__(self, calls_):
        self.calls = calls_
        self.lat = [[] for _ in calls_]
        self.bad = [False] * len(calls_)
        self.rounds, self.errors, self.attempted, self.failed = [], [], 0, 0
        self._first = None

    def round(self):
        t0 = time.monotonic()
        outs = [_invoke(c["argv"]) for c in self.calls]
        self.rounds.append(time.monotonic() - t0)
        for i, (c, (lat, code, out, err)) in enumerate(zip(self.calls, outs)):
            bad, errs = calls.check_call(c, code, out, err)
            if self._first is None:
                self.errors += errs
            self.lat[i].append(lat)
            self.bad[i] = self.bad[i] or bad
            self.attempted += 1
            self.failed += bad
        if self._first is not None and [o[1:3] for o in outs] != [o[1:3] for o in self._first]:
            self.errors.append("a repeated round gave different output")
        self._first = self._first or outs

    def best(self):
        """Each call's fastest latency over the rounds."""
        return [min(x) for x in self.lat]

    def p50_ms(self):
        """Median over the calls of their best latency; a failed call counts as
        missing every latency limit."""
        return 1000 * statistics.median(float("inf") if b else x for x, b in zip(self.best(), self.bad))


def run(workload, seed, seconds, trace):
    sweep = workload in SWEEPS
    data, t_spawn = _worker("setup" if sweep else "setup-cli", {})
    setup_s = data["import_done"] - t_spawn
    loop = CallLoop(calls.suite_calls(SWEEPS[workload]) if sweep else calls.round_calls(seed))
    # oneshot makes at least two rounds, so that each call has a best latency
    t_start = time.monotonic()
    while len(loop.rounds) < (1 if sweep else 2) or time.monotonic() - t_start < seconds:
        loop.round()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    res = {"attempted": loop.attempted, "failed": loop.failed, "errors": list(loop.errors),
           "rounds": loop.rounds}
    if sweep:
        samples, _ = _worker("samples", {"workload": workload, "seed": seed})
        try:
            res["errors"] += sweep_checks.check_samples(samples["samples"])
        except calls.MALFORMED as exc:
            res["errors"].append(f"malformed sample ({type(exc).__name__}: {exc})")
    if trace:
        # the sweeps also replay the probe, so every layer is exercised on every workload
        extra = [c["argv"] for c in calls.probe_calls()] if sweep else []
        data, _ = _worker("replay", {"argvs": [c["argv"] for c in loop.calls], "extra": extra})
        m = dict(data["layers"])
        m["cli.main_ms"] = 1000 * statistics.median(data["main_s"])
        m["cli.startup_ms"] = 1000 * statistics.median(b - t for b, t in zip(loop.best(), data["main_s"]))
        m["trace.untraced_s"] = sum(data["main_s"])
        m["trace.traced_s"] = data["traced_s"]
        m["trace.overhead"] = data["traced_s"] / sum(data["main_s"])
        res["metrics"], res["spans"] = m, data["spans"]
    else:
        # a round's wall time with each call at its best over the run's rounds
        res["metrics"] = {"setup_s": setup_s, "wall_s": sum(loop.best()),
                          "peak_rss_mb": peak_rss_mb, "cli_p50_ms": loop.p50_ms()}
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "contracta" / "__init__.py").is_file():
        sys.exit(f"no contracta source under {ROOT / 'src'}: run from a checkout of the repository")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    broken = selftest.run()
    if broken:
        sys.exit("benchmark self-test failed: " + "; ".join(broken))

    try:
        res = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        sys.exit(f"benchmark run failed: {exc}")

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(res["metrics"]):
        sys.exit(f"metrics {sorted(set(res['metrics']) ^ set(units))} differ from BENCHMARK.json")
    result = {"correct": not res["errors"], "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(res["metrics"].items())}}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"args": vars(args), "rounds_s": res["rounds"], "errors": res["errors"], "result": result}
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        stem.with_suffix(".spans.json").write_text(json.dumps(res["spans"]) + "\n")
    for e in res["errors"][:20]:
        print("error:", e)
    print(f"{args.workload} seed {args.seed}: {len(res['rounds'])} round(s), "
          f"{res['attempted']} attempted, {res['failed']} failed, {len(res['errors'])} errors")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
