#!/usr/bin/env python3
"""Per-suite wall times for one full pass, at the default worker count and at
CONTRACTA_WORKERS=1, each pass in a fresh process from this checkout.

    python3 bench/suite_times.py

Prints a table and writes bench/out/suite_times.json.  These are the
reference figures in README.md; they are not part of a benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PASS = """
import json, time
from contracta import run_suite, suite_names
times = {}
for name in suite_names():
    t0 = time.perf_counter()
    assert run_suite(name)["pass"], name
    times[name] = time.perf_counter() - t0
print(json.dumps(times))
"""


def one_pass(workers):
    env = {k: v for k, v in os.environ.items() if k != "CONTRACTA_WORKERS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    if workers is not None:
        env["CONTRACTA_WORKERS"] = str(workers)
    out = subprocess.run([sys.executable, "-c", PASS], env=env, cwd=ROOT, capture_output=True,
                         text=True, check=True, timeout=600).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    passes = {"default": one_pass(None), "1": one_pass(1)}
    print(f"{'suite':<20} {'default':>9} {'1 worker':>9}")
    for name in passes["default"]:
        print(f"{name:<20} {passes['default'][name]:9.2f} {passes['1'][name]:9.2f}")
    print(f"{'total':<20} {sum(passes['default'].values()):9.2f} {sum(passes['1'].values()):9.2f}")
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "suite_times.json").write_text(json.dumps(passes, indent=1) + "\n")


if __name__ == "__main__":
    main()
