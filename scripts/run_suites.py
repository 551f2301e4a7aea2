#!/usr/bin/env python3
"""Run every registered verification suite and archive the JSON reports.

Reports land in --out-dir as <suite>.json (canonical one-line form, the same
bytes the CLI emits with --json).  A one-line summary per suite goes to
stdout.  Exit status is 0 iff every suite passed, and 2 with one `error:` line
on stderr for an unknown suite name, before any suite runs.
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from contracta import run_suite, suite_names


def canonical(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--suite", action="append", metavar="NAME",
                    help="run only this suite (repeatable; default: all)")
    ap.add_argument("--out-dir", default="reports", help="directory for JSON reports")
    args = ap.parse_args()

    known = suite_names()
    names = args.suite or known
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"error: UnknownSuite: no suite named {unknown[0]!r}; known: {', '.join(known)}", file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)

    width = max(len(n) for n in names)
    all_ok = True
    grand_checks = 0
    t_total = time.perf_counter()
    for name in names:
        t0 = time.perf_counter()
        report = run_suite(name)
        dt = time.perf_counter() - t0
        path = os.path.join(args.out_dir, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(canonical(report))
        ok = report["pass"]
        all_ok = all_ok and ok
        n_checks = len(report["checks"])
        grand_checks += n_checks
        status = "pass" if ok else f"FAIL ({report['failures']} failures)"
        print(f"{name:<{width}}  {status:<8}  {n_checks:3d} checks  {dt:7.2f}s  -> {path}")
    print(f"{'total':<{width}}  {'pass' if all_ok else 'FAIL':<8}  "
          f"{grand_checks:3d} checks  {time.perf_counter() - t_total:7.2f}s")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
