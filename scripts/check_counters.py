#!/usr/bin/env python3
"""Counter gate: runs benchmark workloads briefly and checks their
per-statement counters against a committed baseline, exactly.

    python3 scripts/check_counters.py                 # every workload listed
    python3 scripts/check_counters.py --workload adhoc_join

Run from the root of a checkout.  Each workload runs once through
`python3 bench/suite/run.py --workload W --seconds 4 --trace 1`, which
builds the suite in Release.  Page I/O, parses, plan builds and plan-cache
hit ratios per statement do not depend on the machine, so every counter in
the baseline's "exact" table must equal the run's value; any difference
fails the gate.  Wall-clock metrics get only an advisory line against the
baseline's reference run and BENCHMARK.json's bounds: one short run on a
shared machine says little about speed.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "scripts", "counter_baseline.json")


def run_workload(workload, seconds):
    """Runs one traced workload; returns (correct, metrics by name)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "results.json")
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench", "suite", "run.py"),
             "--workload", workload, "--seconds", str(seconds),
             "--trace", "1", "--out", out],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        if not os.path.exists(out):
            sys.stdout.write(proc.stdout)
            return False, {}
        with open(out) as f:
            result = json.load(f)["results"][0]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return proc.returncode == 0 and result["correct"], metrics


def main():
    with open(BASELINE) as f:
        baseline = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(baseline["exact"]),
                        help="workload to check (repeatable; default: all)")
    args = parser.parse_args()

    failures = []
    for workload in args.workload or sorted(baseline["exact"]):
        correct, metrics = run_workload(workload, baseline["seconds"])
        print("== %s" % workload)
        if not correct:
            failures.append("%s: the run failed its own checks" % workload)
            continue
        for name, want in sorted(baseline["exact"][workload].items()):
            got = metrics.get(name)
            ok = got == want
            print("  %s %-32s %16s (baseline %s)"
                  % ("ok  " if ok else "FAIL", name, got, want))
            if not ok:
                failures.append("%s: %s is %s, baseline %s"
                                % (workload, name, got, want))
        reference = baseline.get("advisory", {}).get(workload, {})
        for name, ref in sorted(reference.items()):
            got = metrics.get(name)
            if got is None or not ref:
                continue
            bound = bounds[name]
            worse = (ref - got) / ref if bound["better"] == "higher" \
                else (got - ref) / ref
            note = "beyond its %.0f%% bound" % (100 * bound["bound"]) \
                if worse > bound["bound"] else "within bound"
            print("  adv  %-32s %16.4f (reference %.4f, %s)"
                  % (name, got, ref, note))

    if failures:
        print("counter gate failed:")
        for line in failures:
            print("  " + line)
        sys.exit(1)
    print("counter gate passed")


if __name__ == "__main__":
    main()
