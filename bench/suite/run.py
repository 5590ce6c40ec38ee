#!/usr/bin/env python3
"""The ChronoQuel benchmark: builds bench/suite in Release, runs workloads,
checks their results, and prints every metric with its name and unit.

    python3 bench/suite/run.py                      # every workload
    python3 bench/suite/run.py --workload temporal_oltp --seed 7
    python3 bench/suite/run.py --trace 1            # per-layer metrics + traces

Run from the root of a checkout.  Everything it writes stays under
.bench_build/ there: the build, scratch databases (removed after each run),
the results JSON and the Chrome traces.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
registered in BENCHMARK.json, or with --trace 1 the per-layer ones.  Any
failed check makes the command exit non-zero and names the check on stderr.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
BUILD = os.path.join(ROOT, ".bench_build")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def clean_env():
    """The child environment: every TDB_* engine lever removed, so the
    engine runs exactly as BENCHMARK.json's workloads configure it."""
    return {k: v for k, v in os.environ.items() if not k.startswith("TDB_")}


def build():
    build_dir = os.path.join(BUILD, "suite")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    env = clean_env()
    configure = ["cmake", "-S", SUITE, "-B", build_dir]
    if not os.path.exists(cache):
        configure.append("-DCMAKE_BUILD_TYPE=Release")
    subprocess.run(configure, check=True, env=env, stdout=sys.stderr)
    with open(cache) as f:
        build_type = next((line.split("=", 1)[1].strip() for line in f
                           if line.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        fail("refusing to measure a %r build in %s; benchmarks need Release"
             % (build_type, build_dir))
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "tdb_bench",
                    "-j", jobs], check=True, env=env, stdout=sys.stderr)
    return os.path.join(build_dir, "tdb_bench"), build_type


def host_context(build_type, seed, server_root):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    try:
        # The ceiling keeps git from reporting an enclosing repository's
        # commit for a checkout that is not itself a repository.
        env = dict(clean_env(), GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                env=env, capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    fs = subprocess.run(["stat", "-f", "-c", "%T", server_root],
                        capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "kernel": platform.release(), "git_commit": commit,
            "build_type": build_type, "seed": seed, "server_root_fs": fs}


def run_workload(binary, workload, seed, seconds, trace):
    run_dir = os.path.join(BUILD, "run", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--dir=" + run_dir]
    trace_path = None
    if trace:
        trace_path = os.path.join(BUILD, "traces", "%s-seed%d.json"
                                  % (workload, seed))
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        cmd.append("--trace=" + trace_path)
    try:
        proc = subprocess.run(cmd, env=clean_env(), capture_output=True,
                              text=True, timeout=170)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result (exit %d)" % (workload, proc.returncode))
    result = json.loads(lines[-1])
    if trace_path is not None and os.path.exists(trace_path):
        with open(trace_path) as f:
            events = json.load(f)["traceEvents"]
        result["trace"] = {"path": trace_path, "events": len(events)}
    return result, proc.returncode


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    all_workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=all_workloads + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", default=os.path.join(BUILD, "results.json"),
                        help="where to write the results JSON")
    args = parser.parse_args()

    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    registered = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = [m["name"] for m in registered]

    try:
        binary, build_type = build()
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    workloads = all_workloads if args.workload == "all" else [args.workload]
    results = []
    ok = True
    started = time.time()
    for workload in workloads:
        result, code = run_workload(binary, workload, args.seed, seconds,
                                    args.trace)
        ok &= code == 0 and result["correct"]
        results.append(result)
        print("== %s (seed %d): correct=%s attempted=%d failed=%d"
              % (workload, args.seed, result["correct"], result["attempted"],
                 result["failed"]))
        for name, metric in result["metrics"].items():
            mark = "*" if name in names else " "
            print("  %s %-36s %16.6f %s" % (mark, name, metric["value"],
                                           metric["unit"]))

    context = host_context(build_type, args.seed, BUILD)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"host": context, "seconds": seconds, "trace": args.trace,
                   "wall_s": time.time() - started, "results": results},
                  f, indent=1)
    print("results written to " + args.out)

    def pick(result):
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            fail("%s did not report %s" % (result["workload"], missing))
        return {n: result["metrics"][n] for n in names}

    if len(results) == 1:
        metrics = pick(results[0])
    else:
        metrics = {r["workload"] + "." + n: v
                   for r in results for n, v in pick(r).items()}
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
