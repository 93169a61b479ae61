#!/usr/bin/env python3
"""ARK benchmark: build the runner from this checkout, run one workload,
print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: paper-ops, bootstrap, serve-open, serve-saturated (see
BENCHMARK.json and perfbench/METRICS.md). Run from the root of the
checkout. The runner is built with CMake under .bench_build/perfbench
on first use. With --trace 0 the last line of standard output is a
JSON object holding every end-to-end metric of BENCHMARK.json; with
--trace 1 it holds every per-layer metric. The lines before it name
what ran and print each metric with its unit and sample count.

Exits nonzero, without a result line, when the build or the run fails
or any ARK_* environment variable is set, and with a result whose
"correct" is false when an output check or a ledger fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

import ledger

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once and build incrementally, one build at a time."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"] + gen,
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j",
                        str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def run_binary(binary, args):
    out = os.path.join(BUILD, "raw-%s-%d-%d.json"
                       % (args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    with subprocess.Popen(cmd, stdout=sys.stderr) as proc:
        try:
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("runner exceeded %d s" % RUN_TIMEOUT_S)
    if code != 0:
        raise RuntimeError("runner exited with code %d" % code)
    with open(out) as f:
        raw = json.load(f)
    os.remove(out)
    return raw


def fmt(v):
    return "%.6g" % v if isinstance(v, float) else str(v)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=ledger.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    raw = run_binary(build(), args)
    info, counts = raw["info"], raw["counts"]

    print("workload %s  seed %d  seconds %g  trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    for key in ("params", "backend", "backend_threads", "simd_tier", "nproc",
                "cpu_model", "cpu_features", "compiler", "build_type"):
        print("  %-16s %s" % (key, info[key]))

    e2e, printed, failed = ledger.end_to_end(raw, args.workload)
    floor = raw["values"]["precision_floor_bits"]
    correct = (failed == 0 and counts["attempted"] >= 1
               and e2e["precision_bits"][0] >= floor)
    print("end-to-end (gated ones first):")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name in printed:
        units[name] = ("ms" if name.endswith("_ms") else
                       "1/s" if name.endswith("_rps") else "fraction")
    for name, (value, n) in list(e2e.items()) + list(printed.items()):
        print("  %-20s %12s %-8s n=%d" % (name, fmt(value), units[name], n))
    print("  precision floor %g bits: %s"
          % (floor, "ok" if e2e["precision_bits"][0] >= floor else "FAILED"))
    if args.workload in ledger.SERVING:
        print("serving ledger: sent = ok + mismatched + refused + failed")
        for row in ledger.conservation(counts):
            correct = correct and row[-1]
            print("  %-12s %6d = %6d + %d + %d + %d  %s"
                  % (row[:6] + ("ok" if row[-1] else "UNBALANCED",)))

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, ledgers, table = ledger.per_layer(raw, args.workload, names)
        print("spans (name, count, median ms, self ms):")
        for name, (n, med, self_ms) in sorted(table.items()):
            print("  %-20s %6d %12.4f %12.3f" % (name, n, med, self_ms))
        for root in ("unit", "probe"):
            if root in table:
                n, _, self_ms = table[root]
                print("  uncovered by child spans in %d %s spans: %.3f ms"
                      % (n, root, self_ms))
        print("op ledgers (parts + uncovered rest = total, ms):")
        for label, total, parts, rest, ok, checked in ledgers:
            if checked:
                correct = correct and ok
            verdict = "ok" if ok else "FAILED" if checked else "not checked"
            print("  %-10s %s + rest %.4f = %.4f  %s"
                  % (label, " + ".join("%s %.4f" % p for p in parts), rest,
                     total, verdict))
        for name, (value, n) in printed.items():
            print("  this run's %s: %s (n=%d)" % (name, fmt(value), n))
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print("per-layer:")
        for name in names:
            print("  %-30s %14s %s" % (name, fmt(metrics[name]), units[name]))
    else:
        metrics = {m["name"]: e2e[m["name"]][0] for m in spec["end_to_end"]}
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    result = {
        "correct": bool(correct),
        "attempted": int(counts["attempted"]),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, KeyError, ValueError,
            subprocess.CalledProcessError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
