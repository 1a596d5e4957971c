#!/usr/bin/env python3
"""Repository benchmark: builds hc_perfbench from source and runs it.

    python3 perfbench/run.py --workload fig7-write --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, one table
    python3 perfbench/run.py --check-steady                   # determinism + spread check

Run it from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
when that variable is set, else to .bench_build/perfbench; traced runs write
their span files there too. The last line of a single-workload run is the
JSON result object; the exit code is nonzero when a correctness check fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["fig7-write", "fig7-write-batched", "read-failover", "ycsb-e"]

# Wall-clock metrics: noisy by nature, excluded from the determinism check.
WALL_METRICS = {
    "setup_s", "peak_rss_mb", "sim.kreq_per_s", "sim.ns_per_event", "raft.log_ns_per_op",
    "storage.append_ns_per_record", "core.session_ns_per_op", "app.exec_ns_per_op",
    "loadgen.next_ns_per_op", "obs.trace_overhead_pct",
}

# Runs per workload and mode at one seed in the steadiness check.
REPEATS = 3


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds hc_perfbench; returns the binary path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    # Compiler temporaries stay in the build tree too, not in /tmp.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "hc_perfbench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "hc_perfbench")


def bench_cmd(binary, workload, seed, seconds, trace):
    return [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out-dir", build_dir()]


def run_captured(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout, parsed result or None)."""
    proc = subprocess.run(bench_cmd(binary, workload, seed, seconds, trace),
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, proc.stdout, result


def fingerprint(stdout):
    for line in stdout.splitlines():
        if line.strip().startswith("fingerprint "):
            return line.split()[1]
    return None


def run_all(binary, args):
    """Every workload in one command: their tables, then one summary."""
    ok = True
    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS:
        code, stdout, result = run_captured(binary, workload, args.seed, args.seconds, args.trace)
        sys.stdout.write("\n".join(stdout.splitlines()[:-1]) + "\n")
        if code != 0 or result is None or not result["correct"]:
            ok = False
        if result is None:
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            metrics[workload + "/" + name] = m
    print("\nsummary (%s):" % ("end to end" if args.trace == 0 else "per layer"))
    for name, m in metrics.items():
        print("  %-48s %16.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def check_steady(binary, args):
    """Runs each workload REPEATS times with one seed and once with another.

    Prints median and quartiles of every metric, and fails unless every
    simulated (virtual-time) metric and the run fingerprint repeat exactly
    for the seed, and the second seed changes them.
    """
    workloads = WORKLOADS if args.workload in (None, "all") else [args.workload]
    ok = True
    for workload in workloads:
        for trace in (0, 1):
            runs = []
            for _ in range(REPEATS):
                code, stdout, result = run_captured(binary, workload, args.seed, args.seconds,
                                                    trace)
                if code != 0 or result is None:
                    print("%s trace=%d: run failed (exit %d)" % (workload, trace, code))
                    ok = False
                    break
                runs.append((fingerprint(stdout), result["metrics"]))
            if len(runs) != REPEATS:
                continue
            code, stdout, other = run_captured(binary, workload, args.seed + 1, args.seconds,
                                               trace)
            print("%s trace=%d: %d runs at seed %d, 1 at seed %d" %
                  (workload, trace, REPEATS, args.seed, args.seed + 1))
            print("  %-30s %14s %14s %14s  %s" % ("metric", "q1", "median", "q3", "repeats"))
            changed = False
            for name in runs[0][1]:
                values = [r[1][name]["value"] for r in runs]
                q1, q2, q3 = quartiles(values)
                deterministic = name not in WALL_METRICS
                same = all(v == values[0] for v in values)
                verdict = ""
                if deterministic:
                    verdict = "exact" if same else "DIFFERS"
                    ok = ok and same
                    if other is not None and other["metrics"][name]["value"] != values[0]:
                        changed = True
                print("  %-30s %14.6f %14.6f %14.6f  %s" % (name, q1, q2, q3, verdict))
            prints = {r[0] for r in runs}
            same_print = len(prints) == 1
            other_print = fingerprint(stdout) if other is not None else None
            if trace == 0:
                print("  fingerprint: %s" % ("exact" if same_print else "DIFFERS"))
                ok = ok and same_print
                changed = changed and other_print not in prints
            print("  seed %d changes the simulated metrics: %s" %
                  (args.seed + 1, "yes" if changed else "NO"))
            ok = ok and changed
    print("steadiness check: %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-steady", action="store_true")
    args = parser.parse_args()
    if not args.check_steady and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.check_steady:
        return check_steady(binary, args)
    if args.workload == "all":
        return run_all(binary, args)
    sys.stdout.flush()
    # Hand the process over: the benchmark's stdout is the run's stdout.
    os.execv(binary, bench_cmd(binary, args.workload, args.seed, args.seconds, args.trace))


if __name__ == "__main__":
    sys.exit(main())
