#!/usr/bin/env python3
"""Regenerates BENCH_perfbench.json, the committed simulated ledger.

    python3 tools/perfbench_ledger.py            # rewrite BENCH_perfbench.json
    python3 tools/perfbench_ledger.py --out F    # write somewhere else

Runs every perfbench workload for one second at seed 1, untraced and traced
(`perfbench/run.py --workload W --seed 1 --seconds 1 --trace T`), and records
the run fingerprint plus every simulated metric. Wall-clock metrics
(run.py's WALL_METRICS) are left out: they are noisy by nature, while the
simulated ones repeat byte for byte at a seed. A change that moves a
simulated number must therefore commit the regenerated file; CI reruns this
script and fails on any difference. Run it from the repository root.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run  # noqa: E402  perfbench/run.py: WORKLOADS, WALL_METRICS, fingerprint()

SEED = 1
SECONDS = 1


def ledger_entry(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench_ledger: %s failed (exit %d)" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    entry = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()
                    if name not in run.WALL_METRICS},
    }
    # Only untraced runs print one; a traced run checks instead that tracing
    # leaves every trial's fingerprint unchanged.
    fingerprint = run.fingerprint(proc.stdout)
    if fingerprint is not None:
        entry["fingerprint"] = fingerprint
    return entry


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_perfbench.json"))
    args = parser.parse_args()
    ledger = {
        "command": "python3 perfbench/run.py --workload W --seed %d --seconds %d --trace T" %
                   (SEED, SECONDS),
        "excluded": sorted(run.WALL_METRICS),
    }
    for trace in (0, 1):
        ledger["trace%d" % trace] = {w: ledger_entry(w, trace) for w in run.WORKLOADS}
    with open(args.out, "w") as out:
        json.dump(ledger, out, indent=1, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
