"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (certify-grid, pullback-pipeline, cli-docs, or all three
in turn with ``all``) against the ``ainfty`` in this checkout's ``src``.
Each workload runs in a process of its own, one at a time, with a fixed
PYTHONHASHSEED so that counts repeat exactly.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the per-layer
ones from a separate traced run.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("certify-grid", "pullback-pipeline", "cli-docs")
HASH_SEED = "0"


def run_workload(workload, args):
    """Run one workload in a worker process; return its result object."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # a traced run measures for --seconds, finishes its round and then makes
    # a counting pass; the margin covers both on a slow machine
    timeout = 4 * args.seconds + 300
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload}: no result within {timeout} s")
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "ainfty", "__init__.py")):
        sys.exit(f"no ainfty package under {os.path.join(ROOT, 'src')}")
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args), sort_keys=True))
        return
    results = {w: run_workload(w, args) for w in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }, sort_keys=True))


if __name__ == "__main__":
    main()
