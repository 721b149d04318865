"""One workload in one process: set up, run timed passes, check, report.

Started by run.py with PYTHONHASHSEED fixed and the checkout's ``src``
first on the path.  Prints a human-readable summary, a digest line, and as
its last line one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import calib
import jobs as jobs_mod
import oracle
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = {
    "certify-grid": "wl_certify",
    "pullback-pipeline": "wl_pullback",
    "cli-docs": "wl_cli",
}
MIN_PASSES = 3          # set-up is timed once per pass; setup_s is their median
MIN_TRACE_ROUNDS = 2
TAIL_BEYOND = 10        # job_tail_s: the highest job time with 10 jobs beyond it

E2E_UNITS = {
    "setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_s": "s", "job_tail_s": "s",
    "q_jobs_s": "s", "fp_jobs_s": "s", "peak_rss_mib": "MiB",
}


def _import_ainfty(src):
    """Import the package from `src` and stop if it resolves elsewhere."""
    sys.path.insert(0, src)
    import ainfty
    want = os.path.realpath(os.path.join(src, "ainfty", "__init__.py"))
    if os.path.realpath(ainfty.__file__) != want:
        raise SystemExit(f"ainfty resolved to {ainfty.__file__}, not {want}")


def _fresh_import_s():
    """Time one import of `ainfty` afresh, scaled to the reference speed.
    The benchmark's modules keep using the first import, which is put back
    afterwards."""
    loaded = {n: m for n, m in sys.modules.items()
              if n == "ainfty" or n.startswith("ainfty.")}
    for name in loaded:
        del sys.modules[name]
    cal_before = calib.calibrate()
    t0 = time.perf_counter()
    importlib.import_module("ainfty")
    seconds = time.perf_counter() - t0
    seconds = calib.scaled(seconds, cal_before, calib.calibrate())
    for name in [n for n in sys.modules if n == "ainfty" or n.startswith("ainfty.")]:
        del sys.modules[name]
    sys.modules.update(loaded)
    return seconds


class Run:
    """Passes of one workload, their outcomes and their digests."""

    def __init__(self, wl, seed, workdir):
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.setup_s = []           # scaled to the reference speed (calib)
        self.import_s = []          # one fresh import per untraced pass, scaled
        self.passes = []            # list of outcome lists
        self.problems = []
        self.digests = []

    def one_pass(self, hooks=None):
        gc.collect()
        if hooks:
            hooks.begin_job("setup")
        checked = oracle.check_s
        cal_before = calib.calibrate()
        t0 = time.perf_counter()
        jobs, problems = self.wl.setup(self.seed, self.workdir)
        seconds = time.perf_counter() - t0 - (oracle.check_s - checked)
        self.setup_s.append(calib.scaled(seconds, cal_before, calib.calibrate()))
        if hooks:
            hooks.end_job()
        self.problems += problems
        outcomes = jobs_mod.run_pass(jobs, hooks)
        digest = hashlib.sha256()
        for o in outcomes:
            digest.update(f"{o.name}\0{o.digest}\n".encode())
        self.digests.append(digest.hexdigest())
        self.passes.append(outcomes)
        return outcomes

    @property
    def outcomes(self):
        return [o for p in self.passes for o in p]

    def unexpected(self):
        return sorted({o.name for o in self.outcomes
                       if not o.passed and o.known_fault is None})

    def correct(self):
        return (not self.problems and not self.unexpected()
                and len(set(self.digests)) == 1)

    def job_times(self):
        """Each job's scaled time, the median over the run's passes.

        Every pass builds the same inputs and runs the same jobs on them.
        Scaling takes out the machine's speed, which on a shared VM moves
        a pass's wall time by up to 1.8x within minutes; the median over
        passes takes out what is left, mostly a calibration caught in a
        burst of load that its job missed, or the reverse.
        """
        runs = {}
        for o in self.outcomes:
            runs.setdefault(o.name, []).append(o.scaled)
        jobs = list({o.name: o for o in self.passes[0]}.values())
        return jobs, [statistics.median(runs[o.name]) for o in jobs]

    def e2e(self):
        jobs, per_job = self.job_times()
        times = sorted(per_job)
        values = {
            "jobs_per_s": len(times) / sum(times),
            "job_p50_s": statistics.median(times),
            "job_tail_s": times[len(times) - TAIL_BEYOND - 1],
            "q_jobs_s": sum(t for o, t in zip(jobs, per_job) if o.field == "Q"),
            "fp_jobs_s": sum(t for o, t in zip(jobs, per_job) if o.field == "Fp"),
            "setup_s": (statistics.median(self.import_s)
                        + statistics.median(self.setup_s)),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}

    def summary(self, workload, out):
        n = len(self.job_times()[0])
        rank = (n - TAIL_BEYOND) / n * 100
        print(f"workload {workload} seed {self.seed}: {len(self.passes)} passes "
              f"of {n} jobs; tail = p{rank:.1f} ({TAIL_BEYOND} of {n} jobs beyond)",
              file=out)
        for i, outcomes in enumerate(self.passes):
            print(f"  pass {i}: set-up {self.setup_s[i]:.3f} s scaled, jobs "
                  f"{sum(o.scaled for o in outcomes):.3f} s scaled, "
                  f"{sum(o.seconds for o in outcomes):.3f} s wall", file=out)
        for o in {o.name: o for o in self.passes[0] if not o.passed}.values():
            print(f"  failed {o.name}: {o.known_fault or 'UNEXPECTED'}", file=out)
        for p in self.problems:
            print(f"  set-up check failed: {p}", file=out)
        if len(set(self.digests)) != 1:
            print(f"  passes disagree: {self.digests}", file=out)
        print(f"digest {workload} seed={self.seed} {self.digests[0]}", file=out)


def run_untraced(run, seconds):
    start = time.perf_counter()
    while len(run.passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        run.import_s.append(_fresh_import_s())
        run.one_pass()


def run_traced(run, seconds, spans_path):
    tracer = tracing.SpanTracer()
    untraced_s = traced_s = 0.0
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_TRACE_ROUNDS or time.perf_counter() - start < seconds:
        untraced_s += sum(o.scaled for o in run.one_pass())
        tracer.install()
        try:
            traced_s += sum(o.scaled for o in run.one_pass(tracer))
        finally:
            tracer.uninstall()
        rounds += 1
    counter = tracing.Counter()
    counter.install()
    try:
        run.one_pass(counter)
    finally:
        counter.uninstall()
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    metrics = {}
    for name, value in tracer.times(rounds).items():
        metrics[name] = {"value": value, "unit": "s"}
    for name, value in counter.metrics().items():
        unit = ("ratio" if name.endswith("_kept")
                else "bytes" if name.startswith("documents.bytes") else "count")
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead"] = {"value": traced_s / untraced_s, "unit": "ratio"}
    covered = tracer.covered_ns / tracer.job_ns if tracer.job_ns else 0.0
    metrics["trace.uncovered_share"] = {"value": 1.0 - covered, "unit": "ratio"}
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    _import_ainfty(os.path.join(ROOT, "src"))
    wl = importlib.import_module(WORKLOADS[args.workload])
    work = os.path.join(ROOT, ".bench_work")
    run = Run(wl, args.seed, os.path.join(work, f"{args.workload}-{os.getpid()}"))
    try:
        if args.trace:
            metrics = run_traced(run, args.seconds, os.path.join(
                work, "spans", f"{args.workload}-seed{args.seed}.tsv"))
        else:
            run_untraced(run, args.seconds)
            metrics = run.e2e()
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
    run.summary(args.workload, sys.stdout)
    # one operation per job in the list, however many passes fitted the run
    print(json.dumps({
        "correct": run.correct(),
        "attempted": len({o.name for o in run.passes[0]}),
        "failed": len({o.name for o in run.outcomes if not o.passed}),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
