"""hypcert benchmark: three seeded closed-loop workloads.

    python3 perfbench/run.py --workload metric|certify|action \
        [--seed N] [--seconds S] [--trace 0|1]

One client runs a seeded job list in order, in this process, with no
worker threads; BLAS and OpenMP are pinned to one thread.  The job count
is a whole number of workload cycles, round(seconds / CYCLE_SECONDS),
where CYCLE_SECONDS is a cycle's duration on a 2-core x86 sandbox; so
every run of a seed does the same work, and its counters and report
digest repeat exactly.  At the default 36 s a run has 32 metric jobs,
48 certify jobs or 24 action jobs.

The last stdout line is the result, ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it is a summary:
failure causes, work counters, per-command medians and the sha256 of
every job's report.

Definitions:
  setup_s      median time to import hypcert and hypcert.cli in a fresh
               interpreter, over SETUP_REPEATS of them spread between
               the jobs, after one that compiles the bytecode
  jobs_per_s   jobs attempted / charged job seconds; a failed job is
               charged the workload's latency limit LIMIT_S
  job_p50_s    median latency of the jobs that completed
  job_tail_s   percentile TAIL_PCT of the same latencies: the highest
               that keeps at least ten completed jobs beyond it at the
               default run length (certify: about 27 of its 48 jobs
               complete at the seed commit)
  peak_rss_mb  ru_maxrss of this process
A job fails on an exception, an unexpected exit code, a failed check or
overrunning LIMIT_S; ``correct`` is false when any check rejected a
result the program returned as a success.

The seeds are DEFAULT_SEED and HELDOUT_SEED; a performance claim made
on the default seed is rechecked on the held-out one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

DEFAULT_SEED = 1
HELDOUT_SEED = 9001
WORKLOADS = ("metric", "certify", "action")
CYCLE_SECONDS = {"metric": 9.0, "certify": 6.0, "action": 18.0}
LIMIT_S = {"metric": 20.0, "certify": 4.0, "action": 10.0}
TAIL_PCT = {"metric": 68, "certify": 60, "action": 55}
WARMUP_JOBS = 1      # an H2 job: it runs every command of its workload
TRACE_JOBS = 8       # jobs replayed with the per-layer wrappers on
SETUP_REPEATS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import hypcert, hypcert.cli; "
                "print(repr(time.perf_counter() - t))")


def percentile(xs, pct):
    """Linear interpolation between order statistics."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class SetupProbe:
    """Times imports in fresh interpreters.  The probes are spread over
    the run, so a burst of load on a shared machine moves few of them."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times = []
        self.probe()  # compiles the bytecode; not kept
        self.times.clear()

    def probe(self):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                             env=self.env, cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        self.times.append(float(out.stdout))


def run_jobs(workload, jobs, enforce_limit=True, setup=None):
    from perfbench import workloads
    runner = workloads.RUNNERS[workload]
    probe_at = {round(k * len(jobs) / SETUP_REPEATS)
                for k in range(SETUP_REPEATS)} if setup else set()
    results = []
    for i, job in enumerate(jobs):
        if i in probe_at:
            setup.probe()
        try:
            res = runner(job)
        except Exception as e:  # a library call of the job raised
            res = workloads.JobResult(
                failure=f"raised {type(e).__name__}: {e}")
        res.latency = sum(res.steps.values())
        if (enforce_limit and res.failure is None
                and res.latency > LIMIT_S[workload]):
            res.failure = f"overran the {LIMIT_S[workload]} s limit"
        results.append(res)
    return results


def end_to_end(workload, results, setup_s):
    limit = LIMIT_S[workload]
    done = [r.latency for r in results if r.failure is None]
    charged = sum(limit if r.failure else r.latency for r in results)
    if not done:  # nothing completed: every latency sits at the limit
        done = [limit]
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(results) / charged, "1/s"),
        "job_p50_s": (statistics.median(done), "s"),
        "job_tail_s": (percentile(done, TAIL_PCT[workload]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def command_medians(workload, results):
    """Median latency of each step over the jobs that completed; 0 for
    the steps of the other workloads."""
    from perfbench import workloads
    out = {}
    for wl, steps in workloads.STEPS.items():
        for step in steps:
            if step == "classify":
                continue
            xs = [r.steps[step] for r in results
                  if wl == workload and r.failure is None]
            out[step + "_p50_s"] = (statistics.median(xs) if xs else 0.0, "s")
    return out


def summary(workload, seed, results, digest, trace_counts=None):
    counters = Counter()
    for r in results:
        counters.update(r.counters)
    failed = [r for r in results if r.failure]
    return {
        "workload": workload, "seed": seed, "jobs": len(results),
        "completed": len(results) - len(failed),
        "fail_ratio": len(failed) / len(results),
        "failure_causes": dict(Counter(r.failure for r in failed)),
        "tail_percentile": TAIL_PCT[workload],
        "limit_s": LIMIT_S[workload],
        "work": dict(sorted(counters.items())),
        "command_p50_s": {k: v for k, (v, _) in
                          command_medians(workload, results).items() if v},
        "report_sha256": digest,
        **({"traced_work": trace_counts} if trace_counts else {}),
    }


def digest_of(results):
    h = hashlib.sha256()
    for k, r in enumerate(results):
        h.update(f"job {k}\n".encode())
        h.update(r.record)
    return h.hexdigest()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "hypcert" / "__init__.py").is_file():
        print(f"hypcert sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench import trace, workloads

    setup = SetupProbe()
    import hypcert
    if Path(hypcert.__file__).resolve().parent != SRC / "hypcert":
        print(f"imported hypcert from {hypcert.__file__}", file=sys.stderr)
        return 2

    cycles = max(1, round(args.seconds / CYCLE_SECONDS[args.workload]))
    jobs = workloads.make_jobs(args.workload, args.seed, cycles)
    warm = workloads.make_jobs(args.workload, args.seed, 1,
                               stream="warmup")[:WARMUP_JOBS]
    # the CLI reads and writes its files in a scratch directory of the
    # checkout, removed at the end
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    os.chdir(workdir)
    try:
        run_jobs(args.workload, warm, enforce_limit=False)
        results = run_jobs(args.workload, jobs, setup=setup)
        metrics = end_to_end(args.workload, results,
                             statistics.median(setup.times))
        digest = digest_of(results)
        trace_counts = None
        if args.trace:
            replay = jobs[:TRACE_JOBS]
            tr = trace.Tracer()
            saved = trace.install(tr)
            try:
                traced = run_jobs(args.workload, replay, enforce_limit=False)
            finally:
                trace.remove(saved)
            untraced_s = sum(r.latency for r in results[:len(replay)])
            metrics = trace.per_layer(tr)
            metrics["trace.overhead_ratio"] = (
                sum(r.latency for r in traced) / untraced_s, "ratio")
            metrics.update(command_medians(args.workload, results))
            metrics["fail_ratio"] = (
                sum(1 for r in results if r.failure) / len(results), "ratio")
            trace_counts = {k: v for k, (v, u) in metrics.items()
                            if u == "count" and v}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    print("summary " + json.dumps(summary(args.workload, args.seed, results,
                                          digest, trace_counts)))
    print(json.dumps({
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": sum(1 for r in results if r.failure),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
