"""The three workloads: seeded job lists, the steps each job runs, and
the checks on their results.

A job runner returns a ``JobResult``: the seconds of each timed step, a
failure cause or None, the bytes that go into the workload's report
digest, and its deterministic work counters.  Only the hypcert calls
sit inside the timed steps; writing inputs, reading reports and
checking them do not.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import time
from dataclasses import dataclass, field

import numpy as np
from hypcert import cli, freetree, graphspace, halfplane, sampled

from . import checks, gen

# Large spaces exceed the exhaustive cap of four_point_delta (200
# points), so their delta is sampled with this many quadruples.
SAMPLED_QUADRUPLES = 200_000
PACK_BALL_MAX = 40   # pack: R is the largest radius whose ball has <= 40 points
PACK_R_SHARE = 1.0 / 3.0   # pack: r = R / 3
COVER_DIAM_SHARE = 1.0 / 3.0   # cover: r = diam / 3
INPUT = "input.json"

STEPS = {
    "metric": ("build", "delta", "pack", "cover"),
    "certify": ("classify", "certify"),
    "action": ("margulis", "stats", "entropy"),
}
# tree pairs per H2 pair: half and half in certify; two to one in action,
# whose tree jobs take twice as long as its H2 jobs, so that the median
# job falls inside the tree mode instead of between the two modes
TREES = {"certify": 1, "action": 2}


@dataclass
class JobResult:
    steps: dict = field(default_factory=dict)
    failure: str = None
    wrong: bool = False
    record: bytes = b""
    counters: dict = field(default_factory=dict)
    latency: float = 0.0


def make_jobs(workload, seed, cycles, stream="jobs"):
    """The seeded job list; the program sees only what is in it."""
    # string seeds hash with sha512, independent of PYTHONHASHSEED
    rng = random.Random(f"perfbench/{workload}/{stream}/{seed}")
    if workload == "metric":
        jobs = gen.metric_jobs(rng, cycles)
        for job in jobs:
            job["center_u"] = rng.random()
            job["delta_seed"] = rng.getrandbits(32)
        return jobs
    jobs = gen.group_jobs(rng, cycles, TREES[workload])
    eps = gen.Strata(rng, len(jobs))
    for job in jobs:
        job["point"] = "0,1" if job["spec"]["model"] == "h2" else "e"
        job["eps1"] = job["built"][0][-1] * eps.uniform("eps1", 1.1, 1.6)
    return jobs


# ------------------------------------------------------------ metric

def run_metric(job):
    res = JobResult()
    fam = job["family"]
    t0 = time.perf_counter()
    if fam == "h2":
        pts = halfplane.sample_ball(1j, job["radius"], job["n"],
                                    random.Random(job["seed"]))
        space = sampled.from_points(pts, halfplane.dist)
    elif fam == "grid":
        g = graphspace.grid_graph(job["side"])
        space = sampled.from_points(g.vertices, g.dist)
    elif fam == "graph":
        g = graphspace.random_connected_graph(job["n"], job["chords"],
                                              job["seed"])
        space = sampled.from_points(g.vertices, g.dist)
    else:
        t = freetree.FreeTreeSpace(job["rank"])
        space = sampled.from_points(t.ball("", job["radius"]), t.dist)
    res.steps["build"] = time.perf_counter() - t0

    D = space.dist
    n = len(space)
    exhaustive = n <= sampled.EXHAUSTIVE_CAP
    t0 = time.perf_counter()
    est = sampled.four_point_delta(
        space, mode="exhaustive" if exhaustive else "sampled",
        n_quadruples=SAMPLED_QUADRUPLES, seed=job["delta_seed"])
    res.steps["delta"] = time.perf_counter() - t0

    c = min(int(job["center_u"] * n), n - 1)
    radii = np.unique(D[c])
    R = float(max(x for x in radii if (D[c] <= x + checks.TOL).sum()
                  <= PACK_BALL_MAX))
    r = R * PACK_R_SHARE
    t0 = time.perf_counter()
    prof = sampled.packing_number(space, space.points[c], R, r, mode="exact")
    res.steps["pack"] = time.perf_counter() - t0

    r_cov = float(D.max()) * COVER_DIAM_SHARE
    t0 = time.perf_counter()
    cover = sampled.covering_number(space, space.points, r_cov, mode="greedy")
    res.steps["cover"] = time.perf_counter() - t0

    witness = [space.index(p) for p in prof.witness]
    problems = (checks.check_delta(fam, D, est.delta_hat, exhaustive,
                                   side=job.get("side"))
                + checks.check_pack(D, c, R, r, prof.pack_greedy,
                                    prof.pack_exact, witness)
                + checks.check_cover(D, r_cov, cover))
    if problems:
        res.failure, res.wrong = "check: " + problems[0], True
    res.record = json.dumps(
        [fam, n, repr(est.delta_hat), est.quadruples_checked,
         prof.pack_greedy, prof.pack_exact, witness, cover]).encode()
    res.counters = {"quadruples": est.quadruples_checked,
                    "ball_points": int((D[c] <= R + checks.TOL).sum()),
                    "pack_exact": prof.pack_exact, "picks": cover}
    return res


# ------------------------------------------------- CLI-driven workloads

def _cause(text):
    """First stderr line with its trailing value cut off, so causes
    group: "input error: not an upper half-plane point [nan]"."""
    lines = [x for x in text.strip().splitlines()
             if x and not x.startswith("elapsed:")]
    line = lines[0] if lines else "no message"
    head, sep, tail = line.rpartition(": ")
    if sep and head and re.search(r"[\d(]", tail):
        line = head + (" [nan]" if "nan" in tail else "")
    return line


def _cli(res, step, argv):
    """Run one CLI command in-process; returns its report or None.

    Inputs and reports are files in the working directory, named
    relatively, so that the manifest in every report is the same in any
    checkout and the digest repeats."""
    out = step + ".json"
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--output", out])
    except Exception as e:  # the program let an exception escape main
        res.steps[step] = time.perf_counter() - t0
        res.failure = f"{step} raised {type(e).__name__}: {_cause(str(e))}"
        res.record += f"{step} raised {type(e).__name__}\n".encode()
        return None
    res.steps[step] = time.perf_counter() - t0
    if code != 0:
        res.failure = f"{step} exit {code}: {_cause(err.getvalue())}"
        res.record += f"{step} exit {code}\n".encode()
        return None
    with open(out, "rb") as fh:
        data = fh.read()
    res.record += data
    return json.loads(data)


def _write_input(job):
    with open(INPUT, "w") as fh:
        json.dump(job["spec"], fh)
    return INPUT


def _check(res, step, problems):
    if problems and res.failure is None:
        res.failure, res.wrong = f"{step} check: {problems[0]}", True


def run_certify(job):
    res = JobResult()
    inp = _write_input(job)
    fam = job["spec"]["model"]
    rep = _cli(res, "classify", ["classify", "--input", inp])
    if rep is None:
        return res
    _check(res, "classify", checks.check_classify(rep, job["built"], fam))
    cert = _cli(res, "certify", ["certify", "--input", inp])
    if cert is None:
        return res
    ell = rep["result"]["generators"][0]["ell"]
    _check(res, "certify", checks.check_certify(cert, ell))
    stats = cert["result"]["search_stats"]
    res.counters = {"N": cert["result"]["N"],
                    "candidates": stats["candidates"], "words": stats["words"]}
    return res


def run_action(job):
    res = JobResult()
    inp = _write_input(job)
    pt = job["point"]
    eps1 = job["eps1"]
    gap = _cli(res, "margulis",
               ["margulis", "--input", inp, "--eps1", repr(eps1),
                "--eps2", repr(1.5 * eps1), "--center", pt])
    if gap is None:
        return res
    _check(res, "margulis", checks.check_margulis(gap))
    rep = _cli(res, "stats", ["stats", "--input", inp, "--base", pt])
    if rep is None:
        return res
    _check(res, "stats", checks.check_stats(rep))
    # the default --base is the tree identity "e"; H2 needs a point
    base = [] if pt == "e" else ["--base", pt]
    ent = _cli(res, "entropy", ["entropy", "--input", inp, "--orbit",
                                "--context", "space"] + base)
    if ent is None:
        return res
    _check(res, "entropy", checks.check_entropy(ent))
    res.counters = {"inner": gap["result"]["inner_count"],
                    "outer": gap["result"]["outer_count"],
                    "orbit_points": ent["result"]["counts"][-1][1]}
    return res


RUNNERS = {"metric": run_metric, "certify": run_certify, "action": run_action}
