"""Tests of the benchmark itself: PYTHONPATH=src python3 -m pytest -q perfbench"""

import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, gen, trace

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


# ------------------------------------------------------------ tracing

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    # main [0, 10] > A [1, 7] > (B [2, 3], B [4, 6]) ; then A [8, 9]
    clk = FakeClock()
    tr = trace.Tracer(clock=clk)
    for t, op, name in ((0, "start", "cli.main"), (1, "start", "pingpong.a"),
                        (2, "start", "halfplane.b"), (3, "stop", None),
                        (4, "start", "halfplane.b"), (6, "stop", None),
                        (7, "stop", None), (8, "start", "pingpong.a"),
                        (9, "stop", None), (10, "stop", None)):
        clk.now = float(t)
        tr.start(name) if op == "start" else tr.stop()
    assert dict(tr.calls) == {"cli.main": 1, "pingpong.a": 2, "halfplane.b": 2}
    assert tr.self_s["halfplane.b"] == 3.0
    assert tr.self_s["pingpong.a"] == (6.0 - 3.0) + 1.0
    assert tr.self_s["cli.main"] == 10.0 - 7.0
    assert sum(tr.self_s.values()) == 10.0  # self times tile the root span


def test_errors_count_per_module():
    tr = trace.Tracer(clock=FakeClock())
    tr.start("cli.main")
    tr.start("halfplane.dist")
    tr.stop(error=True)
    tr.stop()
    assert tr.counts["halfplane.errors"] == 1
    assert tr.counts["cli.errors"] == 0


def _current():
    out = []
    for module, path, *_ in trace.WRAPS + trace.GENERATORS:
        owner, attr = trace._owner(module, path)
        out.append(owner.__dict__[attr])
    return out


def test_wrappers_removed_after_traced_run():
    from hypcert import freetree, halfplane, sampled
    before = _current()
    tr = trace.Tracer()
    saved = trace.install(tr)
    try:
        assert halfplane.dist is not before[0]
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        (a @ a)(1j)
        freetree.reduce_word("abBA")
        t = freetree.FreeTreeSpace(2)
        sampled.from_points(t.ball("", 1), t.dist)
    finally:
        trace.remove(saved)
    after = _current()
    assert all(x is y for x, y in zip(before, after))
    assert tr.calls["halfplane.Moebius.matmul"] == 1
    assert tr.calls["halfplane.Moebius.call"] == 1
    assert tr.counts["freetree.reduce_word.chars"] >= 4
    assert tr.calls["sampled.SampledSpace.validate"] == 1
    # untraced calls no longer reach the tracer
    calls = dict(tr.calls)
    halfplane.dist(1j, 2j)
    assert dict(tr.calls) == calls


def test_per_layer_reports_every_metric_even_when_idle():
    m = trace.per_layer(trace.Tracer())
    bench = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    names = {x["name"] for x in bench["per_layer"]}
    extra = {"trace.overhead_ratio", "fail_ratio", "build_p50_s",
             "delta_p50_s", "pack_p50_s", "cover_p50_s", "certify_p50_s",
             "margulis_p50_s", "stats_p50_s", "entropy_p50_s"}
    assert set(m) | extra == names
    assert all(v == 0 for v, _ in m.values())


# --------------------------------------------------------- generators

@pytest.mark.parametrize("seed", range(20))
def test_h2_generators_have_requested_ell_and_endpoints(seed):
    rng = random.Random(seed)
    orient = gen.ORIENTATIONS[seed % 4]
    ell_u = (rng.random(), rng.random())
    spec, built = gen.h2_pair(rng, orient, ell_u)
    ends = [x for u, v, _ in built for x in (u, v)]
    assert all(-3 <= x <= 3 for x in ends)
    assert all(abs(x - y) >= 0.3 for i, x in enumerate(ends)
               for y in ends[i + 1:])
    for g, (u, v, ell), up, e in zip(spec["generators"], built, orient, ell_u):
        (a, b), (c, d) = g["matrix"]
        assert (u < v) == up
        assert ell == pytest.approx(0.8 + 1.7 * e, rel=1e-12)
        assert a * d - b * c == pytest.approx(1.0, abs=1e-12)
        # translation length: |trace| = 2 cosh(ell / 2)
        assert a + d == pytest.approx(2.0 * math.cosh(ell / 2.0), rel=1e-12)
        for x in (u, v):  # fixed points: c x^2 + (d - a) x - b = 0
            assert c * x * x + (d - a) * x - b == pytest.approx(0.0, abs=1e-9)
        # the derivative at a fixed point x is (c x + d)^-2: v attracts
        assert abs(c * v + d) > 1.0 > abs(c * u + d)


@pytest.mark.parametrize("seed", range(20))
def test_tree_generators_are_cyclically_reduced_with_distinct_axes(seed):
    rank, lengths = 2 + seed % 2, (1 + seed % 3, 1 + seed // 3 % 3)
    spec, built = gen.tree_pair(random.Random(seed), rank, lengths)
    assert spec["params"]["rank"] == rank
    letters = "abc"[:rank]
    (u, _), (w, _) = built
    for (word, ell), n in zip(built, lengths):
        assert len(word) == n and ell == n
        assert set(word) <= set(letters + letters.upper())
        assert all(word[i] != word[i + 1].swapcase()
                   for i in range(len(word) - 1))
        assert word[0] != word[-1].swapcase()
    # distinct axes: no common power, as a and a^2 or a and a^-1 have
    assert not any(u * (12 // len(u)) == x * (12 // len(x))
                   for x in (w, w[::-1].swapcase()))


def test_strata_spread_draws_evenly():
    st = gen.Strata(random.Random(3), 10)
    draws = sorted(st.u("x") for _ in range(10))
    assert [int(10 * u) for u in draws] == list(range(10))
    st = gen.Strata(random.Random(4), 6)
    assert sorted(st.integer("n", 1, 3) for _ in range(6)) == [1, 1, 2, 2, 3, 3]


def test_job_lists_balance_families():
    jobs = gen.group_jobs(random.Random(1), 2)
    models = [j["spec"]["model"] for j in jobs]
    assert models == ["h2", "free_tree"] * 8
    ups = [j["built"][0][0] < j["built"][0][1] for j in jobs[::2]]
    assert ups == [True, True, False, False] * 2
    ranks = [j["spec"]["params"]["rank"] for j in jobs[1::2]]
    assert ranks == [2, 3] * 4
    jobs = gen.group_jobs(random.Random(1), 1, trees=2)
    assert len(jobs) == 12
    assert [j["spec"]["model"] for j in jobs[:3]] == ["h2", "free_tree",
                                                      "free_tree"]
    spaces = gen.metric_jobs(random.Random(1), 3)
    large = [s for s in spaces if s.get("n", 0) >= 400 or s.get("side", 0) >= 20]
    assert len(large) == len(spaces) // 4
    assert [s["family"] for s in spaces[:8]] == [
        "h2", "grid", "graph", "tree", "h2", "grid", "graph", "tree"]


# ------------------------------------------------------------- checks

def tree_metric(n):
    # a path is a tree: delta 0
    idx = np.arange(n)
    return np.abs(idx[:, None] - idx[None, :]).astype(float)


def grid_metric(m):
    pts = np.array([(i, j) for i in range(m) for j in range(m)])
    return np.abs(pts[:, None, :] - pts[None, :, :]).sum(-1).astype(float)


def test_delta_checks_reject_planted_results():
    T = tree_metric(6)
    assert checks.check_delta("tree", T, 0.0, True) == []
    assert checks.check_delta("tree", T, 0.5, True)
    G = grid_metric(5)
    assert checks.check_delta("grid", G, 4.0, True, side=5) == []
    assert checks.check_delta("grid", G, 3.0, True, side=5)
    assert checks.check_delta("grid", G, 3.0, False, side=5) == []
    assert checks.check_delta("grid", G, 4.5, False, side=5)
    H = np.array([[0, 3, 3], [3, 0, 3], [3, 3, 0]], dtype=float)
    assert checks.check_delta("h2", H, 0.69, True) == []
    assert checks.check_delta("h2", H, 0.7, True)
    assert checks.check_delta("graph", H, 1.6, True)


def test_pack_check_rejects_planted_results():
    D = tree_metric(10)  # ball B(0, 6) = {0..6}; r = 1 needs gaps > 2
    assert checks.check_pack(D, 0, 6.0, 1.0, 3, 3, [0, 3, 6]) == []
    assert checks.check_pack(D, 0, 6.0, 1.0, 4, 3, [0, 3, 6])   # greedy > exact
    assert checks.check_pack(D, 0, 6.0, 1.0, 3, 3, [0, 2, 6])   # within 2r
    assert checks.check_pack(D, 0, 6.0, 1.0, 3, 3, [0, 3, 9])   # off the ball
    assert checks.check_pack(D, 0, 6.0, 1.0, 3, 4, [0, 3, 6])   # short witness


def test_cover_check_rejects_planted_results():
    D = tree_metric(10)  # r = 1: separated set {0, 3, 6, 9}
    assert len(checks.separated_set(D, 1.0)) == 4
    assert checks.check_cover(D, 1.0, 4) == []
    assert checks.check_cover(D, 1.0, 3)
    assert checks.check_cover(D, 1.0, 11)


def test_command_checks_reject_planted_results():
    ell = 1.3
    cls = {"result": {"generators": [
        {"name": "a", "kind": "hyperbolic", "ell": ell},
        {"name": "b", "kind": "hyperbolic", "ell": 2.0}]}}
    built = [(0.0, 1.0, ell), (2.0, -1.0, 2.0)]
    assert checks.check_classify(cls, built, "h2") == []
    cls["result"]["generators"][0]["ell"] = ell + 1e-6
    assert checks.check_classify(cls, built, "h2")
    cls["result"]["generators"][0]["kind"] = "parabolic"
    assert checks.check_classify(cls, built, "h2")

    cert = {"manifest": {"config": {"delta": 1.0}},
            "result": {"valid": True, "M0": 0.5, "N": 60}}
    assert checks.check_certify(cert, ell) == []  # ceil(77.5 / 1.3) = 60
    cert["result"]["N"] = 61
    assert checks.check_certify(cert, ell)
    cert["result"].update(N=60, valid=False)
    assert checks.check_certify(cert, ell)

    gap = {"manifest": {"config": {"sample_size": 10}},
           "result": {"inner_count": 4, "outer_count": 6}}
    assert checks.check_margulis(gap) == []
    gap["result"]["outer_count"] = 7
    assert checks.check_margulis(gap)

    st = {"manifest": {"config": {"eps0": 0.1}},
          "result": {"sys_min": 0.5, "sys_free_min": 0.5, "systole_floor": 0.1}}
    assert checks.check_stats(st) == []
    st["result"]["sys_free_min"] = 0.4
    assert checks.check_stats(st)
    st["result"].update(sys_free_min=0.5, systole_floor=0.2)
    assert checks.check_stats(st)

    ent = {"result": {"counts": [[1, 1], [2, 5], [3, 5]], "estimate": 0.4}}
    assert checks.check_entropy(ent) == []
    ent["result"]["counts"][2][1] = 4
    assert checks.check_entropy(ent)
    ent["result"].update(counts=[[1, 1], [2, 5]], estimate="nan")
    assert checks.check_entropy(ent)
