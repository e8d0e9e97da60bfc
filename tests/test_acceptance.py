"""Acceptance gate: the fourteen headline checks, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py``; every test prints its
verdict so the gate reads as a checklist even under output capture.
"""

import csv
import json
import math
import random
import sys
import time

from hypcert import (bounds, cli, freetree, graphspace, halfplane, isometry,
                     pingpong, sampled)
from helpers import rotation_about_i
from test_bounds import axis_proximity_length
from test_pingpong import end_set_disjointness

H2 = halfplane.H2


def verdict(num, label, ok):
    line = f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}"
    print(line, file=sys.__stdout__)
    assert ok, line


def test_criterion_01_tree_exactness():
    T = freetree.FreeTreeSpace(2)
    pts = T.ball("", 3)[:100]
    sp = sampled.from_points(pts, T.dist)
    t0 = time.monotonic()
    est = sampled.four_point_delta(sp)
    elapsed = time.monotonic() - t0
    verdict(1, "tree four-point delta is exactly 0",
            est.delta_hat == 0.0 and elapsed < 1.0)


def test_criterion_02_grid_growth_signature():
    vals = {}
    for n in (8, 16):
        G = graphspace.grid_graph(n)
        sp = sampled.from_points(G.vertices, G.dist)
        if len(sp) <= 200:
            vals[n] = sampled.four_point_delta(sp).delta_hat
        else:
            vals[n] = sampled.four_point_delta(
                sp, mode="sampled", n_quadruples=200000, seed=0).delta_hat
    verdict(2, "unit grid delta grows linearly",
            vals[16] >= 1.8 * 0.9 * vals[8])


def test_criterion_03_packing_fixtures_and_chain():
    T = freetree.FreeTreeSpace(2)
    sp = sampled.from_points(T.ball("", 2), T.dist)
    t0 = time.monotonic()
    p1 = sampled.packing_number(sp, "", 1.0, 1.0).pack_exact
    p2 = sampled.packing_number(sp, "", 2.0, 1.0).pack_exact
    fast = time.monotonic() - t0 < 2.0
    chain_ok = True
    for seed in range(100):
        G = graphspace.random_connected_graph(10, 5, seed)
        gsp = sampled.from_points(G.vertices, G.dist)
        for r in (0.5, 1.0):
            p2r = sampled.packing_number(gsp, G.vertices[0], math.inf,
                                         2.0 * r).pack_exact
            c2r = sampled.covering_number(gsp, gsp.points, 2.0 * r)
            pr = sampled.packing_number(gsp, G.vertices[0], math.inf,
                                        r).pack_exact
            chain_ok = chain_ok and (p2r <= c2r <= pr)
    verdict(3, "exact tree packings and the packing chain",
            p1 == 1 and p2 == 4 and fast and chain_ok)


def test_criterion_04_propagation_bound():
    T = freetree.FreeTreeSpace(2)
    sp = sampled.from_points(T.ball("", 2), T.dist)
    P0, r0 = 4, 1.0
    # verify the fixture really is P0-packed at scale r0 everywhere: at
    # most P0 points of each ball B(x, 3 r0) pairwise more than 2 r0 apart
    # (at R = r0 any metric space reads 1)
    packed = all(
        sampled.packing_number(sp, x, 3.0 * r0, r0).pack_exact <= P0
        for x in sp.points)
    ok = packed
    for R in (1.0, 1.5, 2.0):
        for r in (0.5, 0.75, 1.0):
            measured = sampled.packing_number(sp, "", R, r).pack_exact
            ok = ok and measured <= bounds.packing_bound(P0, r0, R, r)
    verdict(4, "measured packings below the propagation formula", ok)


def test_criterion_05_classification_cross_check():
    rng = random.Random(11)
    worst = 0.0
    for _ in range(50):
        while True:
            a, b, c, d = (rng.uniform(-3.0, 3.0) for _ in range(4))
            if a * d - b * c > 1e-3:
                g = halfplane.Moebius(a, b, c, d)
                if abs(g.trace()) > 2.0 + 1e-3:
                    break
        ell = 2.0 * math.acosh(abs(g.trace()) / 2.0)
        worst = max(worst, abs(ell - isometry.orbit_translation_length(g)))
    g = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
    power_ok = all(
        abs(isometry.classify(g ** k, H2).ell - k * 2.0 * math.log(2.0)) <= 1e-9
        for k in range(1, 9))
    verdict(5, "trace vs orbit translation lengths", worst < 1e-6 and power_ok)


def test_criterion_06_margulis_gap():
    g = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
    pts = halfplane.sample_ball(1j, 3.0, 1000, random.Random(0))
    t0 = time.monotonic()
    rep = isometry.domain_gap_report(H2, g, 1.5, 2.0, pts)
    elapsed = time.monotonic() - t0
    verdict(6, "sampled domain gap respects the floor",
            rep.min_gap_observed >= 0.25 - 0.02 and elapsed < 10.0)


def test_criterion_07_end_neighbourhood_disjointness():
    a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
    b = halfplane.Moebius(1.25, 0.75, 0.75, 1.25)
    delta_hat = 1.0
    data = pingpong.pingpong_data(H2, a, b, 56, delta_hat)
    clear = end_set_disjointness(H2, data, 65.0 * delta_hat)
    control = end_set_disjointness(H2, data, 0.0)
    verdict(7, "end neighbourhoods disjoint at 65 delta, overlap at 0",
            clear["disjoint"] and not control["disjoint"])


def test_criterion_08_free_certificate(tmp_path):
    spec = {"model": "h2", "generators": [
        {"name": "a", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
        {"name": "b", "matrix": [[1.25, 0.75], [0.75, 1.25]]}]}
    inp = tmp_path / "pair.json"
    inp.write_text(json.dumps(spec))
    out = tmp_path / "cert.json"
    t0 = time.monotonic()
    code = cli.main(["certify", "--input", str(inp), "--delta", "1",
                     "--depth", "8", "--output", str(out)])
    elapsed = time.monotonic() - t0
    rep = json.loads(out.read_text())["result"]
    verdict(8, "certified free pair at N = 56",
            code == 0 and rep["N"] == 56 and rep["valid"]
            and rep["oracle_passed"] and elapsed < 30.0)


def test_criterion_09_sanov_oracle():
    s1 = halfplane.Moebius(1.0, 2.0, 0.0, 1.0)
    s2 = halfplane.Moebius(1.0, 0.0, 2.0, 1.0)
    passed, _ = pingpong.word_oracle(H2, [("a", s1), ("b", s2)], 8, "group")
    r = rotation_about_i(math.pi / 2.0)
    failed, counter = pingpong.word_oracle(H2, [("g", r)], 8, "group")
    verdict(9, "free-pair oracle and the order-4 counterexample",
            passed and not failed and counter == "g^4")


def test_criterion_10_entropy():
    T = freetree.FreeTreeSpace(2)
    counts = bounds.ball_growth_counts(T, "", list(range(1, 13)))
    est = bounds.entropy_estimate(counts)["estimate"]
    cfg = bounds.BoundsConfig(P0=4, r0=0.5, N=1)
    E0 = cfg.derived().E0
    verdict(10, "tree growth rate near log 3 and below E0",
            abs(est - math.log(3.0)) <= 0.05 * math.log(3.0) and est <= E0)


def test_criterion_11_overlap_bound():
    eps0 = 0.1
    fixtures = [
        (H2, halfplane.Moebius(2.0, 0.0, 0.0, 0.5),
         halfplane.Moebius(1.25, 0.75, 0.75, 1.25)),
        (freetree.FreeTreeSpace(2), "ab", "ba"),
    ]
    ok = True
    for space, a, b in fixtures:
        if not isinstance(space, halfplane.HalfPlane):
            if isometry.elementary_profiles(space, isometry.classify(a, space),
                                            isometry.classify(b, space)):
                ok = False
        ell = isometry.classify(a, space).ell
        length = axis_proximity_length(space, a, b, eps0 / 37.0)
        ok = ok and length < 5.0 * ell + 0.05
    verdict(11, "axis proximity length below 5 ell", ok)


def test_criterion_12_systole_consistency():
    cfg = bounds.BoundsConfig(P0=4, r0=0.5, eps0=0.1, N=1)
    a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
    b = halfplane.Moebius(1.25, 0.75, 0.75, 1.25)
    pts = halfplane.sample_ball(1j, 2.0, 80, random.Random(0))
    st = bounds.action_stats(H2, [("a", a), ("b", b)], pts, 2, cfg)
    floor_empty = bounds.systole_floor(cfg, st.nilrad_plus_estimate)
    thick_ok = (st.nilrad_plus_estimate == -math.inf
                and floor_empty == cfg.eps0
                and min(st.sys_free_at.values()) >= cfg.eps0)
    # thin-part family: short translations force a nonempty thin part
    thin_ok = True
    for s in (0.02, 0.05):
        e = math.exp(s / 2.0)
        g = halfplane.Moebius(e, 0.0, 0.0, 1.0 / e)
        st2 = bounds.action_stats(H2, [("g", g)], pts, 4, cfg)
        floor = bounds.systole_floor(cfg, st2.nilrad_plus_estimate)
        thin_ok = thin_ok and (st2.nilrad_plus_estimate > -math.inf) \
            and min(st2.sys_free_at.values()) >= floor - 1e-6
    verdict(12, "systole floors on thick and thin fixtures",
            thick_ok and thin_ok)


def test_criterion_13_degeneration(tmp_path):
    spec = {"model": "h2",
            "a": {"matrix": [[2.0, 0.0], [0.0, 0.5]]},
            "b": {"poly_matrix": [[[0.5, -2.0, 3.0, -2.0, 1.0], [0.0]],
                                  [[1.0], [2.0]]]},
            "t_range": [0.0, 1.0], "steps": 64}
    inp = tmp_path / "family.json"
    inp.write_text(json.dumps(spec))
    out = tmp_path / "traj.csv"
    code = cli.main(["degenerate", "--input", str(inp),
                     "--output", str(out)])
    rows = list(csv.DictReader(out.read_text().splitlines()))
    tail = rows[48:]
    traces = [float(r["trace"]) for r in tail]
    ells = [float(r["ell"]) for r in tail]
    ok = (code == 0
          and abs(traces[-1] - 2.0) < 1e-3
          and ells[-1] < 1e-2
          and all(x >= y - 1e-15 for x, y in zip(traces, traces[1:]))
          and all(x >= y - 1e-15 for x, y in zip(ells, ells[1:])))
    verdict(13, "family degenerates monotonically to parabolic", ok)


def test_criterion_14_determinism(tmp_path):
    T = freetree.FreeTreeSpace(2)
    sp = sampled.from_points(T.ball("", 2), T.dist)
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(sp.to_json()))
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps({"model": "h2", "generators": [
        {"name": "a", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
        {"name": "b", "matrix": [[1.25, 0.75], [0.75, 1.25]]}]}))
    fam_file = tmp_path / "family.json"
    fam_file.write_text(json.dumps(
        {"model": "h2", "a": {"matrix": [[2.0, 0.0], [0.0, 0.5]]},
         "b": {"poly_matrix": [[[0.5, -2.0, 3.0, -2.0, 1.0], [0.0]],
                               [[1.0], [2.0]]]}}))
    commands = [
        ["delta", "--input", str(space_file), "--mode", "sampled",
         "--quadruples", "500", "--seed", "7"],
        ["pack", "--input", str(space_file), "--center", "e",
         "--R", "2", "--r", "1"],
        ["classify", "--input", str(pair_file)],
        ["certify", "--input", str(pair_file)],
        ["margulis", "--input", str(pair_file), "--eps1", "1.5",
         "--eps2", "2.0"],
        ["entropy", "--input", str(pair_file), "--orbit", "--word-cap", "4",
         "--radii", "1,2,3,4,5", "--base", "0,1", "--context", "space"],
        ["bounds"],
        ["stats", "--input", str(pair_file), "--word-cap", "2",
         "--base", "0,1", "--sample-size", "40"],
        ["degenerate", "--input", str(fam_file), "--steps", "16"],
    ]
    ok = True
    for argv in commands:
        o1, o2 = tmp_path / "r1.out", tmp_path / "r2.out"
        c1 = cli.main(argv + ["--output", str(o1)])
        c2 = cli.main(argv + ["--output", str(o2)])
        same = o1.read_bytes() == o2.read_bytes()
        ok = ok and c1 == c2 == 0 and same
    verdict(14, "identical manifests give byte-identical reports", ok)
