import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcert import cli, freetree, graphspace, halfplane, sampled
from hypcert.errors import BudgetError, InputError, PreconditionError
from helpers import delta_sampled_reference

H2 = halfplane.H2


def euclidean_square():
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    return sampled.from_points(pts, lambda p, q: math.dist(p, q))


def tied_squares():
    """Two 4-cycles {0, 6, 7, 8} and {2, 3, 4, 5} at distance 2, and 1 a
    twin of 0 at distance 1.  The largest defect, 1, is reached first in
    lexicographic order by (0, 6, 7, 8), after (1, 6, 7, 8) in the same
    middle index and (2, 3, 4, 5) in a smaller one."""
    D = np.full((9, 9), 2.0)
    np.fill_diagonal(D, 0.0)
    for cycle in ((0, 6, 7, 8), (2, 3, 4, 5)):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            D[a, b] = D[b, a] = 1.0
    D[1] = D[:, 1] = D[0]
    D[0, 1] = D[1, 0] = 1.0
    D[1, 1] = 0.0
    return sampled.SampledSpace(tuple(range(9)), D)


def slack_table(eps=2.0 ** -31, skew=0.0):
    """Two 4-cycles (0, 2, 1, 3) and (4, 5, 6, 7) at distance 2, both of
    defect exactly 1 in the upper triangle.  The first has sides 1 - eps
    and diagonals 2 - eps, which pass the triangle check only through
    TOL + skew, so its defect exceeds its smallest distance by eps.  The
    lower triangle is off by skew, up on sides and down on diagonals."""
    D = np.full((8, 8), 2.0)
    np.fill_diagonal(D, 0.0)
    for cycle, side, diagonal in (((0, 2, 1, 3), 1.0 - eps, 2.0 - eps),
                                  ((4, 5, 6, 7), 1.0, 2.0)):
        for t, a in enumerate(cycle):
            for b, d, up in ((cycle[(t + 1) % 4], side, skew),
                             (cycle[(t + 2) % 4], diagonal, -skew)):
                D[min(a, b), max(a, b)], D[max(a, b), min(a, b)] = d, d + up
    return D


def slack_squares():
    return sampled.SampledSpace(tuple(range(8)), slack_table())


def skewed_table():
    """slack_table symmetric only within TOL, with a slack above TOL."""
    return slack_table(3 * 2.0 ** -31, 0.9 * sampled.TOL)


def skewed_squares():
    return sampled.SampledSpace(tuple(range(8)), skewed_table())


class TestSampledSpace:
    def test_validates_symmetry(self):
        import numpy as np
        D = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InputError):
            sampled.SampledSpace(("p", "q"), D)

    def test_symmetry_tolerance_is_absolute(self):
        # a relative tolerance let d(b, a) = 1000.009 stand beside d(a, b) = 1000
        D = np.array([[0.0, 1000.0, 1000.0], [1000.009, 0.0, 1000.0],
                      [1000.0, 1000.0, 0.0]])
        with pytest.raises(InputError, match="not symmetric"):
            sampled.SampledSpace(("a", "b", "c"), D)
        D[1, 0] = 1000.0 + 5e-10
        sp = sampled.SampledSpace(("a", "b", "c"), D)
        # kept as min(D, D.T) in a new array; a symmetric table is not copied
        assert sp.dist[1, 0] == sp.dist[0, 1] == 1000.0
        assert D[1, 0] == 1000.0 + 5e-10
        assert sampled.SampledSpace(("a", "b", "c"), sp.dist).dist is sp.dist

    def test_entries_that_overflow_the_delta_sums_are_refused(self):
        # the three sums of a quadruple add six entries: with 1e308 they
        # overflowed to inf, and the NaN defects gave delta 0
        D = np.array([[0, 10, 6, 6], [10, 0, 6, 6], [6, 6, 0, 10],
                      [6, 6, 10, 0]]) * 1e306
        assert sampled.four_point_delta(sampled.SampledSpace(
            tuple(range(4)), D)).delta_hat == pytest.approx(4e306, rel=1e-12)
        with pytest.raises(InputError, match="above"):
            sampled.SampledSpace(tuple(range(4)), 10 * D)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [(0, 1), (1, 1)])
    def test_non_finite_entries_are_refused(self, entry, at):
        D = euclidean_square().dist.copy()
        D[at] = D[at[::-1]] = entry
        with pytest.raises(InputError, match="non-finite"):
            sampled.SampledSpace(tuple(range(4)), D)

    def test_empty_and_ill_shaped_tables(self):
        assert len(sampled.SampledSpace((), np.zeros((0, 0)))) == 0
        for D in (np.zeros((0,)), np.zeros((2, 3)), np.zeros((1, 1, 1))):
            with pytest.raises(InputError, match="shape"):
                sampled.SampledSpace((0,), D)

    def test_validates_triangle(self):
        import numpy as np
        D = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(InputError):
            sampled.SampledSpace(("p", "q", "r"), D)

    def test_json_roundtrip(self, tree_ball_space):
        G = graphspace.grid_graph(3)
        # the grid's tuple ids are written as JSON lists
        for sp in (tree_ball_space, sampled.from_points(G.vertices, G.dist)):
            text = json.dumps(sp.to_json())
            again = sampled.SampledSpace.from_json(json.loads(text))
            assert again.points == sp.points
            assert (again.dist == sp.dist).all()


class TestFourPointDelta:
    def test_tree_sample_is_exactly_zero(self, tree2):
        pts = tree2.ball("", 3)[:60]
        table = tree2.dist_table(pts, pts)
        assert np.array_equal(table, table.T)
        sp = sampled.from_points(pts, tree2.dist)
        est = sampled.four_point_delta(sp)
        assert est.delta_hat == 0.0

    def test_square_defect(self):
        est = sampled.four_point_delta(euclidean_square())
        assert est.delta_hat == pytest.approx(math.sqrt(2.0) - 1.0)
        assert est.quadruples_checked == 1

    def test_sampled_mode_lower_bounds_exhaustive(self):
        T = freetree.FreeTreeSpace(2)
        pts = T.ball("", 2)
        sp = sampled.from_points(pts, T.dist)
        full = sampled.four_point_delta(sp)
        part = sampled.four_point_delta(sp, mode="sampled",
                                        n_quadruples=300, seed=3)
        assert part.delta_hat <= full.delta_hat

    def test_sampled_mode_is_seeded(self, tree_ball_space):
        a = sampled.four_point_delta(tree_ball_space, mode="sampled",
                                     n_quadruples=200, seed=9)
        b = sampled.four_point_delta(tree_ball_space, mode="sampled",
                                     n_quadruples=200, seed=9)
        assert a.delta_hat == b.delta_hat
        assert a.worst_quadruple == b.worst_quadruple

    @pytest.mark.parametrize("n", [4, 5, 37, 729])
    def test_sampled_blocks_read_one_stream(self, n):
        # blocks of 4096 draws give the quadruples, the first largest
        # defect and the count of one draw per 2^16
        if n == 4:
            sp = euclidean_square()
        elif n == 729:
            G = graphspace.grid_graph(27)
            sp = sampled.from_points(G.vertices, G.dist)
        else:
            pts = halfplane.sample_ball(1j, 5.0, n, random.Random(n))
            sp = sampled.from_points(pts, halfplane.dist)
        for m in (1, 4095, 4096, 4097, 65537, 200000):
            for seed in (0, 7, 2 ** 40 + 3):
                est = sampled.four_point_delta(sp, "sampled", m, seed)
                best, worst, checked = delta_sampled_reference(sp, m, seed)
                assert est.delta_hat.hex() == best.hex()
                assert est.worst_quadruple == worst
                assert est.quadruples_checked == checked == m

    def test_exhaustive_cap(self, monkeypatch):
        T = freetree.FreeTreeSpace(2)
        pts = T.ball("", 4)
        sp = sampled.from_points(pts, T.dist)
        monkeypatch.setattr(sampled, "EXHAUSTIVE_CAP", 100)
        with pytest.raises(BudgetError):
            sampled.four_point_delta(sp)

    def test_h2_sample_bounded_by_known_constant(self):
        rng = random.Random(2)
        pts = halfplane.sample_ball(1j, 4.0, 40, rng)
        sp = sampled.from_points(pts, halfplane.dist)
        est = sampled.four_point_delta(sp)
        # four-point delta of the hyperbolic plane is at most log 3
        assert 0.0 < est.delta_hat <= math.log(3.0)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_h2_samples_stay_within_log_2(self, seed):
        # log 2 is the four-point constant of CAT(-1) spaces (H2.delta)
        pts = halfplane.sample_ball(1j, 6.0, 60, random.Random(seed))
        est = sampled.four_point_delta(sampled.from_points(pts,
                                                           halfplane.dist))
        assert 0.0 < est.delta_hat <= H2.delta + sampled.TOL

    @pytest.mark.parametrize("R, below", [(5.0, 9.079e-5), (20.0, 0.0),
                                          (30.0, 0.0)])
    def test_four_axis_points_tend_to_log_2(self, R, below):
        # four points at distance R from i in the four axis directions;
        # the pairing sums are near 4R, where one ulp is 1.4e-14 at R = 20,
        # and the defect lands 1.9e-15 above log 2
        pts = [halfplane.point_at(1j, k * math.pi / 2.0, R) for k in range(4)]
        est = sampled.four_point_delta(sampled.from_points(pts,
                                                           halfplane.dist))
        assert math.log(2.0) - est.delta_hat == pytest.approx(
            below, rel=1e-3, abs=2e-15)


class TestPackingAndCovering:
    def test_tree_unit_ball_fixture(self, tree_ball_space):
        prof = sampled.packing_number(tree_ball_space, "", 1.0, 1.0)
        assert prof.pack_exact == 1

    def test_tree_two_ball_fixture(self, tree_ball_space):
        prof = sampled.packing_number(tree_ball_space, "", 2.0, 1.0)
        assert prof.pack_exact == 4

    def test_greedy_never_exceeds_exact(self, tree_ball_space):
        for r in (0.5, 1.0, 1.5):
            prof = sampled.packing_number(tree_ball_space, "", 2.0, r)
            assert prof.pack_greedy <= prof.pack_exact

    def test_exact_cap_fallback(self, tree_ball_space, monkeypatch):
        monkeypatch.setattr(sampled, "EXACT_PACK_CAP", 4)
        with pytest.raises(BudgetError) as exc:
            sampled.packing_number(tree_ball_space, "", 2.0, 1.0)
        assert exc.value.fallback.pack_greedy >= 1

    def test_covering_tree_ball(self, tree_ball_space):
        assert sampled.covering_number(
            tree_ball_space, tree_ball_space.points, 1.0) == 4

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_packing_chain_on_random_graphs(self, seed):
        G = graphspace.random_connected_graph(10, 5, seed)
        sp = sampled.from_points(G.vertices, G.dist)
        for r in (0.5, 1.0):
            p2r = sampled.packing_number(sp, G.vertices[0], math.inf,
                                         2.0 * r).pack_exact
            c2r = sampled.covering_number(sp, sp.points, 2.0 * r)
            pr = sampled.packing_number(sp, G.vertices[0], math.inf,
                                        r).pack_exact
            assert p2r <= c2r <= pr


def _conflicts(D, ball, r):
    """Bitsets of the ball positions within 2r of each position."""
    m = len(ball)
    conflict = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if D[ball[a], ball[b]] <= 2.0 * r + sampled.TOL:
                conflict[a] |= 1 << b
                conflict[b] |= 1 << a
    return conflict


def _reference_max_separated(D, ball, r, incumbent):
    """The search bounded by candidate count alone, and its node count."""
    conflict = _conflicts(D, ball, r)
    best, nodes = list(incumbent), 0

    def bb(cand, chosen):
        nonlocal best, nodes
        nodes += 1
        if len(chosen) + bin(cand).count("1") <= len(best):
            return
        if cand == 0:
            best = chosen[:]
            return
        v = (cand & -cand).bit_length() - 1
        bb(cand & ~(1 << v) & ~conflict[v], chosen + [v])
        bb(cand & ~(1 << v), chosen)

    bb((1 << len(ball)) - 1, [])
    return [ball[v] for v in best], nodes


def _reference_packing(space, center, R, r):
    D, c = space.dist, space.index(center)
    ball = sampled._ball_indices(space, center, R)
    greedy = sampled._greedy_separated(D, ball, c, r)
    best, nodes = _reference_max_separated(
        D, ball, r, [ball.index(i) for i in greedy])
    return len(best), tuple(space.points[i] for i in best), nodes


def _separated_sets(D, ball, r, k, limit):
    """How many k-subsets of the ball are 2r-separated, counted up to limit."""
    conflict = _conflicts(D, ball, r)

    def count(cand, need):
        if need == 0:
            return 1
        if bin(cand).count("1") < need:
            return 0
        v = (cand & -cand).bit_length() - 1
        found = count(cand & ~(1 << v) & ~conflict[v], need - 1)
        return found if found >= limit else found + count(cand & ~(1 << v),
                                                          need)

    return min(count((1 << len(ball)) - 1, k), limit)


def _ball_space(family, k):
    """The k-th test ball of a family, as (space, center, R), with at most
    40 points: a whole seeded H² sample, the 7x7 grid's ball of radius
    3 + k around its middle, a seeded random graph's largest ball around
    vertex 0, or the radius-2 ball of the free group of rank 2 + k."""
    if family == "h2":
        pts = halfplane.sample_ball(1j, 3.0, 40, random.Random(k))
        return sampled.from_points(pts, halfplane.dist), pts[0], math.inf
    if family == "grid":
        g = graphspace.grid_graph(7)
        return sampled.from_points(g.vertices, g.dist), (3, 3), 3.0 + k
    if family == "graph":
        g = graphspace.random_connected_graph(60, 15, k)
        sp = sampled.from_points(g.vertices, g.dist)
        R = max(x for x in np.unique(sp.dist[0])
                if (sp.dist[0] <= x + sampled.TOL).sum() <= 40)
        return sp, 0, float(R)
    t = freetree.FreeTreeSpace(2 + k)
    return sampled.from_points(t.ball("", 2), t.dist), "", 2.0


class TestExactPackingSearch:
    @pytest.mark.parametrize("family, ks", [
        ("h2", (1, 2, 3)), ("grid", (0, 1)), ("graph", (1, 2, 3)),
        ("tree", (0, 1))], ids=["h2", "grid", "graph", "tree"])
    def test_matches_count_bounded_search(self, family, ks):
        for k in ks:
            sp, center, R = _ball_space(family, k)
            assert len(sampled._ball_indices(sp, center, R)) <= 40
            scale = 1.0 if math.isinf(R) else R
            for r in (scale / 4, scale / 3, scale / 2):
                prof = sampled.packing_number(sp, center, R, r)
                size, witness, _ = _reference_packing(sp, center, R, r)
                assert (prof.pack_exact, prof.witness) == (size, witness)

    @pytest.mark.parametrize("R", [3.0, 4.0])
    def test_tied_grid_optima_keep_the_first_set(self, R):
        sp, center, _ = _ball_space("grid", 0)
        prof = sampled.packing_number(sp, center, R, 1.0)
        ball = sampled._ball_indices(sp, center, R)
        assert _separated_sets(sp.dist, ball, 1.0, prof.pack_exact, 3) == 3
        assert ((prof.pack_exact, prof.witness)
                == _reference_packing(sp, center, R, 1.0)[:2])

    def test_nodes_repeat(self):
        counts = set()
        for _ in range(3):
            sp, center, R = _ball_space("graph", 2)
            counts.add(sampled.packing_number(sp, center, R, R / 3).nodes)
        assert len(counts) == 1

    def test_clique_cover_bound_prunes_the_f3_ball(self):
        sp, center, R = _ball_space("tree", 1)
        assert len(sp) == 37
        assert _reference_packing(sp, center, R, R / 2)[2] > 10 ** 5
        prof = sampled.packing_number(sp, center, R, R / 2)
        assert prof.pack_exact == 6
        assert prof.nodes < 10 ** 4

    def test_greedy_mode_counts_no_nodes(self, tree_ball_space):
        prof = sampled.packing_number(tree_ball_space, "", 2.0, 1.0,
                                      mode="greedy")
        assert prof.nodes is None


class TestTripodsAndProjections:
    def test_h2_projection(self):
        g = halfplane.HGeodesic(-1.0, 1.0)
        assert g.project(5j) == pytest.approx(1j)

    def test_h2_boundary_projection(self):
        g = halfplane.HGeodesic(-1.0, 1.0)
        assert g.project(math.inf) == pytest.approx(1j)

    def test_tree_line_projection(self, tree2):
        line = tree2.classify("a").axis
        assert line.project("aab") == "aa"
        assert line.project("baa") == ""

    def test_tree_end_projection(self, tree2):
        line = tree2.classify("a").axis
        xi = freetree.TreeEnd("b", "b")
        assert line.project(xi) == ""

    @given(st.floats(min_value=-30.0, max_value=30.0),
           st.floats(min_value=-30.0, max_value=30.0))
    def test_h2_projection_contracts(self, s, t):
        g = halfplane.HGeodesic(0.0, math.inf)
        z, w = complex(1.0, math.exp(s / 3.0)), complex(-2.0, math.exp(t / 3.0))
        dp = halfplane.dist(g.project(z), g.project(w))
        assert dp <= halfplane.dist(z, w) + 1e-9


class TestRuntimeBudgets:
    def test_hundred_point_exhaustive_under_a_second(self, tree2):
        pts = tree2.ball("", 3)[:100]
        sp = sampled.from_points(pts, tree2.dist)
        t0 = time.monotonic()
        est = sampled.four_point_delta(sp)
        assert time.monotonic() - t0 < 1.0
        assert est.delta_hat == 0.0


def _scalar_table(points, dist_fn):
    """from_points through the double loop: a plain function offers no
    whole-table method."""
    return sampled.from_points(points, lambda p, q: dist_fn(p, q)).dist


def _reference_greedy_cover(D, region, centers, r):
    uncovered = set(region)
    chosen = []
    while uncovered:
        gain, pick = 0, None
        for ci in centers:
            g = sum(1 for u in uncovered if D[ci, u] <= r + sampled.TOL)
            if g > gain:
                gain, pick = g, ci
        if pick is None:
            raise PreconditionError("region not coverable by sample centers")
        chosen.append(pick)
        uncovered = {u for u in uncovered if D[pick, u] > r + sampled.TOL}
    return chosen


def _reference_delta(space):
    D, pts = space.dist.tolist(), space.points
    best, worst, checked = 0.0, (pts[0],) * 4, 0
    for i, j, k, l in itertools.combinations(range(len(pts)), 4):
        s1, s2, s3 = D[i][j] + D[k][l], D[i][k] + D[j][l], D[i][l] + D[j][k]
        hi, lo = max(s1, s2, s3), min(s1, s2, s3)
        v = (hi - (s1 + s2 + s3 - hi - lo)) / 2.0
        checked += 1
        if v > best:
            best, worst = v, (pts[i], pts[j], pts[k], pts[l])
    return best, checked, worst


def _graph_space(G):
    return sampled.from_points(G.vertices, G.dist)


def _triangle_loop(D):
    D = D.tolist()
    return not any(D[i][j] > (D[i][k] + D[k][j]) + sampled.TOL
                   for i, j, k in itertools.product(range(len(D)), repeat=3))


@pytest.fixture(scope="module")
def h2_thousand():
    pts = halfplane.sample_ball(1j, 6.0, 1000, random.Random(3))
    return sampled.from_points(pts, halfplane.dist)


def _traced_peak(f, warm=True):
    """tracemalloc's peak over a call of f, after a first call, when
    warm, that imports what f needs."""
    if warm:
        f()
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTableMemory:
    """Each O(n^2) step holds the table and at most bool or block-sized
    scratch: a float64 temporary of the table's size fails here."""

    def test_validation_of_a_symmetric_h2_table(self, h2_thousand):
        # the table in float32 for the triangle screen is the largest part
        D = h2_thousand.dist
        peak = _traced_peak(
            lambda: sampled.SampledSpace(h2_thousand.points, D), warm=False)
        assert peak < 0.9 * D.nbytes

    def test_validation_of_a_grid_table(self):
        G = graphspace.grid_graph(30)
        sp = sampled.from_points(G.vertices, G.dist)
        peak = _traced_peak(lambda: sampled.SampledSpace(sp.points, sp.dist),
                            warm=False)
        assert peak < 0.3 * sp.dist.nbytes

    def test_sampled_delta(self, h2_thousand):
        peak = _traced_peak(lambda: sampled.four_point_delta(
            h2_thousand, "sampled", 200000, 5))
        assert peak < 1.5e6

    def test_greedy_cover_of_every_point(self, h2_thousand):
        sp = h2_thousand
        r = float(sp.dist.max()) / 3.0
        peak = _traced_peak(lambda: sampled.covering_number(
            sp, sp.points, r, "greedy"))
        assert peak < 0.35 * sp.dist.nbytes

    def test_greedy_packing(self, h2_thousand):
        # a 35-point ball: the cover of it by every point compares
        # 1000 x 35 entries, not the whole table's 10^6
        sp = h2_thousand
        peak = _traced_peak(lambda: sampled.packing_number(
            sp, sp.points[0], 4.0, 4.0 / 3.0, "greedy"))
        assert peak < 0.5e6


class TestFastPaths:
    def test_h2_table_matches_scalar_loop(self):
        pts = halfplane.sample_ball(1j, 6.0, 60, random.Random(5))
        pts += [complex(1e-150, 1e-150), complex(1e150, 1e-150),
                complex(-1e150, 1e150), complex(-1e308, 1.7e308),
                complex(1e308, 1.7e308)]
        ref = _scalar_table(pts, halfplane.dist)
        table = halfplane.dist.dist_table(pts, pts)
        assert np.array_equal(table, table.T)
        assert np.array_equal(sampled.from_points(pts, halfplane.dist).dist,
                              ref)

    def test_h2_table_rejects_bad_points(self):
        with pytest.raises(InputError):
            sampled.from_points([1j, complex(0.0, -1.0)], halfplane.dist)

    def test_graph_table_matches_scalar_loop(self):
        G = graphspace.random_connected_graph(40, 30, 7)
        sub = random.Random(3).sample(G.vertices, 25)
        for pts in (G.vertices, sub):
            table = G.dist_table(pts, pts)
            assert np.array_equal(table, table.T)
            assert np.array_equal(sampled.from_points(pts, G.dist).dist,
                                  _scalar_table(pts, G.dist))
        with pytest.raises(InputError):
            sampled.from_points(sub + ["nowhere"], G.dist)

    def test_greedy_cover_matches_set_loop(self, monkeypatch):
        G = graphspace.grid_graph(7)
        D = sampled.from_points(G.vertices, G.dist).dist
        rng = random.Random(11)
        everyone = list(range(len(D)))
        for r in (0.5, 1.0, 1.5, 2.0, 3.0):
            shuffled = rng.sample(everyone, len(everyone))
            region = rng.sample(everyone, 20) + [0, 0]
            for reg, cen in ((everyone, everyone), (everyone, shuffled),
                             (region, everyone), (region, shuffled[:30])):
                try:
                    want = _reference_greedy_cover(D, reg, cen, r)
                except PreconditionError:
                    want = PreconditionError
                # blocks of one entry, of part of a row and of whole rows
                for block in (1, 5, 7, 12288):
                    monkeypatch.setattr(sampled, "_DELTA_BLOCK", block)
                    if want is PreconditionError:
                        with pytest.raises(PreconditionError):
                            sampled._greedy_cover(D, reg, cen, r)
                    else:
                        assert sampled._greedy_cover(D, reg, cen, r) == want

    def test_greedy_cover_refuses_an_uncoverable_region(self):
        G = graphspace.grid_graph(4)
        D = sampled.from_points(G.vertices, G.dist).dist
        with pytest.raises(PreconditionError):
            sampled._greedy_cover(D, [0, 15], [0, 1], 1.0)

    @pytest.mark.parametrize("family", ["grid", "h2"])
    def test_exhaustive_delta_matches_brute_force(self, family):
        if family == "grid":
            G = graphspace.grid_graph(4)
            sp = sampled.from_points(G.vertices[:14], G.dist)
        else:
            pts = halfplane.sample_ball(1j, 3.0, 14, random.Random(4))
            sp = sampled.from_points(pts, halfplane.dist)
        est = sampled.four_point_delta(sp)
        assert (est.delta_hat, est.quadruples_checked,
                est.worst_quadruple) == _reference_delta(sp)

    @pytest.mark.parametrize("block", [1, 5, 7])
    def test_exhaustive_delta_across_row_blocks(self, block, tree_ball_space,
                                                monkeypatch):
        # blocks of a few sums split each middle index's rows
        monkeypatch.setattr(sampled, "_DELTA_BLOCK", block)
        G = graphspace.grid_graph(4)
        R = graphspace.random_connected_graph(16, 6, 2)
        pts = halfplane.sample_ball(1j, 3.0, 14, random.Random(4))
        for sp in (sampled.from_points(G.vertices, G.dist),
                   sampled.from_points(pts, halfplane.dist),
                   sampled.from_points(R.vertices, R.dist),
                   tree_ball_space, euclidean_square(), tied_squares()):
            est = sampled.four_point_delta(sp)
            best, checked, worst = _reference_delta(sp)
            assert est.delta_hat.hex() == best.hex()
            assert (est.quadruples_checked, est.worst_quadruple) == (checked, worst)
        assert sampled.four_point_delta(tied_squares()).worst_quadruple == (0, 6, 7, 8)
        # all defects 0 in the tree: the default worst quadruple
        tree = sampled.four_point_delta(tree_ball_space)
        assert tree.worst_quadruple == (tree_ball_space.points[0],) * 4

    @pytest.mark.parametrize("build", [
        lambda: _graph_space(graphspace.grid_graph(6)),
        lambda: _graph_space(graphspace.random_connected_graph(30, 8, 1)),
        lambda: _graph_space(graphspace.random_connected_graph(30, 8, 4)),
        tied_squares, slack_squares, skewed_squares],
        ids=["grid6", "graph1", "graph4", "tied", "slack", "skewed"])
    def test_pruned_delta_matches_brute_force(self, build, monkeypatch):
        sp = build()
        best, checked, worst = _reference_delta(sp)
        evaluated = []

        def counting(s1, *rest):
            evaluated.append(s1.size)
            return pairing_defects(s1, *rest)

        pairing_defects = sampled._pairing_defects
        monkeypatch.setattr(sampled, "_pairing_defects", counting)
        for block in (1, 5, 7):
            monkeypatch.setattr(sampled, "_DELTA_BLOCK", block)
            est = sampled.four_point_delta(sp)
            assert est.delta_hat.hex() == best.hex()
            assert (est.quadruples_checked, est.worst_quadruple) == (checked, worst)
        if build not in (tied_squares, slack_squares, skewed_squares):
            # the smallest-side bound skips quadruples on these spaces
            assert sum(evaluated) < 3 * checked

    @pytest.mark.parametrize("build", [slack_squares])
    def test_slack_squares_tie_is_kept(self, build):
        # the worst quadruple is the first square, reached after the second
        est = sampled.four_point_delta(build())
        assert (est.delta_hat, est.worst_quadruple) == (1.0, (0, 1, 2, 3))

    def test_skewed_squares_delta_is_orientation_free(self, tmp_path):
        # stored as min(D, D.T): a table symmetric within TOL and its
        # transpose are the same space
        D = skewed_table()
        a, b = (sampled.SampledSpace(tuple(range(8)), M) for M in (D, D.T))
        assert a.dist.tobytes() == b.dist.tobytes()
        for sp in (a, b):
            est = sampled.four_point_delta(sp)
            assert (est.delta_hat.hex(), est.worst_quadruple) == \
                ("0x1.fffffff844e10p-1", (0, 1, 2, 3))
        results = []
        for name, M in (("upper", D), ("lower", D.T)):
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.out"
            path.write_text(json.dumps({"points": list(range(8)),
                                        "dist": M.tolist()}))
            assert cli.main(["delta", "--input", str(path),
                             "--output", str(out)]) == 0
            results.append(json.loads(out.read_text())["result"])
        assert results[0] == results[1]

    def test_delta_skip_is_strict(self):
        # a floor equal to a distance keeps the rows and columns at it,
        # and a pair whose bound ties best is still evaluated
        D = tied_squares().dist
        buffers, screen = np.empty((6, 64)), (np.float32, 0.0)
        assert sampled._delta_middle(D, 7, 1.0, 0.0, buffers, screen) == \
            (1.0, (0, 6, 7, 8))
        assert sampled._delta_middle(D, 7, np.nextafter(1.0, 2.0), 0.0,
                                     buffers, screen) == (0.0, None)

    def test_exhaustive_delta_memory(self):
        # buffers of a fixed size: a block that grows with n fails here
        pts = halfplane.sample_ball(1j, 6.0, 200, random.Random(3))
        sp = sampled.from_points(pts, halfplane.dist)
        tracemalloc.start()
        try:
            sampled.four_point_delta(sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8e6

    @pytest.mark.parametrize("row", [3, 4])
    def test_triangle_check_is_the_triple_loop_at_the_bound(self, row,
                                                            monkeypatch):
        # tiles of 4 rows: row 3 ends the first tile, row 4 starts the next
        monkeypatch.setattr(sampled, "_TRIANGLE_TILE", 4)
        D = graphspace.random_connected_graph(10, 5, 1).table.copy()
        j = 9
        bound = min((D[row, k] + D[k, j]) + sampled.TOL
                    for k in range(len(D)) if k not in (row, j))
        D[row, j] = D[j, row] = bound
        assert sampled._triangle_holds(D) and _triangle_loop(D)
        D[row, j] = D[j, row] = np.nextafter(bound, np.inf)
        assert not sampled._triangle_holds(D) and not _triangle_loop(D)

    def test_triangle_check_refuses_a_lower_triangle_violation(self,
                                                               monkeypatch):
        # (j, i) alone 1 ulp past the bound is symmetrised away; past it
        # on both sides is refused
        monkeypatch.setattr(sampled, "_TRIANGLE_TILE", 4)
        D = graphspace.random_connected_graph(10, 5, 1).table.copy()
        i, j = 2, 9
        bound = min((D[i, k] + D[k, j]) + sampled.TOL
                    for k in range(len(D)) if k not in (i, j))
        over = np.nextafter(bound, np.inf)
        D[i, j], D[j, i] = bound, over
        assert not _triangle_loop(D)
        sp = sampled.SampledSpace(tuple(range(10)), D)
        assert sp.dist[j, i] == sp.dist[i, j] == bound
        D[i, j] = over
        with pytest.raises(InputError, match="triangle"):
            sampled.SampledSpace(tuple(range(10)), D)

    def test_triangle_check_reaches_last_tile_and_last_k(self):
        n = sampled._TRIANGLE_TILE + 5
        D = np.full((n, n), 2.0)
        np.fill_diagonal(D, 0.0)
        D[n - 1, n - 2] = D[n - 2, n - 1] = 1.0
        D[n - 1, n - 3] = D[n - 3, n - 1] = 0.5
        # d(n-2, n-3) = 2 > 1 + 0.5, through k = n - 1 only
        with pytest.raises(InputError, match="triangle"):
            sampled.SampledSpace(tuple(range(n)), D)
        D[n - 2, n - 3] = D[n - 3, n - 2] = 1.5
        assert len(sampled.SampledSpace(tuple(range(n)), D)) == n


def _two_squares(cycles, sides, diagonals, n=8, other=2.0):
    """Two 4-cycles with the given sides and diagonals, every other
    distance `other`."""
    D = np.full((n, n), other)
    np.fill_diagonal(D, 0.0)
    for cycle, a, d in zip(cycles, sides, diagonals):
        for t, p in enumerate(cycle):
            q, r = cycle[(t + 1) % 4], cycle[(t + 2) % 4]
            D[p, q] = D[q, p] = a
            D[p, r] = D[r, p] = d
    return sampled.SampledSpace(tuple(range(n)), D)


def _defect_and_half_gap(D, quad):
    i, j, k, l = quad
    s1, s2, s3 = D[i][j] + D[k][l], D[i][k] + D[j][l], D[i][l] + D[j][k]
    lo, med, hi = sorted((s1, s2, s3))
    return (hi - (s1 + s2 + s3 - hi - lo)) / 2.0, (hi - med) / 2.0


# Squares whose defects differ by at most two ulps in the defect formula,
# where the median gaps would report another square or another value:
# the formula's first maximum is reported.  In "tied" the first square's
# half gap is 2 ulps below both defects; in "same-middle-index" both
# squares have middle index 4, so one block holds them.
_APART = ((0, 1, 2, 3), (4, 5, 6, 7))
_ULP_SQUARES = {
    "later-by-an-ulp": (_APART, (0.7520059687602847, 0.8103011076584113),
                        (1.455100126576169, 1.5133952654742955), {}),
    "first-by-an-ulp": (_APART, (0.9203635083940913, 0.9742346886818084),
                        (1.496190186631627, 1.5500613669193442), {}),
    "tied": (_APART, (0.8491606779558808, 0.9180774262262786),
             (1.5565209238771547, 1.6254376721475525), {}),
    "same-middle-index": (((0, 1, 4, 5), (2, 3, 4, 6)),
                          (0.9524560164915884, 0.8890774388109604),
                          (1.2530878324969215, 1.1897092548162935),
                          {"n": 7, "other": 1.6}),
}


# Squares near 10 whose defects differ by one ulp, the winner first or
# later, while float32 half gaps order them the other way.
_F32_SQUARES = {
    "first-wins": ((7.66650749988191, 7.748743672414555),
                   (14.616817574802369, 14.699053747335014)),
    "later-wins": ((7.67282199206292, 7.724294199790232),
                   (14.910745390106362, 14.962217597833677)),
}


def _ulp_squares(name):
    cycles, sides, diagonals, kw = _ULP_SQUARES[name]
    return _two_squares(cycles, sides, diagonals, **kw)


def _screen_spaces():
    G, R = graphspace.grid_graph(5), graphspace.random_connected_graph(18, 7, 3)
    tree = freetree.FreeTreeSpace(2)
    ball = sampled.from_points(tree.ball("", 2), tree.dist)
    h2 = {s: sampled.from_points(halfplane.sample_ball(1j, 4.0, 18,
                                                       random.Random(s)),
                                 halfplane.dist) for s in (1, 2, 3)}
    big = 2.0 ** 997   # exact scaling to entries near 1e300
    return {
        "h2-1": h2[1], "h2-2": h2[2], "h2-3": h2[3],
        "graph": _graph_space(R), "grid": _graph_space(G), "tree-ball": ball,
        # tied defects whose sums differ in their last bits
        "tree-ball-tenths": sampled.SampledSpace(ball.points, ball.dist * 0.1),
        "h2-near-1e300": sampled.SampledSpace(h2[1].points, h2[1].dist * big),
        "grid-near-1e300": sampled.SampledSpace(tuple(G.vertices),
                                                G.table * big),
        **{name: _ulp_squares(name) for name in _ULP_SQUARES},
    }


class TestDeltaScreen:
    @pytest.mark.parametrize("name", sorted(_screen_spaces()))
    def test_screened_delta_matches_brute_force(self, name, monkeypatch):
        sp = _screen_spaces()[name]
        best, checked, worst = _reference_delta(sp)
        evaluated = []

        def counting(s1, *rest):
            evaluated.append(s1.size)
            return pairing_defects(s1, *rest)

        pairing_defects = sampled._pairing_defects
        monkeypatch.setattr(sampled, "_pairing_defects", counting)
        for block in (1, 5, 7, sampled._DELTA_BLOCK):
            monkeypatch.setattr(sampled, "_DELTA_BLOCK", block)
            est = sampled.four_point_delta(sp)
            assert est.delta_hat.hex() == best.hex()
            assert (est.quadruples_checked, est.worst_quadruple) == \
                (checked, worst)
        if name.startswith("h2"):
            # the screen leaves few sums to the defect formula
            assert sum(evaluated) < 4 * checked / 10

    @pytest.mark.parametrize("name", sorted(_ULP_SQUARES))
    def test_the_formula_decides_between_near_ties(self, name):
        sp = _ulp_squares(name)
        D = sp.dist.tolist()
        quads = [tuple(sorted(cycle)) for cycle in _ULP_SQUARES[name][0]]
        (vA, gA), (vB, gB) = (_defect_and_half_gap(D, q) for q in quads)
        assert abs(vA - vB) <= 2 * math.ulp(vA)
        want = (max(vA, vB), quads[vB > vA])
        assert want == _reference_delta(sp)[::2]
        assert (max(gA, gB), quads[gB > gA]) != want   # what gaps would say
        est = sampled.four_point_delta(sp)
        assert (est.delta_hat, est.worst_quadruple) == want

    def test_integer_tables_need_no_slack(self, monkeypatch):
        # integers below 2^22 are screened exactly in float32, any other
        # table below _FLOAT32_CAP in float32 with slack 2^-20 M, and one
        # at or above it in float64 with slack 2^-44 M; the grid's
        # largest distance is 10
        sp = _graph_space(graphspace.grid_graph(6))
        n = len(sp) - 3   # middle indices 2 .. n - 2
        for scale, screen in (
                (1.0, (np.float32, 0.0)),
                (2.0 ** 18, (np.float32, 0.0)),
                (2.0 ** 19, (np.float32, 2.0 ** -20 * 10 * 2.0 ** 19)),
                (0.25, (np.float32, 2.0 ** -20 * 2.5)),
                (1.05, (np.float32, 2.0 ** -20 * (sp.dist * 1.05).max())),
                (2.0 ** 96, (np.float32, 2.0 ** -20 * 10 * 2.0 ** 96)),
                (2.0 ** 97, (np.float64, 2.0 ** -44 * 10 * 2.0 ** 97))):
            calls = []
            monkeypatch.setattr(sampled, "_delta_middle", lambda *args:
                                calls.append(args[5]) or (0.0, None))
            sampled.four_point_delta(sampled.SampledSpace(sp.points,
                                                          sp.dist * scale))
            assert calls == [screen] * n

    @pytest.mark.parametrize("name", sorted(_F32_SQUARES))
    def test_float32_screen_leaves_one_ulp_to_float64(self, name,
                                                       monkeypatch):
        # the float32 half gaps order the squares against their defects,
        # which differ by one ulp: with no slack the screen would skip
        # the winner of "first-wins"
        sides, diagonals = _F32_SQUARES[name]
        sp = _two_squares(_APART, sides, diagonals, other=20.0)
        D, D32 = sp.dist.tolist(), sp.dist.astype(np.float32)
        quads = [tuple(sorted(cycle)) for cycle in _APART]
        (vA, _), (vB, _) = (_defect_and_half_gap(D, q) for q in quads)
        assert abs(vA - vB) == math.ulp(vA)
        halves = [_defect_and_half_gap(D32, q)[1] for q in quads]
        assert (halves[0] > halves[1]) != (vA > vB)
        best, checked, worst = _reference_delta(sp)
        assert (best, worst) == (max(vA, vB), quads[vB > vA])
        screens = []
        middle = sampled._delta_middle
        monkeypatch.setattr(sampled, "_delta_middle", lambda *args:
                            screens.append(args[5]) or middle(*args))
        for block in (1, 5, 7):
            monkeypatch.setattr(sampled, "_DELTA_BLOCK", block)
            est = sampled.four_point_delta(sp)
            assert est.delta_hat.hex() == best.hex()
            assert (est.quadruples_checked, est.worst_quadruple) == \
                (checked, worst)
        assert screens and all(s[1] == 2.0 ** -20 * 20.0 for s in screens)

    @pytest.mark.parametrize("name", sorted(_screen_spaces()))
    def test_defect_is_the_gromov_product_spread(self, name):
        # in exact arithmetic, on the dyadic entries scaled to integers:
        # the pairing sum with (x|y) is D[i, k] + D[j, k] + D[k, l] -
        # 2 (x|y), so hi - med of the sums is twice med - min of the
        # products, which is twice max(lo - c, min(hi, c) - lo)
        D = _scaled_to_integers(_screen_spaces()[name].dist)
        n = len(D)
        for i, j, k, l in itertools.combinations(range(n), 4):
            s = (D[i][j] + D[k][l], D[i][k] + D[j][l], D[i][l] + D[j][k])
            # twice the products (i|j), (j|l) and (i|l) at k
            c, b, a = (D[x][k] + D[y][k] - D[x][y]
                       for x, y in ((i, j), (j, l), (i, l)))
            total = D[i][k] + D[j][k] + D[k][l]
            assert [total - p for p in (c, b, a)] == list(s)
            _, mid, high = sorted(s)
            spread = sorted((a, b, c))
            lo, hi = min(a, b), max(a, b)
            assert high - mid == spread[1] - spread[0] == \
                max(lo - c, min(hi, c) - lo) == abs(min(hi, c) - lo)

    @pytest.mark.parametrize("table", ["grid", "int20-1", "int20-2",
                                       "tree-ball"])
    def test_screened_pairs_on_integers_are_the_pairs_that_reach_best(
            self, table, monkeypatch):
        # on integers the screen is exact in either type: it keeps the
        # pairs of the pruned rows whose defect over the kept columns
        # reaches best and 0, in i-major order, for any block size.
        # Blocks of 1, 5 and 7 split the offsets and the columns, and the
        # even m of some middle indices keep a pair at offset m / 2, which
        # both of its points visit.
        D = (_screen_spaces()[table].dist if not table.startswith("int")
             else _integer_table(20, int(table[-1])))
        n, half_offsets = len(D), 0
        for best in (0.0, 1.0, 1.5, 2.0, 3.0):
            for k in range(2, n - 1):
                ls = k + 1 + np.flatnonzero(D[k, k + 1:] >= best)
                if not ls.size:
                    continue
                I = np.flatnonzero(D[:k, k] >= best)
                want = [(i, j) for i, j in itertools.combinations(I, 2)
                        if D[i, j] >= best and 0.0 < max(
                            _defect_and_half_gap(D, (i, j, k, l))[0]
                            for l in ls) >= best]
                for block, kind in itertools.product(
                        (1, 5, 7, 12288), (np.float32, np.float64)):
                    monkeypatch.setattr(sampled, "_DELTA_BLOCK", block)
                    pi, pj = sampled._screened_pairs(
                        D, k, ls, best, best, (kind, 0.0),
                        np.empty((6, max(block, n))))
                    assert list(zip(pi.tolist(), pj.tolist())) == want
                local = {int(v): t for t, v in enumerate(I)}
                half_offsets += I.size % 2 == 0 and any(
                    local[j] - local[i] == I.size // 2 for i, j in want)
        if table != "tree-ball":
            assert half_offsets
        else:   # a tree's defects are 0: no pair is kept
            assert half_offsets == 0

    @pytest.mark.parametrize("name", ["graph", "h2-1", "tree-ball-tenths"])
    def test_screen_keeps_only_rows_the_distances_keep(self, name):
        # a slack that every bound reaches leaves the distance prune alone
        D = _screen_spaces()[name].dist
        n = len(D)
        for best in (0.2, 0.5, 1.0):
            for k in range(2, n - 1):
                ls = k + 1 + np.flatnonzero(D[k, k + 1:] >= best)
                if not ls.size:
                    continue
                pi, pj = sampled._screened_pairs(
                    D, k, ls, best, best, (np.float32, 1e6),
                    np.empty((6, sampled._DELTA_BLOCK)))
                want = [(i, j) for i, j in itertools.combinations(range(k), 2)
                        if min(D[i, j], D[i, k], D[j, k]) >= best]
                assert list(zip(pi.tolist(), pj.tolist())) == want

    def test_screen_leaves_few_pairs_to_float64(self, monkeypatch):
        # an H² sample has no distance that prunes a row: only the
        # product bounds keep the float64 pass to a few pairs
        pts = halfplane.sample_ball(1j, 4.0, 60, random.Random(5))
        sp = sampled.from_points(pts, halfplane.dist)
        kept = _kept_pairs(monkeypatch)
        est = sampled.four_point_delta(sp)
        assert (est.delta_hat, est.quadruples_checked,
                est.worst_quadruple) == _reference_delta(sp)
        pairs = sum(math.comb(k, 2) for k in range(2, len(sp) - 1))
        assert 0 < sum(p for p, _ in kept) < pairs / 10

    def test_float64_screen_leaves_few_quadruples_to_float64(self,
                                                             monkeypatch):
        # entries near 1e300 are past float32: the products are bounded
        # in float64, and they too keep the defect formula to a few of
        # the quadruples.  At 18 points the first middle index, with best
        # still 0, keeps its 120 pairs of 680 (one column each)
        sp = _screen_spaces()["h2-near-1e300"]
        kept = _kept_pairs(monkeypatch)
        est = sampled.four_point_delta(sp)
        assert (est.delta_hat, est.quadruples_checked,
                est.worst_quadruple) == _reference_delta(sp)
        assert 0 < sum(p * c for p, c in kept) < est.quadruples_checked / 10


def _kept_pairs(monkeypatch):
    """A list that gathers, for each _screened_pairs call, how many
    pairs it hands to the float64 formula and over how many columns."""
    kept, screened = [], sampled._screened_pairs

    def counting(D, k, ls, *rest):
        pi, pj = screened(D, k, ls, *rest)
        kept.append((pi.size, ls.size))
        return pi, pj

    monkeypatch.setattr(sampled, "_screened_pairs", counting)
    return kept


def _scaled_to_integers(D):
    """D's entries times the largest of their denominators: the float
    entries are dyadic, so the products are exact integers."""
    fracs = [[Fraction(x) for x in row] for row in D.tolist()]
    scale = max(x.denominator for row in fracs for x in row)
    return [[int(x * scale) for x in row] for row in fracs]


def _integer_table(n, seed):
    """Shortest paths of a random graph with integer weights 1..9."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v, rng.randint(1, 9)) for v in range(1, n)]
    edges += [(*rng.sample(range(n), 2), rng.randint(1, 9))
              for _ in range(n // 2)]
    return graphspace.MetricGraphSpace(range(n), edges).table.copy()


def _scan_types(monkeypatch):
    """The dtypes of the tables that the triangle check scans, in order."""
    kinds = []
    excess = sampled._excess
    monkeypatch.setattr(sampled, "_excess", lambda E, *rest:
                        kinds.append(E.dtype.name) or excess(E, *rest))
    return kinds


def _near_ten(n=10, seed=0):
    """Entries in [10, 11], and a last point 25 from every other, which
    fixes max|D| and so the float32 margin."""
    rng = np.random.default_rng(seed)
    D = rng.uniform(10.0, 11.0, (n, n))
    D = np.minimum(D, D.T)
    D[-1, :] = D[:, -1] = 25.0
    np.fill_diagonal(D, 0.0)
    return D


class TestFloat32Triangle:
    @pytest.mark.parametrize("row", [3, 4])
    def test_screen_is_the_triple_loop_at_the_bound(self, row, monkeypatch):
        # tiles of 4 rows: row 3 ends the first tile, row 4 starts the next
        monkeypatch.setattr(sampled, "_TRIANGLE_TILE", 4)
        kinds = _scan_types(monkeypatch)
        D, j = _near_ten(seed=row), 8
        bound = min((D[row, k] + D[k, j]) + sampled.TOL
                    for k in range(len(D)) if k not in (row, j))
        D[row, j] = D[j, row] = bound
        assert sampled._triangle_holds(D) and _triangle_loop(D)
        D[row, j] = D[j, row] = np.nextafter(bound, np.inf)
        assert not sampled._triangle_holds(D) and not _triangle_loop(D)
        # the screen passes a pair at fl(low - margin) by itself and
        # leaves the next float to float64: both hold
        E = D.astype(np.float32)
        low = min(E[row, k] + E[k, j] for k in range(len(D))
                  if k not in (row, j))
        edge = float(low) - 2.0 ** -20 * 25.0
        for x in (edge, np.nextafter(edge, np.inf)):
            D[row, j] = D[j, row] = x
            assert sampled._triangle_holds(D) and _triangle_loop(D)
        assert set(kinds) == {"float32"}

    @pytest.mark.parametrize("d0, x, d1, holds, scanned", [
        (-sampled.TOL, 3.0078873113505356e-09, 0.0, False, False),
        (-sampled.TOL, 2e-09, 0.0, True, True),
        (sampled.TOL, 3.0078873113505356e-09, sampled.TOL, True, True),
        (-0.0, -0.0, -0.0, True, True),
        (0.0, -sampled.TOL / 2, sampled.TOL, False, True),
    ], ids=["minus-tol-decides", "minus-tol-holds", "plus-tol",
            "negative-zeros", "plus-tol-over-a-negative-pair"])
    def test_diagonal_is_decided_exactly(self, d0, x, d1, holds, scanned,
                                         monkeypatch):
        # points 0 and 1 are x apart, with diagonal entries d0 and d1.  In
        # "minus-tol-decides" only k = i refuses, as fl(fl(x - TOL) + TOL)
        # < x, and the exact diagonal pass does so before any scan; in the
        # last, only k = 0 for the pair (1, 1), TOL > fl(fl(x + x) + TOL)
        # = 0, which the screen leaves to float64
        kinds = _scan_types(monkeypatch)
        D = _near_ten(6)
        D[1, 2:] = D[2:, 1] = D[0, 2:]
        D[0, 1] = D[1, 0] = x
        D[0, 0], D[1, 1] = d0, d1
        assert sampled._triangle_holds(D) == _triangle_loop(D) == holds
        assert set(kinds) == ({"float32"} if scanned else set())

    @pytest.mark.parametrize("row", [3, 4])
    def test_huge_entries_are_checked_in_float64(self, row, monkeypatch):
        # 2^997 scales exactly to entries near 1e300, past float32
        monkeypatch.setattr(sampled, "_TRIANGLE_TILE", 4)
        kinds = _scan_types(monkeypatch)
        D, j = _near_ten(seed=row) * 2.0 ** 997, 8
        bound = min((D[row, k] + D[k, j]) + sampled.TOL
                    for k in range(len(D)) if k not in (row, j))
        D[row, j] = D[j, row] = bound
        assert sampled._triangle_holds(D) and _triangle_loop(D)
        D[row, j] = D[j, row] = np.nextafter(bound, np.inf)
        assert not sampled._triangle_holds(D) and not _triangle_loop(D)
        assert set(kinds) == {"float64"}


class TestIntegerTriangle:
    @pytest.mark.parametrize("row", [3, 4])
    @pytest.mark.parametrize("scale", [1, 1000])
    def test_int16_check_is_the_triple_loop_at_the_bound(self, row, scale,
                                                         monkeypatch):
        # tiles of 4 rows: row 3 ends the first tile, row 4 starts the
        # next; scale 1000 puts sums near the top of int16
        monkeypatch.setattr(sampled, "_TRIANGLE_TILE", 4)
        D = _integer_table(10, 2) * scale
        j = 9
        bound = min(D[row, k] + D[k, j] for k in range(len(D))
                    if k not in (row, j))
        assert D.max() < 2 ** 14
        D[row, j] = D[j, row] = bound
        assert sampled._triangle_holds(D) and _triangle_loop(D)
        D[row, j] = D[j, row] = bound + 1
        assert not sampled._triangle_holds(D) and not _triangle_loop(D)

    @pytest.mark.parametrize("top", [2 ** 14 - 1, 2 ** 14, 2 ** 15, 40000])
    def test_entries_past_int16_sums_are_checked_in_floats(self, top):
        # equilateral: valid, however its sums would wrap in int16
        D = np.full((5, 5), float(top))
        np.fill_diagonal(D, 0.0)
        assert sampled._triangle_holds(D) and _triangle_loop(D)
        D[0, 1] = D[1, 0] = 1.0
        D[2, 3] = D[3, 2] = 2.0 * top + 1.0
        assert not sampled._triangle_holds(D) and not _triangle_loop(D)

    def test_non_integral_entries_are_checked_in_floats(self):
        # 1.5 + 1.5 = 3 holds; in integers 1 + 1 = 2 would not
        D = np.array([[0.0, 1.5, 3.0], [1.5, 0.0, 1.5], [3.0, 1.5, 0.0]])
        assert sampled._triangle_holds(D) and _triangle_loop(D)
        D[0, 2] = D[2, 0] = np.nextafter(3.0 + sampled.TOL, 4.0)
        assert not sampled._triangle_holds(D) and not _triangle_loop(D)

    @pytest.mark.parametrize("top, kind", [
        (63, "int8"), (64, "int16"), (2 ** 14 - 1, "int16"),
        (2 ** 14, "float32")])
    def test_integer_tiers_at_their_caps(self, top, kind, monkeypatch):
        # the pair (0, 2) at top, through point 1 at top exactly (holds)
        # and at top - 1 (refused); every other entry is top, so sums
        # reach 2 top
        kinds = _scan_types(monkeypatch)
        D = np.full((6, 6), float(top))
        np.fill_diagonal(D, 0.0)
        D[0, 1] = D[1, 0] = top // 2
        D[1, 2] = D[2, 1] = top - top // 2
        assert sampled._triangle_holds(D) and _triangle_loop(D)
        D[1, 2] = D[2, 1] = top - top // 2 - 1
        assert not sampled._triangle_holds(D) and not _triangle_loop(D)
        assert set(kinds) == {kind}

    def test_negative_zero_entries_are_integers(self):
        # points 0 and 1 coincide at distance -0.0
        D = np.full((4, 4), 2.0)
        np.fill_diagonal(D, -0.0)
        D[0, 1] = D[1, 0] = -0.0
        assert sampled._triangle_holds(D) and _triangle_loop(D)
        D[0, 2] = D[2, 0] = 3.0
        assert not sampled._triangle_holds(D) and not _triangle_loop(D)
