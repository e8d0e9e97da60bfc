import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcert import freetree, graphspace, halfplane
from hypcert.errors import InputError

finite_x = st.floats(min_value=-50.0, max_value=50.0)
finite_y = st.floats(min_value=1e-3, max_value=50.0)
points = st.builds(complex, finite_x, finite_y)


class TestHalfPlaneMetric:
    def test_known_vertical_distance(self):
        assert halfplane.dist(1j, 4j) == pytest.approx(math.log(4.0))

    def test_rejects_lower_half_plane(self):
        with pytest.raises(InputError):
            halfplane.dist(1j, complex(0.0, -1.0))

    @given(points, points)
    def test_symmetry(self, p, q):
        assert halfplane.dist(p, q) == pytest.approx(halfplane.dist(q, p))

    @given(points, points, points)
    def test_triangle_inequality(self, p, q, r):
        assert halfplane.dist(p, r) <= \
            halfplane.dist(p, q) + halfplane.dist(q, r) + 1e-9

    @given(points, points)
    def test_isometry_invariance(self, p, q):
        g = halfplane.Moebius(3.0, 1.0, 2.0, 1.0)
        assert halfplane.dist(g(p), g(q)) == pytest.approx(
            halfplane.dist(p, q), abs=1e-8)

    def test_large_separation_does_not_overflow(self):
        d = halfplane.dist(complex(0.0, 1e-150), complex(0.0, 1e150))
        assert d == pytest.approx(300.0 * math.log(10.0), rel=1e-12)

    def test_huge_finite_points_are_not_nan(self):
        d = halfplane.dist(complex(-1e308, 1.7e308), complex(1e308, 1.7e308))
        assert d == pytest.approx(1.1174212, rel=1e-7)


class TestMoebius:
    def test_determinant_normalization(self):
        g = halfplane.Moebius(4.0, 0.0, 0.0, 1.0)
        a, b, c, d = g.entries()
        assert a * d - b * c == pytest.approx(1.0)

    def test_sign_convention(self):
        g = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        h = halfplane.Moebius._unit(-2.0, 0.0, 0.0, -0.5)
        assert g.max_entry_gap(h) == pytest.approx(0.0)

    def test_inverse_roundtrip(self):
        g = halfplane.Moebius(3.0, 1.0, 2.0, 1.0)
        assert (g @ g.inverse()).is_identity()

    def test_power_matches_repeated_product(self):
        g = halfplane.Moebius(1.25, 0.75, 0.75, 1.25)
        h = g @ g @ g @ g @ g
        assert (g ** 5).max_entry_gap(h) < 1e-12

    def test_huge_power_keeps_acting(self):
        # the det-1 contract must survive entry growth ~ e^(n ell / 2)
        g = halfplane.Moebius(1.25, 0.75, 0.75, 1.25) ** 200
        z = g(1j)
        assert z.imag > 0.0

    def test_boundary_action(self):
        g = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        assert g.apply_boundary(math.inf) == math.inf
        assert g.apply_boundary(1.0) == pytest.approx(4.0)


class TestHGeodesic:
    @given(st.floats(min_value=-5.0, max_value=5.0),
           st.floats(min_value=-5.0, max_value=5.0))
    def test_unit_speed(self, s, t):
        g = halfplane.HGeodesic(-1.0, 1.0)
        assert halfplane.dist(g.at(s), g.at(t)) == pytest.approx(
            abs(s - t), abs=1e-8)

    @given(st.floats(min_value=-20.0, max_value=20.0))
    def test_param_inverts_at(self, t):
        g = halfplane.HGeodesic(2.0, math.inf)
        assert g.param(g.at(t)) == pytest.approx(t, abs=1e-9)

    def test_through_orientation(self):
        g = halfplane.HGeodesic.through(1j, 4j)
        assert g.param(4j) > g.param(1j)

    @given(points)
    def test_projection_is_nearest(self, z):
        g = halfplane.HGeodesic(-1.0, 1.0)
        foot = g.project(z)
        t0 = g.param(z)
        for dt in (-0.1, 0.1, -1.0, 1.0):
            assert halfplane.dist(z, foot) <= \
                halfplane.dist(z, g.at(t0 + dt)) + 1e-9

    def test_coincident_endpoints_rejected(self):
        with pytest.raises(InputError):
            halfplane.HGeodesic(1.0, 1.0)

    def test_boundary_projection_of_infinity(self):
        g = halfplane.HGeodesic(-1.0, 1.0)
        assert g.project_boundary(math.inf) == pytest.approx(1j)

    def test_reversed_circle_stays_in_half_plane(self):
        # neg > pos: the point at t on (3, 1) is the point at -t on (1, 3)
        z = halfplane.HGeodesic(3.0, 1.0).at(0.5)
        assert z.imag > 0
        assert z == pytest.approx(halfplane.HGeodesic(1.0, 3.0).at(-0.5))


class TestPolarAndSampling:
    @given(st.floats(min_value=0.0, max_value=300.0),
           st.floats(min_value=0.0, max_value=2.0 * math.pi))
    def test_point_at_distance(self, rho, theta):
        z = halfplane.point_at(1j, theta, rho)
        assert halfplane.dist(1j, z) == pytest.approx(rho, abs=1e-6)

    def test_sample_ball_radius_and_determinism(self):
        pts1 = halfplane.sample_ball(2j, 3.0, 200, random.Random(5))
        pts2 = halfplane.sample_ball(2j, 3.0, 200, random.Random(5))
        assert pts1 == pts2
        assert all(halfplane.dist(2j, z) <= 3.0 + 1e-9 for z in pts1)

    def test_sample_ball_fills_the_ball(self):
        pts = halfplane.sample_ball(1j, 4.0, 500, random.Random(1))
        assert max(halfplane.dist(1j, z) for z in pts) > 3.5


words = st.lists(st.sampled_from("abAB"), max_size=8).map("".join)


class TestFreeTree:
    def test_reduce(self):
        assert freetree.reduce_word("aA") == ""
        assert freetree.reduce_word("abBA") == ""
        assert freetree.reduce_word("abAB") == "abAB"

    def test_parse_and_format(self):
        assert freetree.parse_word("a^2 b^-1") == "aaB"
        assert freetree.parse_word(freetree.format_word("aaB")) == "aaB"

    @given(words, words)
    def test_word_metric_symmetry(self, u, v):
        assert freetree.word_dist(u, v) == freetree.word_dist(v, u)

    @given(words, words, words)
    def test_word_metric_triangle(self, u, v, w):
        assert freetree.word_dist(u, w) <= \
            freetree.word_dist(u, v) + freetree.word_dist(v, w)

    @given(words, words, words)
    def test_left_invariance(self, g, u, v):
        assert freetree.word_dist(freetree.mul(g, u), freetree.mul(g, v)) == \
            freetree.word_dist(u, v)

    @given(words, words, words)
    def test_median_lies_on_all_sides(self, u, v, w):
        m = freetree.median(u, v, w)
        for p, q in ((u, v), (u, w), (v, w)):
            assert freetree.word_dist(p, m) + freetree.word_dist(m, q) == \
                freetree.word_dist(p, q)

    def test_cyclic_reduce(self):
        conj, core = freetree.cyclic_reduce("Bab")
        assert core == "a"
        assert freetree.reduce_word(conj + core + freetree.invert(conj)) == "Bab"

    def test_axis_ends(self):
        rep, att = freetree.axis_ends("ab")
        assert att.period == "ab"
        assert rep.period == freetree.invert("ab")

    def test_tree_end_translate(self):
        _, att = freetree.axis_ends("a")
        assert freetree.TreeEnd("", "a") == att

    def test_ball_census(self):
        T = freetree.FreeTreeSpace(2)
        assert len(T.ball("", 1)) == 5
        assert len(T.ball("", 2)) == 17
        assert T.sphere_sizes(3) == [1, 4, 12, 36]


class TestMetricGraph:
    def test_grid_distances(self):
        G = graphspace.grid_graph(4)
        assert G.dist((0, 0), (3, 3)) == 6

    def test_registered_isometry_validated(self):
        G = graphspace.grid_graph(3)
        flip = {(i, j): (j, i) for i in range(3) for j in range(3)}
        G.register_isometry("flip", flip)
        assert G.apply("flip", (0, 2)) == (2, 0)

    def test_non_isometry_rejected(self):
        G = graphspace.grid_graph(3)
        bad = {(i, j): (0, 0) for i in range(3) for j in range(3)}
        with pytest.raises(InputError):
            G.register_isometry("bad", bad)

    def test_regular_tree_graph_ball_sizes(self):
        G = graphspace.regular_tree_graph(4, 3)
        assert len(G.vertices) == 1 + 4 + 12 + 36

    @settings(max_examples=20)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_random_graph_metric(self, seed):
        G = graphspace.random_connected_graph(12, 6, seed)
        vs = G.vertices
        r = random.Random(seed)
        for _ in range(10):
            u, v, w = r.choice(vs), r.choice(vs), r.choice(vs)
            assert G.dist(u, v) == G.dist(v, u)
            assert G.dist(u, w) <= G.dist(u, v) + G.dist(v, w) + 1e-9


def _h2_model():
    g = halfplane.Moebius(2.0, 1.0, 1.0, 1.0)
    pts = [1j, 0.5 + 2j, -1.0 + 0.3j]
    return halfplane.H2, g, pts, lambda p: f"{p.real!r},{p.imag!r}"


def _tree_model():
    return freetree.FreeTreeSpace(2), "aB", ["", "ab", "Ba"], freetree.format_word


def _grid_model():
    G = graphspace.grid_graph(3)
    G.register_isometry("flip", {(i, j): (j, i)
                                 for i in range(3) for j in range(3)})
    return G, "flip", [(0, 0), (0, 2), (1, 2)], str


@pytest.mark.parametrize("make", [_h2_model, _tree_model, _grid_model],
                         ids=["h2", "tree", "grid"])
def test_model_contract(make):
    space, g, pts, text = make()
    for p in pts:
        assert space.parse_point(text(p)) == p
        for q in pts:
            assert space.dist(p, q) == pytest.approx(space.dist(q, p))
            assert space.dist(space.act(g, p), space.act(g, q)) == \
                pytest.approx(space.dist(p, q))
    if isinstance(space, graphspace.MetricGraphSpace):
        with pytest.raises(InputError):
            space.compose(g, g)
        with pytest.raises(InputError):
            space.power(g, 2)
        return
    h = g
    for n in range(2, 5):
        h = space.compose(h, g)
        assert space.iso_key(space.power(g, n)) == space.iso_key(h)
    assert space.is_identity(space.compose(g, space.power(g, -1)))
