import math
import random
import re
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcert import freetree, graphspace, halfplane, tits
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
        assert h.entries() == g.entries()

    def test_inverse_roundtrip(self):
        g = halfplane.Moebius(3.0, 1.0, 2.0, 1.0)
        assert (g @ g.inverse()).is_identity()

    def test_power_matches_repeated_product(self):
        g = halfplane.Moebius(1.25, 0.75, 0.75, 1.25)
        h = g @ g @ g @ g @ g
        assert (g ** 5).entries() == pytest.approx(h.entries(), abs=1e-12)

    def test_huge_power_keeps_acting(self):
        # the det-1 contract must survive entry growth ~ e^(n ell / 2)
        g = halfplane.Moebius(1.25, 0.75, 0.75, 1.25) ** 200
        z = g(1j)
        assert z.imag > 0.0


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
        assert g.project(math.inf) == pytest.approx(1j)

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

    # e^(2 rho) overflows from rho = 355, and cosh R from R = 710; from
    # the center i, points past distance about 745 leave the doubles
    @pytest.mark.parametrize("R, center", [(355.0, 1j), (400.0, 1j),
                                           (800.0, complex(2.0, 1e174))])
    def test_sample_ball_at_large_radius(self, R, center):
        rng, replay = random.Random(3), random.Random(3)
        for z in halfplane.sample_ball(center, R, 300, rng):
            u = replay.random()
            replay.random()
            rho = float(2 * mp.asinh(mp.sqrt(u) * mp.sinh(mp.mpf(R) / 2)))
            assert z.imag > 0.0 and math.isfinite(z.real)
            assert math.isfinite(z.imag)
            assert halfplane.dist(center, z) == pytest.approx(rho, rel=1e-12)

    def test_points_past_the_doubles_are_input_errors(self):
        with pytest.raises(InputError, match="cannot be held in doubles"):
            halfplane.sample_ball(1j, 800.0, 10, random.Random(3))
        z = halfplane.point_at(1j, math.pi / 2.0, 400.0)
        assert z == complex(0.0, math.exp(400.0))


words = st.lists(st.sampled_from("abAB"), max_size=8).map("".join)


class TestFreeTree:
    def test_reduce(self):
        assert freetree.reduce_word("aA") == ""
        assert freetree.reduce_word("abBA") == ""
        assert freetree.reduce_word("abAB") == "abAB"

    def test_parse_and_format(self):
        assert freetree.parse_word("a^2 b^-1") == "aaB"
        assert freetree.parse_word("a^2b^-1") == "aaB"

    @pytest.mark.parametrize("method", ["ball", "ball_size"])
    @pytest.mark.parametrize("R", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_is_refused(self, tree2, method, R):
        with pytest.raises(InputError, match="radius must be finite"):
            getattr(tree2, method)("", R)

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

    def test_axis_ends(self, tree2):
        rep, att = tree2.classify("ab").axis
        assert att.period == "ab"
        assert rep.period == freetree.invert("ab")

    def test_tree_end_translate(self, tree2):
        _, att = tree2.classify("a").axis
        assert freetree.TreeEnd("", "a") == att

    def test_ball_census(self):
        T = freetree.FreeTreeSpace(2)
        assert len(T.ball("", 1)) == 5
        assert len(T.ball("", 2)) == 17
        assert T.sphere_sizes(3) == [1, 4, 12, 36]


rank3_words = st.text("abcABC", max_size=40).map(freetree.reduce_word)


class TestReducedWordProducts:
    """FreeTreeSpace arithmetic on reduced words, against whole-word
    reduction of the same products."""

    T = freetree.FreeTreeSpace(3)

    @given(rank3_words, rank3_words)
    def test_compose(self, g, h):
        assert self.T.compose(g, h) == freetree.reduce_word(g + h)

    @given(st.one_of(rank3_words, st.sampled_from(["abA", "bcaCB", "AcBa"])),
           st.integers(-6, 6))
    def test_power(self, g, n):
        base = g if n >= 0 else freetree.invert(g)
        assert self.T.power(g, n) == freetree.reduce_word(base * abs(n))

    @given(rank3_words, rank3_words)
    def test_act_and_dist(self, g, x):
        assert self.T.act(g, x) == freetree.mul(g, x)
        assert self.T.dist(g, x) == freetree.word_dist(g, x)

    def test_act_and_dist_check_nothing(self, monkeypatch):
        # words are checked where they enter, not again on every use
        checked = []
        check_point = freetree.FreeTreeSpace.check_point

        def counting(space, w):
            checked.append(w)
            return check_point(space, w)

        monkeypatch.setattr(freetree.FreeTreeSpace, "check_point", counting)
        assert self.T.act("abAcB", "bCaBa") == "aa"
        assert self.T.dist("abAcB", "bCaBa") == 10
        assert checked == []
        # an entry still checks, which shows the patch took
        assert self.T.parse_point("a b^-1") == "aB"
        assert checked == ["aB"]

    @given(st.text("abcABC", max_size=12))
    def test_check_point_rejects_exactly_the_unreduced(self, w):
        if freetree.is_reduced(w):
            assert self.T.check_point(w) == w
        else:
            with pytest.raises(InputError):
                self.T.check_point(w)

    def test_no_whole_word_reduction(self, monkeypatch):
        chars = []
        reduce_word = freetree.reduce_word

        def counting(w):
            chars.append(len(w))
            return reduce_word(w)

        monkeypatch.setattr(freetree, "reduce_word", counting)
        g, h = "abAcB", "bCaBa"
        self.T.compose(g, h)
        self.T.power(g, 5)
        self.T.power(g, -5)
        self.T.act(g, h)
        self.T.dist(g, h)
        assert chars == []
        # whole-word products passed 7,718,956 characters here; the
        # classifications still reduce a few, which shows the patch took
        tits.tits_witness(freetree.FreeTreeSpace(2), "a", "b")
        assert 0 < sum(chars) < 10_000


class TestMetricGraph:
    def test_grid_distances(self):
        G = graphspace.grid_graph(4)
        assert G.dist((0, 0), (3, 3)) == 6

    def test_registered_isometry_validated(self):
        G = graphspace.grid_graph(3)
        flip = {(i, j): (j, i) for i in range(3) for j in range(3)}
        G.register_isometry("flip", flip)
        assert G.act("flip", (0, 2)) == (2, 0)

    def test_non_isometry_rejected(self):
        G = graphspace.grid_graph(3)
        bad = {(i, j): (0, 0) for i in range(3) for j in range(3)}
        with pytest.raises(InputError):
            G.register_isometry("bad", bad)

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, w):
        # a triangle stays connected without the bad edge
        edges = [(0, 1, w), (1, 2, 1.0), (2, 0, 1.0)]
        with pytest.raises(InputError, match="non-finite edge weight"):
            graphspace.MetricGraphSpace([0, 1, 2], edges)

    @pytest.mark.parametrize("build", [
        lambda: graphspace.grid_graph(6),
        lambda: graphspace.random_connected_graph(40, 30, 7),
        lambda: graphspace.regular_tree_graph(3, 3),
        lambda: _shuffled_grid(6, seed=2),
        lambda: _wide_weight_graph(150, 200, seed=5),
        lambda: _integer_weight_graph(120, 60, seed=3),
        lambda: _integer_weight_graph(40, 10, seed=4, top=420)])
    def test_table_is_full_floyd_warshall(self, build, monkeypatch):
        built = []

        class Recording(graphspace.MetricGraphSpace):
            def __init__(self, vertices, edges):
                built.append((list(vertices), list(edges)))
                super().__init__(*built[-1])

        monkeypatch.setattr(graphspace, "MetricGraphSpace", Recording)
        G = build()
        want = _reference_floyd_warshall(*built[-1])
        assert G.table.tobytes() == want.tobytes()

    @pytest.mark.parametrize("edges", [
        [(0, 1, 1.0), (2, 3, 1.0)],
        # interleaved components: every finite span has gaps
        [(0, 2, 1.0), (2, 4, 1.5), (1, 3, 1.0), (3, 5, 0.5)],
        [(0, 2, 1), (2, 4, 3), (1, 3, 2), (3, 5, 1)],
        [(0, 2, 8000), (2, 4, 3), (1, 3, 2), (3, 5, 1)]])
    def test_disconnected_graph_rejected(self, edges):
        vertices = sorted({v for e in edges for v in e[:2]})
        with pytest.raises(InputError, match="graph is not connected"):
            graphspace.MetricGraphSpace(vertices, edges)

    @pytest.mark.parametrize("w", [5460, 5461, 8192, 16383, 2 ** 15])
    def test_int16_steps_hold_only_paths_below_16383(self, w):
        # a path of three edges of weight w: at 3 w >= 16383 the far end
        # would read as int16's infinity
        G = graphspace.MetricGraphSpace(range(4), [(0, 1, w), (1, 2, w),
                                                   (2, 3, w)])
        assert G.table.dtype == float
        assert G.table[0].tolist() == [0.0, w, 2.0 * w, 3.0 * w]

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


def _shuffled_grid(n, seed):
    """The n x n unit grid with its vertices listed in a shuffled order."""
    verts = [(i, j) for i in range(n) for j in range(n)]
    random.Random(seed).shuffle(verts)
    edges = [((i, j), (i + di, j + dj), 1.0) for i, j in verts
             for di, dj in ((1, 0), (0, 1)) if i + di < n and j + dj < n]
    return graphspace.MetricGraphSpace(verts, edges)


def _wide_weight_graph(n, chords, seed):
    """A random tree plus chords over shuffled vertices, with non-integer
    weights from 1e-3 to 1e6: summation order would show in the bits."""
    rng = random.Random(seed)
    verts = rng.sample(range(n), n)
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(chords)]
    edges = [(u, v, 10.0 ** rng.uniform(-3.0, 6.0)) for u, v in pairs]
    return graphspace.MetricGraphSpace(verts, edges)


def _integer_weight_graph(n, chords, seed, top=9):
    """A random tree plus chords with integer weights from 1 to top."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(v), v) for v in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(chords)]
    return graphspace.MetricGraphSpace(
        range(n), [(u, v, rng.randint(1, top)) for u, v in pairs])


def _reference_floyd_warshall(vertices, edges):
    """All-pairs shortest paths, every step over the whole matrix."""
    index = {v: i for i, v in enumerate(vertices)}
    D = np.full((len(vertices), len(vertices)), np.inf)
    np.fill_diagonal(D, 0.0)
    for u, v, w in edges:
        i, j = index[u], index[v]
        D[i, j] = D[j, i] = min(D[i, j], float(w))
    for k in range(len(vertices)):
        D = np.minimum(D, D[:, k, None] + D[None, k, :])
    return D


def _h2_model():
    g = halfplane.Moebius(2.0, 1.0, 1.0, 1.0)
    pts = [1j, 0.5 + 2j, -1.0 + 0.3j]
    return halfplane.H2, g, pts, lambda p: f"{p.real!r},{p.imag!r}"


def _tree_model():
    def text(w):
        return " ".join(c if c.islower() else c.lower() + "^-1"
                        for c in w) or "e"

    return freetree.FreeTreeSpace(2), "aB", ["", "ab", "Ba"], text


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


def _same_in_type_and_bits(got, want):
    assert [[type(v) for v in row] for row in got] == \
        [[type(v) for v in row] for row in want]
    assert [[repr(v) for v in row] for row in got] == \
        [[repr(v) for v in row] for row in want]


_TABLE_CASES = {
    "h2": (halfplane.H2, [1j, 0.5 + 2j, complex(0.0, 1e-150),
                          complex(0.0, 1e150), complex(-1e308, 1.7e308)],
           [complex(1e308, 1.7e308), -3.0 + 0.01j, 1j], 0.0 + 0.0j),
    "tree": (freetree.FreeTreeSpace(2), ["", "ab", "Ba", "aaB"],
             ["b", "", "abA"], "aA"),
    "grid": (graphspace.grid_graph(3), [(0, 0), (2, 1), (1, 1)],
             [(0, 2), (2, 2)], (5, 5)),
}


@pytest.mark.parametrize("model", sorted(_TABLE_CASES))
def test_dist_table_is_the_scalar_loop(model):
    space, xs, ys, _ = _TABLE_CASES[model]
    for a, b in ((xs, ys), (ys, xs), (xs, xs)):
        _same_in_type_and_bits(space.dist_table(a, b).tolist(),
                               [[space.dist(x, y) for y in b] for x in a])
    assert space.dist_table([], ys).shape == (0, len(ys))
    assert space.dist_table(xs, []).shape == (len(xs), 0)


def test_overflowing_h2_tables_are_inf_without_a_warning(capfd):
    # sinh(d/2) past the float range: dist is inf, and so is every table
    pts = [complex(1e300, 1e-300), complex(-1e300, 1e-300), 1j,
           complex(-1e300, 1.0)]
    want = [[halfplane.dist(p, q) for q in pts] for p in pts]
    assert math.inf in want[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="warn"):
            _same_in_type_and_bits(halfplane.dist_table(pts, pts).tolist(),
                                   want)
            _same_in_type_and_bits(
                halfplane.dist_table(pts, list(pts)).tolist(), want)
            _same_in_type_and_bits(
                [halfplane.H2.dist_row(p, pts).tolist() for p in pts], want)
    assert capfd.readouterr().err == ""


def test_long_h2_rows_are_the_scalar_loop():
    # rows past halfplane's column block are built in pieces
    ys = halfplane.sample_ball(2j, 6.0, 5000, random.Random(1))
    _same_in_type_and_bits(halfplane.dist_table([1j], ys).tolist(),
                           [[halfplane.dist(1j, y) for y in ys]])


@pytest.mark.parametrize("model", sorted(_TABLE_CASES))
def test_dist_table_checks_every_point(model):
    space, xs, ys, bad = _TABLE_CASES[model]
    with pytest.raises(InputError):
        space.dist_table(xs + [bad], ys)
    with pytest.raises(InputError):
        space.dist_table(xs, [bad] + ys)


def _readme_interface():
    """The names of README's model interface list."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("The interface:", 1)[1].split("\n\n", 2)[1]
    return re.findall(r"`(\w+)`", block)


@pytest.mark.parametrize("space", [halfplane.H2, freetree.FreeTreeSpace(2),
                                   graphspace.grid_graph(2)],
                         ids=["h2", "tree", "graph"])
def test_models_share_the_readme_interface(space):
    names = _readme_interface()
    assert "dist_table" in names and "classify" in names
    assert [n for n in names if not callable(getattr(space, n, None))] == []


# --------------------------- batch action, built-point rows, row minima

def _points_bits(zs):
    """The bits of complex points, with each NaN as one NaN."""
    x = np.array([(z.real, z.imag) for z in zs], dtype=float)
    return np.where(np.isnan(x), np.nan, x).tobytes()


def _act_cases():
    rng = random.Random(11)
    gs = []
    while len(gs) < 8:
        a, b, c, d = (rng.uniform(-3.0, 3.0) for _ in range(4))
        if a * d - b * c > 0.1:
            gs.append(halfplane.Moebius(a, b, c, d))
    gs += [g ** 700 for g in gs[:4]]   # entries overflow to inf and NaN
    gs += [halfplane.Moebius(0.0, -1.0, 1.0, 0.0),
           halfplane.Moebius(1.0, 0.0, 0.0, 1.0),
           halfplane.Moebius(1e150, 0.0, 0.0, 1e-150),
           halfplane.Moebius(-2.0, 1.0, -1.0, 0.0),
           # signed zeros: at z = -0.0 + 1j the real part of gz is +0.0
           # only through the zero imaginary part that float * complex
           # gives the float factor
           halfplane.Moebius(2.0, -0.0, -0.0, 0.5)]
    return gs


_ACT_POINTS = [1j, 0.5 + 2j, -3.0 + 1e-9j, complex(0.0, 1e-300),
               complex(-1e150, 1e150), complex(2.0, 5e-324),
               complex(-0.0, 1.0), complex(1e300, 1e-300)]


@pytest.mark.parametrize("z", _ACT_POINTS, ids=repr)
def test_act_batch_is_moebius_call_bit_for_bit(z, capfd):
    H2 = halfplane.H2
    gs = []
    for g in _act_cases():
        try:
            g(z)
            gs.append(g)
        except InputError:   # |cz + d|^2 underflows; see the next test
            pass
    assert len(gs) > 10
    with np.errstate(all="raise"):
        got = H2.act_batch(H2.batch(gs), z)
    assert all(type(p) is complex for p in got)
    assert _points_bits(got) == _points_bits([g(z) for g in gs])
    assert capfd.readouterr().err == ""


def test_act_batch_raises_the_call_error_of_the_first_underflow():
    H2 = halfplane.H2
    fine = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
    tiny = [halfplane.Moebius(1e160 * k, 0.0, 0.0, 1e-160 / k)
            for k in (1.0, 1e3, 1e4)]
    z = 1j
    assert tiny[0](z).imag > 0   # |cz + d|^2 = 1e-320 is still subnormal
    messages = []
    for g in tiny[1:]:
        with pytest.raises(InputError, match="underflows") as called:
            g(z)
        messages.append(str(called.value))
    with pytest.raises(InputError) as batched:
        H2.act_batch(H2.batch([fine, tiny[0], tiny[2], tiny[1]]), z)
    assert str(batched.value) == messages[1] != messages[0]


def test_unbatch_gives_the_matrices_back():
    gs = _act_cases()
    back = halfplane.H2.unbatch(halfplane.H2.batch(gs))
    assert all(type(h) is halfplane.Moebius for h in back)
    assert _points_bits([complex(*g.entries()[:2]) for g in back]) == \
        _points_bits([complex(*g.entries()[:2]) for g in gs])
    assert _points_bits([complex(*g.entries()[2:]) for g in back]) == \
        _points_bits([complex(*g.entries()[2:]) for g in gs])


@pytest.mark.parametrize("model", sorted(_TABLE_CASES))
def test_dist_row_is_the_table_row(model):
    space, xs, ys, bad = _TABLE_CASES[model]
    for x in xs:
        _same_in_type_and_bits([space.dist_row(x, ys).tolist()],
                               space.dist_table([x], ys).tolist())
    if model == "h2":   # floats the program builds can overflow
        with pytest.raises(InputError) as row:
            space.dist_row(xs[0], ys + [bad])
        with pytest.raises(InputError) as table:
            space.dist_table([xs[0]], ys + [bad])
        assert str(row.value) == str(table.value)


def test_tree_rows_check_nothing(monkeypatch):
    tree = freetree.FreeTreeSpace(2)
    ball = tree.ball("", 3)
    want = {x: tree.dist_table([x], ball).tolist() for x in ball[:20]}
    calls = []
    monkeypatch.setattr(freetree.FreeTreeSpace, "check_point",
                        lambda self, w: calls.append(w) or w)
    for x, row in want.items():
        _same_in_type_and_bits([tree.dist_row(x, ball).tolist()], row)
    assert calls == []


def _min_rows(space, xs, ys):
    """space.dist_table(xs, ys).min(axis=1), or the error it raises."""
    try:
        return space.dist_table(xs, ys).min(axis=1)
    except (InputError, ValueError) as e:
        return type(e), str(e)


def _nearest(space, xs, ys):
    try:
        return space.nearest(xs, ys)
    except (InputError, ValueError) as e:
        return type(e), str(e)


def _same_minima(space, xs, ys):
    got, want = _nearest(space, xs, ys), _min_rows(space, xs, ys)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _h2_cases():
    rng = random.Random(5)
    ball = halfplane.sample_ball(1j, 6.0, 300, rng)
    small = halfplane.sample_ball(0.3 + 2j, 2.0, 40, rng)
    scaled = {s: [complex(z.real * s, z.imag * s) for z in small]
              for s in (1e-150, 1e150)}
    ties = [1j, 2j, 0.5j, 1.0 + 1j, -1.0 + 1j, 2j, 1j]
    close = [complex(0.0, 1e-300), complex(1e-310, 1e-300),
             complex(-1e-310, 1e-300), complex(0.0, 1e-300 + 1e-315)]
    return {"seeded": (ball, small), "seeded-tall": (small, ball),
            "ties": (ties, ties), "ties-shifted": ([1j, 3j], ties),
            "coincident": (small[:10] + ball[:5], small),
            "tiny": (scaled[1e-150], scaled[1e-150][::-1]),
            "huge": (scaled[1e150], scaled[1e150][:7]),
            "mixed-scales": (scaled[1e-150][:5] + scaled[1e150][:5], small),
            "subnormal-gaps": (close, close[::-1]),
            # two entries whose order numpy's hypot and asinh reverse
            "near-ties": ([1j], [-0.8449038053460146 + 0.16883370029561454j,
                                 -3.1998167980099086 + 9.08262147267447j,
                                 1.5118578764628696 + 0.19561301242971602j]),
            "near-ties-2": ([1j], [1.5118578764628696 + 0.19561301242971602j,
                                   -2.1503367583981627 + 16.654951386091813j]),
            "overflowing": ([complex(1e300, 1e-300), 1j],
                            [complex(-1e300, 1e-300), 2j,
                             complex(1e300, 1.0)]),
            "empty-xs": ([], small), "empty-ys": (small, []),
            "both-empty": ([], [])}


@pytest.mark.parametrize("case", sorted(_h2_cases()))
def test_nearest_is_the_table_minimum_bit_for_bit(case):
    xs, ys = _h2_cases()[case]
    _same_minima(halfplane.H2, xs, ys)


_OTHER_BAD = {"h2": complex(1.0, -1.0), "tree": "bB", "grid": (7, 7)}


@pytest.mark.parametrize("model", sorted(_TABLE_CASES))
def test_nearest_checks_as_the_table_does(model):
    space, xs, ys, bad = _TABLE_CASES[model]
    other = _OTHER_BAD[model]   # which is named depends on the order
    for a, b in ((xs, ys), (ys, xs), (xs + [bad], ys), (xs, [bad] + ys),
                 ([bad], ys), (xs, [bad]), (xs[:1], ys + [bad]),
                 (xs + [bad], [other] + ys), (ys + [bad], [other] + xs),
                 ([bad], [other]), (xs + [bad], [other])):
        _same_minima(space, a, b)
    for a, b in ((xs + [bad], ys), (xs, [bad] + ys)):
        with pytest.raises(InputError):
            space.nearest(a, b)
