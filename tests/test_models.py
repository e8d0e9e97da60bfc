import hashlib
import itertools
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

from hypcert import (bounds, freetree, graphspace, halfplane, isometry,
                     pingpong, sampled, tits)
from hypcert.errors import InputError
from helpers import rotation_about_i

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
        # M and -M: one iso_key, the one of nonnegative trace, and at
        # trace 0 of positive first nonzero entry; bit-equal images
        H2 = halfplane.H2
        for g, want in [(halfplane.Moebius(2.0, 0.0, 0.0, 0.5),
                         (2.0, 0.0, 0.0, 0.5)),
                        (halfplane.Moebius(0.0, -1.0, 1.0, 0.0),
                         (0.0, 1.0, -1.0, 0.0)),
                        (halfplane.Moebius(1.0, 2.0, -1.0, -1.0),
                         (1.0, 2.0, -1.0, -1.0))]:
            h = halfplane.Moebius._unit(*(-v for v in g.entries()))
            assert H2.iso_key(g) == H2.iso_key(h) == want
            assert abs(g.trace()) == abs(h.trace())
            assert g.is_identity() == h.is_identity() is False
            for z in (1j, 0.5 + 2j, complex(-3.0, 1e-9)):
                assert repr(g(z)) == repr(h(z))
        assert halfplane.Moebius._unit(-1.0, 0.0, 0.0, -1.0).is_identity()

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
reduced_words = words.map(freetree.reduce_word)


def mul(u, v):
    return freetree.reduce_word(u + v)


def word_dist(u, v):
    return len(mul(freetree.invert(u), v))


def is_reduced(w):
    """Whether no letter of w stands next to its inverse."""
    return all(a != b.swapcase() for a, b in zip(w, w[1:]))


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

    @pytest.mark.parametrize("method", ["ball", "ball_size", "sample_ball"])
    @pytest.mark.parametrize("R", [-1, -0.5])
    def test_negative_radius_is_refused(self, tree2, method, R):
        rest = (5, random.Random(0)) if method == "sample_ball" else ()
        with pytest.raises(InputError, match="radius must be finite and >= 0"):
            getattr(tree2, method)("", R, *rest)

    @pytest.mark.parametrize("R", [0, 0.5, 1, 2.5, 3])
    def test_ball_size_counts_the_ball(self, tree2, R):
        assert len(tree2.ball("aB", R)) == tree2.ball_size("aB", R)

    @given(words, words)
    def test_word_metric_symmetry(self, u, v):
        assert word_dist(u, v) == word_dist(v, u)

    @given(words, words, words)
    def test_word_metric_triangle(self, u, v, w):
        assert word_dist(u, w) <= word_dist(u, v) + word_dist(v, w)

    @given(words, words, words)
    def test_left_invariance(self, g, u, v):
        assert word_dist(mul(g, u), mul(g, v)) == word_dist(u, v)

    @given(reduced_words, reduced_words, reduced_words)
    def test_median_lies_on_all_sides(self, u, v, w):
        m = freetree.median(u, v, w)
        for p, q in ((u, v), (u, w), (v, w)):
            assert word_dist(p, m) + word_dist(m, q) == word_dist(p, q)

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

    @pytest.mark.parametrize("rank, digest", [
        (2, "973fe4e2b267fe1cbe349de424bdfdc0839b999ea2db69fc112c7fb900136a89"),
        (3, "98672daefcf7067212bc334c357ea1b3a99af2afb04fc1c062beb723fb63ce97")])
    def test_classify_ends_are_reduced_rays(self, rank, digest):
        # every axis end of the ball's words is a reduced ray with a
        # non-empty period, so TreeEnd need not check either; the digest
        # pins the profiles as they were while it still did
        T = freetree.FreeTreeSpace(rank)
        profiles = []
        for w in T.ball("", 4):
            p = T.classify(w)
            for end in p.fixed_boundary:
                assert end.period and is_reduced(
                    end.prefix + end.period + end.period)
                assert end.period == freetree.primitive_root(end.period)
            profiles.append((w, p.kind, p.ell, tuple(
                (e.prefix, e.period) for e in p.fixed_boundary)))
        assert hashlib.sha256(repr(profiles).encode()).hexdigest() == digest

    def test_ball_census(self):
        T = freetree.FreeTreeSpace(2)
        assert len(T.ball("", 1)) == 5
        assert len(T.ball("", 2)) == 17
        assert T.sphere_sizes(3) == [1, 4, 12, 36]

    @pytest.mark.parametrize("rank", [2, 3])
    def test_sample_ball_picks_as_from_the_whole_ball(self, rank):
        # the draw is over the ball's BFS order; each pick is unranked
        T = freetree.FreeTreeSpace(rank)
        for R in range(7):
            for seed in range(5):
                for center, n in (("", 1), ("ab", 7), ("Ba", 40), ("c", 300)):
                    center = center if rank == 3 else center.replace("c", "b")
                    want = sampled.DiscreteSpace.sample_ball(
                        T, center, R, n, random.Random(seed))
                    assert T.sample_ball(center, R, n,
                                         random.Random(seed)) == want

    def test_sample_ball_past_an_index_is_refused(self, tree2):
        with pytest.raises(InputError, match="past what a draw can index"):
            tree2.sample_ball("", 40, 10, random.Random(0))


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
        assert self.T.act(g, x) == mul(g, x)
        assert self.T.dist(g, x) == word_dist(g, x)

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
        if is_reduced(w):
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
        # nor do the classifications, projections and walks of a search
        # or of the action statistics
        T2 = freetree.FreeTreeSpace(2)
        tits.tits_witness(T2, "a", "b")
        bounds.action_stats(T2, [("a", "a"), ("b", "bAB")], T2.ball("", 2),
                            3, bounds.BoundsConfig())
        assert chars == []
        # text that enters is reduced, which shows the patch took
        assert T2.parse_point("a b^-1") == "aB"
        assert chars == [2]


def _reduced(rng, space, length):
    """A random reduced word of the given length over the space's
    alphabet."""
    letters, w = sorted(space.alphabet), ""
    while len(w) < length:
        ch = rng.choice(letters)
        if not w or ch != w[-1].swapcase():
            w += ch
    return w


def _word_pairs(rank):
    """Pairs (u, v) of reduced words of rank ``rank``: random ones of
    mixed lengths, either side the longer, and the empty word, full
    cancellation u u^-1 and cancellation of all but a letter."""
    T, rng = freetree.FreeTreeSpace(rank), random.Random(rank)
    pairs = [(_reduced(rng, T, rng.randint(0, 7)),
              _reduced(rng, T, rng.randint(0, 3))) for _ in range(150)]
    pairs += [(v, u) for u, v in pairs[:75]]
    top = chr(ord("a") + rank - 1)   # the last letter
    for u in ("", top, top.upper() + "a", _reduced(rng, T, 6)):
        pairs += [(u, ""), ("", u), (u, freetree.invert(u)),
                  (freetree.invert(u), u)]
        if len(u) > 1:
            pairs.append((u, freetree.invert(u[1:])))
    return T, pairs


class TestLetterBatches:
    """The tree's letter-batch kernels against the string product and
    the scalar distance, in ranks up to the whole alphabet."""

    @pytest.mark.parametrize("rank", [2, 3, 26])
    def test_unbatch_gives_the_words_back(self, rank):
        T, pairs = _word_pairs(rank)
        us = [u for u, _ in pairs]
        assert T.unbatch(T.batch(us)) == us
        assert T.unbatch(T.batch([])) == [] and T.unbatch(T.batch([""])) == [""]
        assert T.is_identity_batch(T.batch(us)).tolist() == \
            [u == "" for u in us]

    @pytest.mark.parametrize("rank", [2, 3, 26])
    def test_products_are_the_seam_products(self, rank):
        T, pairs = _word_pairs(rank)
        us, vs = [u for u, _ in pairs], [v for _, v in pairs]
        rows = np.arange(len(pairs))
        # every row once, and the words of L gathered in another order
        level = T.compose_level(T.batch(us), rows, T.batch(vs), rows)
        assert T.unbatch(level) == [freetree._seam_mul(u, v)
                                    for u, v in pairs]
        back = rows[::-1].copy()
        level = T.compose_level(T.batch(us), rows, T.batch(vs), back)
        assert T.unbatch(level) == [freetree._seam_mul(u, vs[j])
                                    for u, j in zip(us, back)]
        # acting is composing with the point as the letter
        for x in {"", us[0], vs[1], freetree.invert(us[2]), us[3] + us[3]}:
            x = freetree.reduce_word(x)
            level = T.compose_level(T.batch(us), rows, T.batch([x]),
                                    np.zeros_like(rows))
            assert T.unbatch(level) == [T.act(g, x) for g in us]

    @pytest.mark.parametrize("rank", [2, 3, 26])
    def test_distances_are_the_scalar_ones(self, rank):
        T, pairs = _word_pairs(rank)
        us, vs = [u for u, _ in pairs][:60], [v for _, v in pairs][-50:]
        _same_in_type_and_bits(T.dist_table(us, vs).tolist(),
                               [[T.dist(u, v) for v in vs] for u in us])
        # orbit_dists measures x and the images of the distinct words
        for x in us[:10]:
            images = {g: T.act(g, x) for g in [""] + vs}
            _same_in_type_and_bits(
                [T.orbit_dists(x, [T.batch(vs)]).tolist()],
                [[T.dist(x, p) for p in images.values()]])

    @pytest.mark.parametrize("block", [freetree._PAIR_BLOCK, 1, 7, 64])
    @pytest.mark.parametrize("rank", [2, 3, 26])
    def test_displacement_table_is_dist_of_act(self, rank, block,
                                               monkeypatch):
        monkeypatch.setattr(freetree, "_PAIR_BLOCK", block)
        T, pairs = _word_pairs(rank)
        xs = [u for u, _ in pairs][:25] + [""]
        levels = [[v for _, v in pairs][:9], [u for u, _ in pairs][30:40],
                  [""]]
        got = T.displacement_table(xs, [T.batch(gs) for gs in levels])
        _same_in_type_and_bits(got.tolist(), [
            [T.dist(x, T.act(g, x)) for gs in levels for g in gs]
            for x in xs])


def _float_bits(xs):
    return np.asarray(xs, dtype=float).view(np.int64).tolist()


def _walk_levels(gens, cap):
    letters = pingpong.group_letters(halfplane.H2, list(zip("abc", gens)))
    return [E for E, _ in pingpong.walk_levels(halfplane.H2, letters, cap)]


_H2_ORBITS = {
    "readme": ([halfplane.Moebius(2.0, 0.0, 0.0, 0.5),
                halfplane.Moebius(1.25, 0.75, 0.75, 1.25)], 1j, 5),
    # 0.23 turns about i, and a quarter turn: images come back near i
    "elliptic": ([rotation_about_i(0.46 * math.pi),
                  halfplane.Moebius(1.25, 0.75, 0.75, 1.25)], 1j, 5),
    "torsion": ([rotation_about_i(math.pi / 2),
                 halfplane.Moebius(2.0, 0.0, 0.0, 0.5)], 1j, 5),
    # z -> 4z and z -> z + 1: a z a^-1 = b^4, so words meet in many
    # points; below 5e-10 the imaginary parts of A^k z key as 0.0, and a
    # real part of -1e-12 keys as -0.0, which the dict took for 0.0
    "4z": ([halfplane.Moebius(2.0, 0.0, 0.0, 0.5),
            halfplane.Moebius(1.0, 1.0, 0.0, 1.0)],
           complex(-1e-12, 1e-6), 6),
    # the half turn about i takes 1e-12 + i to -1e-12 + i: keys 0.0 and
    # -0.0, one point to the dict
    "half-turn": ([rotation_about_i(math.pi),
                   halfplane.Moebius(2.0, 0.0, 0.0, 0.5)],
                  complex(1e-12, 1.0), 5),
}


def _orbit_dists_by_dict(x, levels):
    """The orbit distances as a dict of rounded keys found them: each
    image by ``Moebius.__call__``, the first of each key kept."""
    orbit = {}
    for p in itertools.chain([x], (g(x) for E in levels
                                   for g in halfplane.H2.unbatch(E))):
        orbit.setdefault((round(p.real, 9), round(p.imag, 9)), p)
    return [halfplane.dist(x, p) for p in orbit.values()]


class TestH2Kernels:
    """H²'s image, paired distance and rounding kernels against the
    scalar ``Moebius.__call__``, ``dist`` and ``round``."""

    def test_round9_is_round_bit_for_bit(self, capfd):
        rng = random.Random(9)
        ties = [(k + 0.5) * 1e-9 for k in range(-50, 50)]
        ties += [j / 1024 for j in range(-99, 100, 2)]   # exact ties
        edge = 2.0 ** 51 / 1e9
        vals = ties + [0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-309,
                       1e-300, -1e-300, 1e300, -1e300, 1e-20, -1e20,
                       1.7976931348623157e308, math.inf, -math.inf, math.nan,
                       1.4999999999999998e-9, 2.5e-9, -2.5e-9]
        for t in (edge, -edge):
            vals += np.nextafter(t, [np.inf] * 20 + [-np.inf] * 20).tolist()
            vals += [t * (1 + k * 1e-9) for k in range(-20, 21)]
        vals += [rng.uniform(-1e3, 1e3) for _ in range(2000)]
        vals += np.array([rng.getrandbits(64) for _ in range(4000)],
                         dtype=np.uint64).view(float).tolist()
        t = np.array(vals)
        with np.errstate(all="raise"):
            got = halfplane._round9(t)
        assert _float_bits(got) == _float_bits([round(v, 9) for v in vals])
        assert capfd.readouterr().err == ""

    def test_paired_is_dist_bit_for_bit(self):
        rng = random.Random(3)
        pts = halfplane.sample_ball(0.5 + 2j, 6.0, 60, rng)
        xs = pts + [complex(z.real * s, z.imag * s) for z in pts[:10]
                    for s in (1e-150, 1e150)]
        ys = pts[::-1] + [complex(z.real * s, z.imag * s) for z in pts[10:20]
                          for s in (1e150, 1e-150)]
        # the quotient overflows to inf; numpy's hypot reverses the
        # order of the near-ties' distances from i
        xs += [complex(1e300, 1e-300), complex(-1e300, 1.0), 1j, 1j, 1j]
        ys += [complex(-1e300, 1e-300), complex(1e300, 1e-300),
               1.5118578764628696 + 0.19561301242971602j,
               -2.1503367583981627 + 16.654951386091813j,
               -0.8449038053460146 + 0.16883370029561454j]
        want = [halfplane.dist(x, y) for x, y in zip(xs, ys)]
        assert math.inf in want
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="warn"):
                got = halfplane._paired(np.array(xs), np.array(ys))
                grid = halfplane._paired(np.array(xs[:7])[:, None],
                                         np.array(ys))
        _same_in_type_and_bits([got.tolist()], [want])
        _same_in_type_and_bits(grid.tolist(), [
            [halfplane.dist(x, y) for y in ys] for x in xs[:7]])

    def test_paired_bits_do_not_depend_on_layout(self):
        pts = halfplane.sample_ball(0.5 + 2j, 8.0, 300, random.Random(22))
        zx, zy = np.array(pts), np.array(pts[::-1])
        want = _float_bits(halfplane._paired(zx, zy))
        wide = np.zeros((2, 3 * len(pts)), dtype=complex)
        wide[0, ::3], wide[1, ::3] = zx, zy   # strided views of both
        assert _float_bits(halfplane._paired(wide[0, ::3],
                                             wide[1, ::3])) == want
        assert _float_bits(halfplane._paired(zx[::-1], zy[::-1]))[::-1] == want
        assert _float_bits([halfplane._paired(np.array(x), np.array(y))
                            for x, y in zip(pts, pts[::-1])]) == want
        assert _float_bits([halfplane._paired(x, y)
                            for x, y in zip(pts, pts[::-1])]) == want
        # and its two ufuncs on strided and 0-d operands
        dx, dy = zx.real - zy.real, zx.imag - zy.imag
        for f, args in ((np.arcsinh, (dx / zy.imag,)), (np.hypot, (dx, dy))):
            flat = _float_bits(f(*args))
            assert _float_bits(f(*(np.repeat(v, 2)[::2] for v in args))) \
                == flat
            assert _float_bits([f(*(np.array(v[k]) for v in args))
                                for k in range(len(dx))]) == flat

    def test_dist_is_symmetric_bit_for_bit(self):
        pts = halfplane.sample_ball(0.5 + 2j, 8.0, 300, random.Random(22))
        pairs = list(itertools.combinations(pts, 2))
        assert _float_bits([halfplane.dist(p, q) for p, q in pairs]) == \
            _float_bits([halfplane.dist(q, p) for p, q in pairs])
        table = halfplane.dist_table(pts, pts)
        assert table.tobytes() == np.ascontiguousarray(table.T).tobytes()
        assert not table.diagonal().any()

    @pytest.mark.parametrize("block", [1, 7, halfplane._LEVEL_BLOCK])
    def test_displacement_table_is_dist_of_act(self, block, monkeypatch):
        monkeypatch.setattr(halfplane, "_LEVEL_BLOCK", block)
        H2 = halfplane.H2
        levels = _walk_levels(_H2_ORBITS["readme"][0], 3)
        levels.append(H2.batch([halfplane.Moebius(1e75, 0.0, 0.0, 1e-75),
                                halfplane.Moebius(1.0, 0.0, 0.0, 1.0)]))
        xs = halfplane.sample_ball(1j, 4.0, 25, random.Random(2)) + [
            complex(0.0, 1e-150), complex(-1e150, 1e150)]
        gs = [g for E in levels for g in H2.unbatch(E)]
        _same_in_type_and_bits(H2.displacement_table(xs, levels).tolist(), [
            [halfplane.dist(x, g(x)) for g in gs] for x in xs])

    @pytest.mark.parametrize("orbit", sorted(_H2_ORBITS))
    def test_orbit_dists_keep_the_dict_keys(self, orbit):
        gens, x, cap = _H2_ORBITS[orbit]
        levels = _walk_levels(gens, cap)
        want = _orbit_dists_by_dict(x, levels)
        if orbit == "4z":   # more than a fifth of the images collide
            assert 5 * len(want) < 4 * sum(E.shape[1] for E in levels)
        _same_in_type_and_bits(
            [halfplane.H2.orbit_dists(x, iter(levels)).tolist()], [want])

    def test_first_point_names_the_error(self):
        # at 1e3 i the image's Im overflows; at i, |cz + d|^2 underflows
        g = halfplane.Moebius(10.0, -1e163, 1e-163, 0.0)
        assert isometry.classify(g, halfplane.H2).kind == "hyperbolic"
        for xs in ([1e3j, 1j], [1j, 1e3j]):
            with pytest.raises(InputError) as per_point:
                for x in xs:
                    halfplane.dist(x, g(x))
            assert ("underflows" in str(per_point.value)) == (xs[0] == 1j)
            for run in (
                    lambda: halfplane.H2.displacement_table(
                        xs, [halfplane.H2.batch([g])]),
                    lambda: isometry.domain_gap_report(
                        halfplane.H2, g, 1.0, 2.0, xs)):
                with pytest.raises(InputError) as batched:
                    run()
                assert str(batched.value) == str(per_point.value)


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
        lambda: _regular_tree_graph(3, 3),
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
        G = _regular_tree_graph(4, 3)
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


def _regular_tree_graph(degree, depth):
    """The radius-depth ball of the degree-regular tree, with unit edges
    and vertices numbered in BFS order from the centre 0."""
    edges, frontier, n = [], [0], 1
    for level in range(depth):
        fan = degree if level == 0 else degree - 1
        edges += [(v, n + k, 1.0) for k, v in enumerate(
            v for v in frontier for _ in range(fan))]
        frontier = list(range(n, n + fan * len(frontier)))
        n += len(frontier)
    return graphspace.MetricGraphSpace(range(n), edges)


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
                [halfplane.dist_table([p], pts)[0].tolist() for p in pts],
                want)
            # z -> z - 2e300 takes pts[0] to pts[1]
            far = halfplane.H2.batch(
                [halfplane.Moebius(1.0, -2e300, 0.0, 1.0)])
            _same_in_type_and_bits(
                [halfplane.H2.orbit_dists(pts[0], [far]).tolist()],
                [[0.0, math.inf]])
    assert capfd.readouterr().err == ""


def test_long_h2_rows_are_the_scalar_loop():
    ys = halfplane.sample_ball(2j, 6.0, 5000, random.Random(1))
    _same_in_type_and_bits(halfplane.dist_table([1j], ys).tolist(),
                           [[halfplane.dist(1j, y) for y in ys]])


@pytest.mark.parametrize("block", [1, 7, halfplane._LEVEL_BLOCK])
def test_h2_tables_in_blocks_are_the_scalar_loop(block, monkeypatch):
    monkeypatch.setattr(halfplane, "_LEVEL_BLOCK", block)
    xs = halfplane.sample_ball(1j, 6.0, 30, random.Random(4))
    for a, b in ((xs, xs[:4]), (xs[:4], xs)):
        _same_in_type_and_bits(halfplane.dist_table(a, b).tolist(),
                               [[halfplane.dist(x, y) for y in b] for x in a])


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


@pytest.mark.parametrize("space", [halfplane.H2, freetree.FreeTreeSpace(2)],
                         ids=["h2", "tree"])
def test_walking_models_share_the_readme_walk_interface(space):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("the walk and action interface:", 1)[1].split(
        "\n\n", 2)[1]
    names = re.findall(r"`(\w+)`", block)
    assert "compose_level" in names and "orbit_dists" in names
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
           # signed zeros: at z = -0.0 + 1j the real part of gz is -0.0
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
        # a column of points broadcasts against the batch, a row each
        grid = H2.act_batch(H2.batch(gs), np.array([[z], [1j], [z]]))
    assert got.dtype == complex and got.shape == (len(gs),)
    assert _points_bits(got.tolist()) == _points_bits([g(z) for g in gs])
    assert grid.shape == (3, len(gs))
    for row, p in zip(grid, (z, 1j, z)):
        assert _points_bits(row.tolist()) == _points_bits([g(p) for g in gs])
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


@pytest.mark.parametrize("model", ["h2", "tree"])
def test_orbit_dists_are_the_table_row(model):
    # an orbit with no repeated key is the table row of its images
    space, xs, _, _ = _TABLE_CASES[model]
    gs = {"h2": [halfplane.Moebius(2.0, 0.0, 0.0, 0.5),
                 halfplane.Moebius(1.25, 0.75, 0.75, 1.25),
                 halfplane.Moebius(1e150, 0.0, 0.0, 1e-150)],
          "tree": ["a", "Ba", "abA", "bb"]}[model]
    for x in xs[:2]:
        images = [x] + [space.act(g, x) for g in gs]
        _same_in_type_and_bits(
            [space.orbit_dists(x, [space.batch(gs[:2]),
                                   space.batch(gs[2:])]).tolist()],
            space.dist_table([x], images).tolist())


def test_h2_orbit_dists_check_the_images_as_the_table_does():
    # floats the program builds can overflow: 1e300 i to 1e310 i
    x = complex(0.0, 1e300)
    gs = [halfplane.Moebius(2.0, 0.0, 0.0, 0.5),
          halfplane.Moebius(1e5, 0.0, 0.0, 1e-5)]
    with pytest.raises(InputError) as row:
        halfplane.H2.orbit_dists(x, [halfplane.H2.batch(gs)])
    with pytest.raises(InputError) as table:
        halfplane.dist_table([x], [g(x) for g in gs])
    assert str(row.value) == str(table.value)


def test_tree_rows_check_nothing(monkeypatch):
    tree = freetree.FreeTreeSpace(2)
    ball = tree.ball("", 3)
    want = {x: [tree.dist(x, tree.act(g, x)) for g in ball]
            for x in ball[:20]}
    calls = []
    monkeypatch.setattr(freetree.FreeTreeSpace, "check_point",
                        lambda self, w: calls.append(w) or w)
    level = [tree.batch(ball)]
    for x, row in want.items():
        # every word of the ball is one element: x's orbit row is its
        # displacement row, with the identity, first in the ball, at 0
        _same_in_type_and_bits([tree.orbit_dists(x, level).tolist()], [row])
        _same_in_type_and_bits(
            tree.displacement_table([x], level).tolist(), [row])
    assert calls == []


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
def test_h2_table_is_dist_bit_for_bit(case):
    xs, ys = _h2_cases()[case]
    table = halfplane.dist_table(xs, ys)
    assert table.shape == (len(xs), len(ys))
    _same_in_type_and_bits(table.tolist(),
                           [[halfplane.dist(x, y) for y in ys] for x in xs])


_OTHER_BAD = {"h2": complex(1.0, -1.0), "tree": "bB", "grid": (7, 7)}


def _error(call, *args):
    with pytest.raises(InputError) as raised:
        call(*args)
    return str(raised.value)


@pytest.mark.parametrize("model", sorted(_TABLE_CASES))
def test_dist_table_names_the_first_bad_point_it_checks(model):
    """H² checks the shorter side first, xs on a tie; the tree and the
    graph check xs first."""
    space, xs, ys, bad = _TABLE_CASES[model]
    other = _OTHER_BAD[model]
    for a, b in ((xs + [bad], ys), (xs, [bad] + ys), ([bad], ys), (xs, [bad]),
                 (xs[:1], ys + [bad]), (xs + [bad], [other] + ys),
                 (ys + [bad], [other] + xs), ([bad], [other]),
                 (xs + [bad], [other])):
        first = b + a if model == "h2" and len(b) < len(a) else a + b
        named = next(p for p in first if p in (bad, other))
        assert _error(space.dist_table, a, b) == \
            _error(space.dist_table, [named], [])
