import dataclasses
import itertools
import math
import random

import mpmath as mp
import pytest

from hypcert import freetree, halfplane, isometry, pingpong
from hypcert.errors import (BudgetError, ElementaryPairError, InputError,
                            PreconditionError)
from helpers import point_along, rotation_about_i

H2 = halfplane.H2


class TestEndpointProjections:
    def test_h2_schottky_pair(self, schottky_pair):
        a, b = schottky_pair
        data = pingpong.min_free_power(H2, a, b, 1.0)
        # both endpoints of the (-1, 1) axis project onto i
        assert data.M0 == pytest.approx(0.0)
        assert not data.swapped
        assert data.x_minus == pytest.approx(1j)
        assert data.x_plus == pytest.approx(1j)

    def test_offset_axes_have_positive_spread(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        shift = halfplane.Moebius(1.0, 3.0, 0.0, 1.0)
        b = shift @ halfplane.Moebius(1.25, 0.75, 0.75, 1.25) @ shift.inverse()
        assert pingpong.min_free_power(H2, a, b, 1.0).M0 > 0.0

    def test_swap_detection(self):
        # b^-1 runs along b's axis reversed: its record is swapped back
        # into b's orientation, with the same ends and spread
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        shift = halfplane.Moebius(1.0, 3.0, 0.0, 1.0)
        b = shift @ halfplane.Moebius(1.25, 0.75, 0.75, 1.25) @ shift.inverse()
        fwd = pingpong.min_free_power(H2, a, b, 1.0)
        rev = pingpong.min_free_power(H2, a, b ** -1, 1.0)
        assert fwd.swapped != rev.swapped
        assert fwd.M0 == pytest.approx(rev.M0)
        for end in ("x_minus", "x_plus", "y_minus", "y_plus"):
            assert getattr(fwd, end) == pytest.approx(getattr(rev, end))

    def test_shared_endpoint_rejected(self):
        # 4z and 4z + 2 have one translation length and share the end inf
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        g = halfplane.Moebius(2.0, 1.0, 0.0, 0.5)
        with pytest.raises(ElementaryPairError,
                           match="the axes share a boundary endpoint"):
            pingpong.min_free_power(H2, a, g, 1.0)

    def test_tree_lines(self, tree2):
        assert pingpong.min_free_power(tree2, "a", "b", 0.0).M0 == 0.0


class TestMinFreePower:
    def test_shipped_pair_value(self, schottky_pair):
        a, b = schottky_pair
        assert pingpong.min_free_power(H2, a, b, 1.0).N == 56

    def test_threshold_scales_with_delta(self, schottky_pair):
        a, b = schottky_pair
        N1 = pingpong.min_free_power(H2, a, b, 1.0).N
        N2 = pingpong.min_free_power(H2, a, b, 2.0).N
        assert N2 > N1

    def test_tree_pair_needs_no_power(self, tree2):
        assert pingpong.min_free_power(tree2, "a", "b", 0.0).N == 1

    def test_power_above_the_word_budget_is_an_input_error(
            self, schottky_pair, monkeypatch):
        # N = 56 at delta 1: the threshold is refused just above the budget
        a, b = schottky_pair
        monkeypatch.setattr(pingpong, "WORD_BUDGET", 56)
        assert pingpong.min_free_power(H2, a, b, 1.0).N == 56
        monkeypatch.setattr(pingpong, "WORD_BUDGET", 55)
        with pytest.raises(InputError, match="delta 1.0: the power threshold"):
            pingpong.min_free_power(H2, a, b, 1.0)

    def test_unequal_lengths_rejected(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        b = halfplane.Moebius(1.4, 0.6, 0.6, 1.4)
        with pytest.raises(PreconditionError):
            pingpong.min_free_power(H2, a, b, 1.0)

    def test_record_holds_the_pair_in_its_orientation(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        shift = halfplane.Moebius(1.0, 3.0, 0.0, 1.0)
        b = shift @ halfplane.Moebius(1.25, 0.75, 0.75, 1.25) @ shift.inverse()
        records = [(g, pingpong.min_free_power(H2, a, g, 1.0))
                   for g in (b, b ** -1)]
        assert sorted(data.swapped for _, data in records) == [False, True]
        for g, data in records:
            assert data.a is a
            if data.swapped:
                assert H2.iso_key(data.b) == H2.iso_key(g ** -1)
            else:
                assert data.b is g


class TestProofSets:
    def test_axis_endpoints_separate(self, schottky_pair, rng):
        a, b = schottky_pair
        data = pingpong.min_free_power(H2, a, b, 1.0)
        N = data.N
        # deep points on the two axes fall into the right sets
        far_plus = (a ** N)(1j)
        assert "A+" in pingpong.proof_set_membership(H2, data, far_plus)
        far_minus = (a ** -N)(1j)
        assert "A-" in pingpong.proof_set_membership(H2, data, far_minus)

    def test_certificate_valid(self, schottky_pair):
        a, b = schottky_pair
        data = pingpong.min_free_power(H2, a, b, 1.0)
        cert = pingpong.pingpong_certify(H2, data)
        assert cert.valid
        assert cert.disjoint_ok and cert.oracle_passed
        assert cert.violations == []
        assert cert.N == 56

    def test_underpowered_n_rejected(self, schottky_pair, rng):
        a, b = schottky_pair
        with pytest.raises(PreconditionError):
            pingpong.pingpong_data(H2, a, b, 2, 1.0)


def end_set_disjointness(space, data, T):
    """Whether the four T-neighbourhood sets of the axis ends are pairwise
    disjoint, by the model's meeting_sides, and the pairs that meet: each
    is the (name, centre, anchor) side of a proof set with its centre
    moved T along the axis, past its anchor.  The axes are those of the
    record's a and b, so b's runs in the record's orientation."""
    alpha, beta = (isometry.classify(g, space).axis for g in (data.a, data.b))
    anchors = (data.x_plus, data.x_minus, data.y_plus, data.y_minus)
    centres = [point_along(axis, p, t) for axis, p, t in zip(
        (alpha, alpha, beta, beta), anchors, (T, -T, T, -T))]
    meeting = space.meeting_sides(list(zip(("A+", "A-", "B+", "B-"),
                                           centres, anchors)))
    return {"T": T, "disjoint": not meeting, "meeting": meeting}


class TestEndSets:
    def test_disjoint_above_threshold(self, schottky_pair):
        a, b = schottky_pair
        data = pingpong.pingpong_data(H2, a, b, 56, 1.0)
        rep = end_set_disjointness(H2, data, 65.0 * 1.0)
        assert rep == {"T": 65.0, "disjoint": True, "meeting": []}

    def test_overlap_at_zero(self, schottky_pair):
        # at T = 0 each centre is its anchor, so each set is the plane
        a, b = schottky_pair
        data = pingpong.pingpong_data(H2, a, b, 56, 1.0)
        rep = end_set_disjointness(H2, data, 0.0)
        assert not rep["disjoint"]
        assert rep["meeting"] == list(itertools.combinations(
            ["A+", "A-", "B+", "B-"], 2))


class TestWordOracle:
    def test_sanov_passes(self):
        s1 = halfplane.Moebius(1.0, 2.0, 0.0, 1.0)
        s2 = halfplane.Moebius(1.0, 0.0, 2.0, 1.0)
        passed, counter = pingpong.word_oracle(
            H2, [("a", s1), ("b", s2)], 8, "group")
        assert passed
        assert counter is None

    def test_finite_order_counterexample(self):
        g = rotation_about_i(math.pi / 2.0)
        passed, counter = pingpong.word_oracle(H2, [("g", g)], 8, "group")
        assert not passed
        assert counter == "g^4"

    def test_semigroup_detects_coincidence(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        s = halfplane.Moebius(1.0, 2.0, 0.0, 1.0)
        # a s a^-1 = s^4, so positive words collide at depth 5
        passed, counter = pingpong.word_oracle(
            H2, [("a", a), ("s", s)], 5, "semigroup")
        assert not passed

    def test_tree_words_always_free(self, tree2):
        passed, _ = pingpong.word_oracle(
            tree2, [("a", "a"), ("b", "b")], 6, "group")
        assert passed

    def test_budget_guard(self, monkeypatch):
        s1 = halfplane.Moebius(1.0, 2.0, 0.0, 1.0)
        s2 = halfplane.Moebius(1.0, 0.0, 2.0, 1.0)
        monkeypatch.setattr(pingpong, "WORD_BUDGET", 50)
        with pytest.raises(BudgetError):
            pingpong.word_oracle(H2, [("a", s1), ("b", s2)], 8, "group")


def test_certify_reports_overlapping_proof_sets(schottky_pair):
    # at delta 0 the power is 1, and A+ and A- each meet B+ and B-; the
    # sets are disjoint from N = 2 on
    a, b = schottky_pair
    data = pingpong.min_free_power(H2, a, b, 0.0)
    assert data.N == 1
    cert = pingpong.pingpong_certify(H2, data)
    assert cert.disjoint_ok is False
    assert not cert.valid
    assert cert.violations == [("A+", "B+"), ("A+", "B-"),
                               ("A-", "B+"), ("A-", "B-")]
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.N = 2
    cert = pingpong.pingpong_certify(H2, dataclasses.replace(data, N=2))
    assert cert.disjoint_ok and cert.violations == [] and cert.valid


def test_certify_classifies_nothing(schottky_pair, monkeypatch):
    # the record already holds what classification gave
    a, b = schottky_pair
    data = pingpong.pingpong_data(H2, a, b, 56, 1.0)
    seen = []
    classify = isometry.classify

    def counting(g, space=None):
        seen.append(g)
        return classify(g, space)

    monkeypatch.setattr(isometry, "classify", counting)
    cert = pingpong.pingpong_certify(H2, data)
    assert cert.valid and cert.N == 56
    assert seen == []


def _reference_arc(c, p):
    """The closed ideal arc of the side {z : d(z, c) <= d(z, p)} as
    (start, length) in the angle 2 atan(xi), inf at pi, at 200 digits.

    As z tends to a real xi, d(z, c) - d(z, p) tends to
    log(Im p |c - xi|^2 / (Im c |p - xi|^2)), so xi is in the arc when
    f(xi) = Im c |p - xi|^2 - Im p |c - xi|^2 >= 0; inf is in it when
    Im c >= Im p.  f's leading coefficient is Im c - Im p."""
    with mp.workdps(200):
        cx, cy, px, py = (mp.mpf(v) for v in (c.real, c.imag, p.real, p.imag))
        A = cy - py
        B = -2 * (cy * px - py * cx)
        C = cy * (px ** 2 + py ** 2) - py * (cx ** 2 + cy ** 2)
        turn = 2 * mp.pi

        def angle(xi):
            return 2 * mp.atan(xi)

        if A == 0 and B == 0:           # c = p: the whole circle
            return mp.mpf(0), turn
        if A == 0:                      # a vertical bisector
            r = -C / B
            return (angle(r), mp.pi - angle(r)) if B > 0 else \
                (mp.pi, angle(r) + mp.pi)
        root = mp.sqrt(B * B - 4 * A * C)
        r1, r2 = sorted([(-B - root) / (2 * A), (-B + root) / (2 * A)])
        if A < 0:
            return angle(r1), angle(r2) - angle(r1)
        return angle(r2), turn - (angle(r2) - angle(r1))


def _reference_arcs_meet(arc1, arc2):
    with mp.workdps(200):
        turn = 2 * mp.pi
        (s1, n1), (s2, n2) = arc1, arc2
        return (mp.fmod(s2 - s1 + 2 * turn, turn) <= n1
                or mp.fmod(s1 - s2 + 2 * turn, turn) <= n2)


def _random_sides(rng, n):
    """n sides (k, c, p) with c up to distance 40 from i and p up to 10
    from c; c is the farther from i in three sides of four, so that many
    sets face away from each other, and p = c in every tenth."""
    sides = []
    for k in range(n):
        c = halfplane.point_at(1j, rng.uniform(0, 2 * math.pi),
                               rng.uniform(0, 40))
        p = halfplane.point_at(c, rng.uniform(0, 2 * math.pi),
                               rng.uniform(0.01, 10))
        if k % 4 and halfplane.dist(c, 1j) < halfplane.dist(p, 1j):
            c, p = p, c
        sides.append((k, c, c if k % 10 == 9 else p))
    return sides


class TestMeetingSides:
    def test_h2_matches_the_ideal_arcs(self):
        # sides cut the plane along their bisectors; two closed half-planes
        # meet exactly when their closed ideal arcs do
        sides = _random_sides(random.Random(7), 70)
        arcs = [_reference_arc(c, p) for _, c, p in sides]
        expected = [(i, j) for i, j in itertools.combinations(range(70), 2)
                    if _reference_arcs_meet(arcs[i], arcs[j])]
        assert H2.meeting_sides(sides) == expected
        assert 0.1 < 1 - len(expected) / math.comb(70, 2) < 0.9

    @pytest.mark.parametrize("R, meet", [(3.0, False), (2.0, True),
                                         (1.5, True), (2.0 + 2 ** -51, False),
                                         (2.0 - 2 ** -51, True)])
    def test_annulus(self, R, meet):
        # {|z| <= 2} and {|z| >= R}: the same <n1, n2> on both sides of
        # R = 2, where only the time components tell them apart
        sides = [("in", 1j, 4j), ("out", 2j * R, 0.5j * R)]
        assert H2.meeting_sides(sides) == ([("in", "out")] if meet else [])

    @pytest.mark.parametrize("gap", [1.0, 2.0 ** -40, 0.0, -1.0])
    def test_half_planes_asymptotic_at_infinity_meet(self, gap):
        # {Re z <= 0} and {Re z >= gap}: for gap > 0 they are disjoint in
        # the plane, but their closures touch at inf, which counts as meeting
        sides = [("left", -1 + 1j, 1 + 1j),
                 ("right", complex(gap + 1, 1), complex(gap - 1, 1))]
        assert H2.meeting_sides(sides) == [("left", "right")]

    @pytest.mark.parametrize("space", ["h2", "tree"])
    def test_equal_centre_and_anchor_is_everything(self, space, tree2):
        # x and y are disjoint: {|z| <= 2^1/2} and {|z| >= 32^1/2} in H2,
        # the words that start with a and those that start with b
        model, e, x, y = {"h2": (H2, 5e6j, (1j, 2j), (8j, 4j)),
                          "tree": (tree2, "aB", ("a", ""), ("b", ""))}[space]
        assert model.meeting_sides([("all", e, e), ("x", *x),
                                    ("y", *y)]) == [("all", "x"),
                                                    ("all", "y")]

    def test_h2_refuses_a_non_point(self):
        with pytest.raises(InputError):
            H2.meeting_sides([("x", complex(math.inf, 1.0), 1j),
                              ("y", 1j, 2j)])

    @pytest.mark.parametrize("rank", [2, 3])
    def test_tree_matches_brute_force(self, rank):
        # two half-trees that meet share m1 or m2, which lie in B(e, 3)
        # with their sides' words, so B(e, 5) holds a common point
        tree = freetree.FreeTreeSpace(rank)
        words = tree.ball("", 3)
        rng = random.Random(rank)
        sides = []
        for k in range(60):
            c = rng.choice(words)
            sides.append((k, c, c if k % 10 == 9 else rng.choice(words)))
        ball = tree.ball("", 5)
        _, cs, ps = zip(*sides)
        inside = (tree.dist_table(ball, cs) <= tree.dist_table(ball, ps))
        both = inside.T.astype(int) @ inside.astype(int)
        expected = [(i, j) for i, j in itertools.combinations(range(60), 2)
                    if both[i, j]]
        assert tree.meeting_sides(sides) == expected
        assert 0 < len(expected) < math.comb(60, 2)
