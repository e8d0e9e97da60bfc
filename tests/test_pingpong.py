import math
import random

import pytest

from hypcert import halfplane, isometry, pingpong
from hypcert.errors import (BudgetError, ElementaryPairError,
                            PreconditionError)

H2 = halfplane.H2


class TestEndpointProjections:
    def test_h2_schottky_pair(self, schottky_pair):
        a, b = schottky_pair
        ep = pingpong.endpoint_projections(
            H2, H2.classify(a).axis, H2.classify(b).axis)
        # both endpoints of the (-1, 1) axis project onto i
        assert ep.M0 == pytest.approx(0.0)
        assert not ep.swapped
        assert ep.x_minus == pytest.approx(1j)
        assert ep.x_plus == pytest.approx(1j)

    def test_offset_axes_have_positive_spread(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        shift = halfplane.Moebius(1.0, 3.0, 0.0, 1.0)
        b = shift @ halfplane.Moebius(1.25, 0.75, 0.75, 1.25) @ shift.inverse()
        ep = pingpong.endpoint_projections(
            H2, H2.classify(a).axis, H2.classify(b).axis)
        assert ep.M0 > 0.0

    def test_swap_detection(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        shift = halfplane.Moebius(1.0, 3.0, 0.0, 1.0)
        b = shift @ halfplane.Moebius(1.25, 0.75, 0.75, 1.25) @ shift.inverse()
        ep_fwd = pingpong.endpoint_projections(
            H2, H2.classify(a).axis, H2.classify(b).axis)
        ep_rev = pingpong.endpoint_projections(
            H2, H2.classify(a).axis, H2.classify(b).axis.reversed())
        assert ep_fwd.swapped != ep_rev.swapped
        assert ep_fwd.M0 == pytest.approx(ep_rev.M0)

    def test_shared_endpoint_rejected(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        g = halfplane.Moebius(3.0, 0.0, 0.0, 1.0 / 3.0)
        with pytest.raises(ElementaryPairError):
            pingpong.endpoint_projections(
                H2, H2.classify(a).axis, H2.classify(g).axis)

    def test_tree_lines(self, tree2):
        ep = pingpong.endpoint_projections(
            tree2, tree2.classify("a").axis, tree2.classify("b").axis)
        assert ep.M0 == 0.0


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
            assert data.a is a and data.delta == 1.0
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

    def test_certificate_valid(self, schottky_pair, rng):
        a, b = schottky_pair
        data = pingpong.min_free_power(H2, a, b, 1.0)
        pts = halfplane.sample_ball(1j, 10.0, 400, rng)
        cert = pingpong.pingpong_certify(H2, data, pts)
        assert cert.valid
        assert cert.disjoint_ok and cert.nesting_ok and cert.oracle_passed
        assert cert.N == 56

    def test_underpowered_n_rejected(self, schottky_pair, rng):
        a, b = schottky_pair
        with pytest.raises(PreconditionError):
            pingpong.pingpong_data(H2, a, b, 2, 1.0)


class TestEndSets:
    def test_disjoint_above_threshold(self, schottky_pair, rng):
        a, b = schottky_pair
        data = pingpong.pingpong_data(H2, a, b, 56, 1.0)
        pts = halfplane.sample_ball(1j, 8.0, 1000, rng)
        rep = pingpong.end_set_disjointness(H2, data, 65.0 * 1.0, pts)
        assert rep["disjoint"]
        assert rep["overlaps"] == 0

    def test_overlap_at_zero(self, schottky_pair, rng):
        a, b = schottky_pair
        data = pingpong.pingpong_data(H2, a, b, 56, 1.0)
        pts = halfplane.sample_ball(1j, 8.0, 1000, rng)
        rep = pingpong.end_set_disjointness(H2, data, 0.0, pts)
        assert not rep["disjoint"]
        assert rep["overlaps"] > 0


class TestWordOracle:
    def test_sanov_passes(self):
        s1 = halfplane.Moebius(1.0, 2.0, 0.0, 1.0)
        s2 = halfplane.Moebius(1.0, 0.0, 2.0, 1.0)
        passed, counter = pingpong.word_oracle(
            H2, [("a", s1), ("b", s2)], 8, "group")
        assert passed
        assert counter is None

    def test_finite_order_counterexample(self):
        g = halfplane.rotation_about_i(math.pi / 2.0)
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
    # at delta 0 the power is 1 and the four sets overlap near i
    a, b = schottky_pair
    data = pingpong.min_free_power(H2, a, b, 0.0)
    assert data.N == 1
    pts = halfplane.sample_ball(1j, 6.0, 2000, random.Random(0))
    cert = pingpong.pingpong_certify(H2, data, pts)
    assert cert.disjoint_ok is False
    assert not cert.valid
    assert cert.violations
    assert all(len(names) >= 2 for _, names in cert.violations)


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
    cert = pingpong.pingpong_certify(H2, data, [1j])
    assert cert.valid and cert.N == 56
    assert seen == []
