import math

import pytest

from hypcert import freetree, graphspace, halfplane, isometry, tits
from hypcert.errors import (DomainError, ElementaryPairError, InputError,
                            SearchExhausted)

H2 = halfplane.H2


class TestElementaryDetection:
    def test_commuting_powers_are_elementary(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        g = halfplane.Moebius(3.0, 0.0, 0.0, 1.0 / 3.0)
        assert tits.is_elementary_pair(H2, a, g)

    def test_crossing_axes_are_not(self, schottky_pair):
        a, b = schottky_pair
        assert not tits.is_elementary_pair(H2, a, b)

    def test_parabolic_same_fixed_point(self):
        s = halfplane.Moebius(1.0, 1.0, 0.0, 1.0)
        t = halfplane.Moebius(1.0, 2.5, 0.0, 1.0)
        assert tits.is_elementary_pair(H2, s, t)

    def test_parabolic_vs_hyperbolic(self):
        s = halfplane.Moebius(1.0, 1.0, 0.0, 1.0)
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        assert not tits.is_elementary_pair(H2, s, a)

    def test_tree_powers_elementary(self, tree2):
        assert tits.is_elementary_pair(tree2, "ab", "abab")
        assert not tits.is_elementary_pair(tree2, "a", "b")

    def test_elliptic_rejected(self):
        r = halfplane.rotation_about_i(1.0)
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            tits.is_elementary_pair(H2, r, a)


class TestWordEnumeration:
    def test_shortlex_counts(self):
        words = list(tits.enumerate_words(["a", "b"], 3))
        # 4 + 4*3 + 4*9 freely reduced words up to length 3
        assert len(words) == 4 + 12 + 36

    def test_no_cancellation(self):
        for w in tits.enumerate_words(["a", "b"], 4):
            for u, v in zip(w, w[1:]):
                assert not (u[0] == v[0] and u[1] == -v[1])

    def test_budget(self):
        gen = tits.enumerate_words(["a", "b"], 12, budget=100)
        with pytest.raises(SearchExhausted):
            list(gen)

    def test_word_to_text(self):
        assert tits.word_to_text((("a", 1), ("a", 1), ("b", -1))) == "a^2 b^-1"


class TestWitnessSearch:
    def test_h2_equal_lengths(self, schottky_pair):
        a, b = schottky_pair
        wit = tits.tits_witness(H2, a, b)
        assert wit.case_tag == "large_ell_group"
        assert wit.N == 56
        assert wit.certificate.valid

    def test_h2_unequal_lengths_conjugation(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        b = halfplane.Moebius(1.4, 0.6, 0.6, 1.4)
        wit = tits.tits_witness(H2, a, b)
        assert wit.certificate.valid
        assert wit.w == "b a b^-1"

    def test_tree_pair(self, tree2):
        wit = tits.tits_witness(tree2, "a", "b",
                                tits.TitsConfig(delta=0.0))
        assert wit.N == 1
        assert wit.certificate.valid

    def test_sanov_parabolic_pair(self):
        s1 = halfplane.Moebius(1.0, 2.0, 0.0, 1.0)
        s2 = halfplane.Moebius(1.0, 0.0, 2.0, 1.0)
        wit = tits.tits_witness(H2, s1, s2)
        assert wit.case_tag == "small_ell"
        assert wit.certificate.oracle_passed

    def test_mixed_pair_semigroup(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        s = halfplane.Moebius(1.0, 2.0, 0.0, 1.0)
        wit = tits.tits_witness(H2, a, s)
        assert wit.case_tag == "large_ell_semigroup"
        assert wit.certificate.kind == "semigroup"
        # N = 1 fails on the relation a s a^-1 = s^4; escalation stops at 2
        assert wit.N == 2

    def test_torsion_refused(self):
        r = halfplane.rotation_about_i(math.pi / 2.0)
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        with pytest.raises(InputError):
            tits.tits_witness(H2, r, a)

    def test_elementary_pair_refused(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        g = halfplane.Moebius(3.0, 0.0, 0.0, 1.0 / 3.0)
        with pytest.raises(ElementaryPairError):
            tits.tits_witness(H2, a, g)

    def test_witness_pair_is_nonelementary(self, schottky_pair):
        a, b = schottky_pair
        wit = tits.tits_witness(H2, a, b)
        w = b @ a @ b.inverse() if wit.w == "b a b^-1" else b
        assert not tits.is_elementary_pair(H2, a, w)


def test_finite_order_check_lets_model_errors_through():
    G = graphspace.grid_graph(3)
    G.register_isometry("flip", {(i, j): (j, i)
                                 for i in range(3) for j in range(3)})
    # graph isometries have no powers, so the oracle cannot run on them
    with pytest.raises(InputError):
        tits._finite_order(G, "flip", 8)
