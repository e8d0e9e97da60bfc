import math

import pytest

from hypcert import graphspace, halfplane, isometry, pingpong, tits
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
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        # z + 1 fixes inf, an endpoint of a's axis; the parabolic
        # [[0, 1], [-1, 2]] fixes 1, off it
        assert tits.is_elementary_pair(H2, halfplane.Moebius(1, 1, 0, 1), a)
        assert not tits.is_elementary_pair(
            H2, halfplane.Moebius(0, 1, -1, 2), a)

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

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(pingpong, "WORD_BUDGET", 100)
        gen = tits.enumerate_words(["a", "b"], 12)
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
        s = halfplane.Moebius(0.0, 1.0, -1.0, 2.0)
        wit = tits.tits_witness(H2, a, s)
        assert wit.case_tag == "large_ell_semigroup"
        assert wit.certificate.kind == "semigroup"
        # N = 1 fails: a s has trace 1, so (a s)^3 = (s a)^3 = e;
        # escalation stops at 2
        assert (wit.N, wit.w) == (2, "b")
        assert wit.search_stats == {"candidates": 2, "words": 0}

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
        pingpong.has_finite_order(G, "flip", 8)


def _hyperbolic(u, v, ell):
    """g diag(e^{ell/2}, e^{-ell/2}) g^-1 for g = [[v, u], [1, 1]]: axis
    from u to v, translation length ell."""
    lam = math.exp(ell / 2.0)
    inv = 1.0 / lam
    s = v - u
    return halfplane.Moebius((v * lam - u * inv) / s, u * v * (inv - lam) / s,
                             (lam - inv) / s, (v * inv - u * lam) / s)


def test_small_translation_pair_answers_with_the_third_shortlex_word():
    # a and a^-1 are powers of a, so b is the first word tried
    a, b = _hyperbolic(-1.0, 1.0, 0.02), _hyperbolic(-3.0, 2.5, 0.02)
    wit = tits.tits_witness(H2, a, b)
    assert wit.case_tag == "small_ell"
    assert wit.w == "b"
    assert wit.search_stats == {"candidates": 0, "words": 3}
    assert wit.certificate.valid


def test_small_translation_pair_classifies_each_generator_once(monkeypatch):
    a, b = _hyperbolic(-1.0, 1.0, 0.02), _hyperbolic(-3.0, 2.5, 0.02)
    seen = []
    classify = isometry.classify

    def counting(g, space):
        seen.append(g)
        return classify(g, space)

    monkeypatch.setattr(isometry, "classify", counting)
    monkeypatch.setattr(tits, "CONJUGATE_BOUND", 3)
    tits.tits_witness(H2, a, b)
    assert sum(g is a for g in seen) == 1
    assert sum(g is b for g in seen) == 1


def test_shipped_pair_classifies_a_twice(schottky_pair, monkeypatch):
    # once to route the pair, once for the candidate's ping-pong record
    a, b = schottky_pair
    seen = []
    classify = isometry.classify

    def counting(g, space):
        seen.append(g)
        return classify(g, space)

    monkeypatch.setattr(isometry, "classify", counting)
    wit = tits.tits_witness(H2, a, b)
    assert wit.w == "b" and wit.certificate.valid
    assert sum(g is a for g in seen) == 2


def test_shipped_pair_builds_no_untried_conjugate(schottky_pair, monkeypatch):
    a, b = schottky_pair
    powers_of_b = []
    power = isometry.isometry_power

    def recording(space, g, n):
        if g is b:
            powers_of_b.append(n)
        return power(space, g, n)

    monkeypatch.setattr(isometry, "isometry_power", recording)
    wit = tits.tits_witness(H2, a, b)
    # b translates like a and is the first candidate; it passes, so the
    # only powers of b are those of its proof sets, and no b^j a b^-j
    assert wit.w == "b" and wit.N == 56
    assert wit.search_stats["candidates"] == 1
    assert sorted(powers_of_b) == [-56, 56]


def test_unequal_lengths_try_each_conjugate_once():
    # b a b^-1 is the first candidate, and b itself is never tried
    a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
    b = halfplane.Moebius(1.4, 0.6, 0.6, 1.4)
    wit = tits.tits_witness(H2, a, b, tits.TitsConfig(delta=math.log(2.0)))
    assert (wit.N, wit.w) == (40, "b a b^-1")
    assert wit.search_stats == {"candidates": 1, "words": 0}
    # at delta 0, which tits_witness refuses in H2, the conjugate search
    # passes over the first two conjugates
    with pytest.raises(InputError, match="four-point constant"):
        tits.tits_witness(H2, a, b, tits.TitsConfig(delta=0.0))
    stats = {"candidates": 0, "words": 0}
    wit = tits._large_ell_group(H2, a, b, False, ("a", "b"),
                                tits.TitsConfig(delta=0.0), stats)
    assert wit.case_tag == "large_ell_group"
    assert (wit.N, wit.w) == (1, "b^3 a b^-3")
    assert wit.certificate.valid
    assert wit.search_stats == {"candidates": 3, "words": 0}
