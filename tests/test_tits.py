import dataclasses
import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from hypcert import cli, halfplane, isometry, pingpong, tits
from hypcert.errors import ElementaryPairError, InputError, SearchExhausted
from helpers import rotation_about_i

H2 = halfplane.H2


def _elementary(space, a, b):
    return isometry.elementary_profiles(
        space, isometry.classify(a, space), isometry.classify(b, space))


class TestElementaryDetection:
    def test_commuting_powers_are_elementary(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        g = halfplane.Moebius(3.0, 0.0, 0.0, 1.0 / 3.0)
        assert _elementary(H2, a, g)

    def test_crossing_axes_are_not(self, schottky_pair):
        a, b = schottky_pair
        assert not _elementary(H2, a, b)

    def test_parabolic_same_fixed_point(self):
        s = halfplane.Moebius(1.0, 1.0, 0.0, 1.0)
        t = halfplane.Moebius(1.0, 2.5, 0.0, 1.0)
        assert _elementary(H2, s, t)

    def test_parabolic_vs_hyperbolic(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        # z + 1 fixes inf, an endpoint of a's axis; the parabolic
        # [[0, 1], [-1, 2]] fixes 1, off it
        assert _elementary(H2, halfplane.Moebius(1, 1, 0, 1), a)
        assert not _elementary(
            H2, halfplane.Moebius(0, 1, -1, 2), a)

    def test_tree_powers_elementary(self, tree2):
        assert _elementary(tree2, "ab", "abab")
        assert not _elementary(tree2, "a", "b")

    def test_elliptic_rejected(self):
        # the rule speaks of non-elliptic pairs; the search refuses the rest
        r = rotation_about_i(1.0)
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        assert not _elementary(H2, r, a)
        with pytest.raises(InputError, match="elliptic generator"):
            tits.tits_witness(H2, r, a)


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
        assert wit.case == "large_ell_group"
        assert wit.N == 56
        assert wit.valid

    def test_h2_unequal_lengths_conjugation(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        b = halfplane.Moebius(1.4, 0.6, 0.6, 1.4)
        wit = tits.tits_witness(H2, a, b)
        assert wit.valid
        assert wit.witness_word == "b a b^-1"

    def test_tree_pair(self, tree2):
        wit = tits.tits_witness(tree2, "a", "b",
                                tits.TitsConfig(delta=0.0))
        assert wit.N == 1
        assert wit.valid

    def test_sanov_parabolic_pair(self):
        s1 = halfplane.Moebius(1.0, 2.0, 0.0, 1.0)
        s2 = halfplane.Moebius(1.0, 0.0, 2.0, 1.0)
        wit = tits.tits_witness(H2, s1, s2)
        assert wit.case == "small_ell"
        assert wit.oracle_passed

    def test_mixed_pair_semigroup(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        s = halfplane.Moebius(0.0, 1.0, -1.0, 2.0)
        wit = tits.tits_witness(H2, a, s)
        assert wit.case == "large_ell_semigroup"
        assert wit.kind == "semigroup"
        # N = 1 fails: a s has trace 1, so (a s)^3 = (s a)^3 = e;
        # escalation stops at 2, and the record names the pair checked
        assert (wit.N, wit.witness_word) == (2, "b^2")
        assert wit.search_stats == {"candidates": 2, "words": 0}

    def test_semigroup_record_names_the_checked_pair(self, tmp_path):
        # the oracle runs on (a^N, b^N); a^2 b has trace 1, so (a^2 b)^4 =
        # a^2 b is a positive relation in (a^2, b), not in (a^2, b^2)
        spec = {"model": "h2", "generators": [
            {"name": "a", "matrix": [[-1, -1], [-1, -2]]},
            {"name": "b", "matrix": [[-3, -8], [2, 5]]}]}
        path, out = tmp_path / "pair.json", tmp_path / "cert.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["certify", "--input", str(path),
                         "--output", str(out)]) == 0
        rep = json.loads(out.read_text())["result"]
        assert (rep["case"], rep["N"], rep["witness_word"]) == \
            ("large_ell_semigroup", 2, "b^2")

    def test_numeric_names_read_as_text(self):
        a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
        s = halfplane.Moebius(0.0, 1.0, -1.0, 2.0)
        wit = tits.tits_witness(H2, a, s, names=(1, 2))
        assert wit.witness_word == "2^2"

    def test_torsion_refused(self):
        r = rotation_about_i(math.pi / 2.0)
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
        w = b @ a @ b.inverse() if wit.witness_word == "b a b^-1" else b
        assert not _elementary(H2, a, w)


def _hyperbolic_rows(u, v, ell):
    """g diag(e^{ell/2}, e^{-ell/2}) g^-1 for g = [[v, u], [1, 1]], as
    rows: axis from u to v, translation length ell."""
    lam = math.exp(ell / 2.0)
    inv = 1.0 / lam
    s = v - u
    return [[(v * lam - u * inv) / s, u * v * (inv - lam) / s],
            [(lam - inv) / s, (v * inv - u * lam) / s]]


def _hyperbolic(u, v, ell):
    (a, b), (c, d) = _hyperbolic_rows(u, v, ell)
    return halfplane.Moebius(a, b, c, d)


def test_small_translation_pair_answers_with_the_third_shortlex_word():
    # a and a^-1 are powers of a, so b is the first word tried
    a, b = _hyperbolic(-1.0, 1.0, 0.02), _hyperbolic(-3.0, 2.5, 0.02)
    wit = tits.tits_witness(H2, a, b)
    assert wit.case == "small_ell"
    assert wit.witness_word == "b"
    assert wit.search_stats == {"candidates": 0, "words": 3}
    assert wit.valid


def test_small_translation_tree_pair_takes_the_walk_s_first_level(tree2):
    # eps0 / 3 past ell = 2: the tree, which walks no further than the
    # first level, answers with b, a non-commuting word, as H² does
    wit = tits.tits_witness(tree2, "ab", "aaB", tits.TitsConfig(eps0=9.0))
    assert (wit.case, wit.witness_word, wit.search_stats, wit.valid) == (
        "small_ell", "b", {"candidates": 0, "words": 3}, True)


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
    assert wit.witness_word == "b" and wit.valid
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
    assert wit.witness_word == "b" and wit.N == 56
    assert wit.search_stats["candidates"] == 1
    assert sorted(powers_of_b) == [-56, 56]


def test_unequal_lengths_try_each_conjugate_once():
    # b a b^-1 is the first candidate, and b itself is never tried
    a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
    b = halfplane.Moebius(1.4, 0.6, 0.6, 1.4)
    wit = tits.tits_witness(H2, a, b, tits.TitsConfig(delta=math.log(2.0)))
    assert (wit.N, wit.witness_word) == (40, "b a b^-1")
    assert wit.search_stats == {"candidates": 1, "words": 0}
    # at delta 0, which tits_witness refuses in H2, the conjugate search
    # passes over the first two conjugates
    with pytest.raises(InputError, match="four-point constant"):
        tits.tits_witness(H2, a, b, tits.TitsConfig(delta=0.0))
    stats = {"candidates": 0, "words": 0}
    wit = tits._large_ell_group(H2, a, b, False, ("a", "b"),
                                tits.TitsConfig(delta=0.0), stats)
    assert wit.case == "large_ell_group"
    assert (wit.N, wit.witness_word) == (1, "b^3 a b^-3")
    assert wit.valid
    assert wit.search_stats == {"candidates": 3, "words": 0}


def _certify(tmp_path, a, b, *flags):
    """certify's exit code and report on the H2 pair of matrix rows a, b."""
    spec, out = tmp_path / "pair.json", tmp_path / "out.json"
    spec.write_text(json.dumps({"model": "h2", "generators": [
        {"name": "a", "matrix": a}, {"name": "b", "matrix": b}]}))
    code = cli.main(["certify", "--input", str(spec), "--output", str(out),
                     *flags])
    return code, json.loads(out.read_text()) if out.exists() else None


@pytest.mark.parametrize("case, a, b", [
    ("large_ell_group", [[2.0, 0.0], [0.0, 0.5]],
     [[1.25, 0.75], [0.75, 1.25]]),
    ("small_ell", _hyperbolic_rows(-1.0, 1.0, 0.02),
     _hyperbolic_rows(-3.0, 2.5, 0.02)),
    ("large_ell_semigroup", [[2.0, 0.0], [0.0, 0.5]], [[0, 1], [-1, 2]])],
    ids=["readme-pair", "small-ell-pair", "semigroup-pair"])
def test_certify_report_is_the_record(tmp_path, case, a, b):
    """certify writes the fields of the record tits_witness returns, in
    order, but violations, on each of its three routes."""
    code, rep = _certify(tmp_path, a, b)
    assert code == 0 and rep["result"]["case"] == case
    assert list(rep["result"]) == [
        f.name for f in dataclasses.fields(pingpong.FreeCertificate)
        if f.name != "violations"]


@pytest.mark.parametrize("a, b", [
    ((-1.0, 1.0, 1.0), (2.0, 2.001, 3.0)),
    ((-1.0, 1.0, 1.0), (2.0, 2.001, 6.0)),
    ((-1.0, 1.0, 1.0), (2.0, 1.999, 6.0)),
    ((-2.3312054346914914, -1.8214123492108125, 0.5065969048153944),
     (0.7688164692575219, 0.7528249157295627, 6.0)),
    ((-1.4013195984206446, 2.956741631315948, 2.744977449201672),
     (-0.03406282003998928, -0.032648662244300505, 6.0))],
    ids=["negative-discriminant", "lengths-drift", "coincident-ends",
         "nan-centre", "ends-within-tol"])
def test_conjugates_the_floats_cannot_hold_are_passed_over(tmp_path, capsys,
                                                           a, b):
    # b's axis is short and far from a's, so each b^j a b^-j has huge
    # entries, and its fixed points, translation length or proof-set
    # centres are lost to rounding; the search passes over each
    code, rep = _certify(tmp_path, _hyperbolic_rows(*a), _hyperbolic_rows(*b))
    assert code == 4 and rep is None
    assert capsys.readouterr().err.startswith(
        "search exhausted: no certified conjugate witness")


def _ford_free_pairs():
    """Every unordered pair g, h of integer matrices with entries in
    [-6, 6], det 1, c > 0 and |a + d| >= 2 whose discs inside the
    isometric circles |cz + d| = 1 of g, g^-1, h and h^-1 are pairwise
    disjoint, compared exactly; a parabolic's own two circles may touch,
    as |a + d| >= 2 allows.  Each pair is free by ping-pong."""
    R = range(-6, 7)
    mats = [(a, b, c, d) for a, b, c, d in itertools.product(R, R, R, R)
            if a * d - b * c == 1 and c > 0 and abs(a + d) >= 2]

    def discs(m):   # the centres -d/c of g's circle and a/c of g^-1's
        a, _, c, d = m
        return [(Fraction(-d, c), Fraction(1, c)), (Fraction(a, c),
                                                    Fraction(1, c))]

    return [(g, h) for g, h in itertools.combinations(mats, 2)
            if all(abs(x - y) > r + s for x, r in discs(g)
                   for y, s in discs(h))]


def test_ford_free_pairs_are_never_refused():
    pairs = _ford_free_pairs()
    kinds = Counter(sum(abs(m[0] + m[3]) == 2 for m in pair)
                    for pair in pairs)
    # parabolics in a pair: 0 hyperbolic, 1 mixed, 2 parabolic pairs
    assert len(pairs) == 720 and kinds == {0: 116, 1: 456, 2: 148}
    refused = [(g, h) for g, h in pairs if not tits.tits_witness(
        H2, halfplane.Moebius(*g), halfplane.Moebius(*h)).valid]
    assert refused == []
