"""The shortlex walk over reduced words and the code that runs on it:
the word oracle, orbit counts, action statistics and finite order."""

import math

import pytest

from hypcert import bounds, halfplane, isometry, pingpong, tits
from hypcert.errors import BudgetError

H2 = halfplane.H2


def _pairs(tree2, schottky_pair):
    return {"h2": (H2, list(zip("ab", schottky_pair)), 1j),
            "tree": (tree2, [("a", "a"), ("b", "b")], "")}


def _exact(g):
    if isinstance(g, halfplane.Moebius):
        return (g.a, g.b, g.c, g.d)
    return g


@pytest.mark.parametrize("model", ["h2", "tree"])
def test_walk_elements_match_per_word_fold(model, tree2, schottky_pair):
    space, gens, _ = _pairs(tree2, schottky_pair)[model]
    walk = list(pingpong.walk_words(
        space, pingpong.group_letters(space, gens), 5))
    assert [w for w, _ in walk] == list(tits.enumerate_words("ab", 5))
    table = dict(gens)
    for word, g in walk:
        assert _exact(g) == _exact(tits.evaluate_word(space, word, table))


def _orbit_counts_by_fold(space, gens, base, radii, word_cap):
    d = space.dist
    table = dict(gens)
    orbit = {bounds._pt_key(base): base}
    for word in tits.enumerate_words([n for n, _ in gens], word_cap):
        g = tits.evaluate_word(space, word, table)
        p = isometry.apply_isometry(space, g, base)
        orbit.setdefault(bounds._pt_key(p), p)
    return [(float(R), sum(1 for p in orbit.values()
                           if d(base, p) <= R + bounds.TOL)) for R in radii]


@pytest.mark.parametrize("model", ["h2", "tree"])
def test_orbit_counts_match_per_word_fold(model, tree2, schottky_pair):
    space, gens, base = _pairs(tree2, schottky_pair)[model]
    radii = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0]
    assert (bounds.orbit_growth_counts(space, gens, base, radii, 5)
            == _orbit_counts_by_fold(space, gens, base, radii, 5))


@pytest.mark.parametrize("model", ["h2", "tree"])
def test_orbit_counts_measure_each_point_once(model, tree2, schottky_pair,
                                              monkeypatch):
    space, gens, base = _pairs(tree2, schottky_pair)[model]
    orbit = {bounds._pt_key(base)}
    for _, g in pingpong.walk_words(
            space, pingpong.group_letters(space, gens), 4):
        orbit.add(bounds._pt_key(isometry.apply_isometry(space, g, base)))
    calls = []
    dist, dist_table = type(space).dist, type(space).dist_table

    def counting_dist(self, p, q):
        calls.append(q)
        return dist(self, p, q)

    def counting_table(self, xs, ys):
        calls.extend(ys)
        return dist_table(self, xs, ys)

    monkeypatch.setattr(type(space), "dist", counting_dist)
    monkeypatch.setattr(type(space), "dist_table", counting_table)
    bounds.orbit_growth_counts(space, gens, base, [1.0, 2.0, 3.0, 4.0], 4)
    assert len(calls) == len(orbit)


def test_action_stats_classifies_each_element_once(schottky_pair, rng,
                                                   monkeypatch):
    gens = list(zip("ab", schottky_pair))
    elems = [g for _, g in pingpong.walk_words(
        H2, pingpong.group_letters(H2, gens), 3) if not H2.is_identity(g)]
    calls = []
    classify = isometry.classify

    def counting_classify(g, space=None):
        calls.append(g)
        return classify(g, space)

    monkeypatch.setattr(isometry, "classify", counting_classify)
    sample = halfplane.sample_ball(1j, 2.0, 10, rng)
    bounds.action_stats(H2, gens, sample, 3, bounds.BoundsConfig())
    assert len(calls) == len(elems)


def test_one_composition_per_word(tree2, monkeypatch):
    calls = []

    def compose(space, g, h):
        calls.append((g, h))
        return space.compose(g, h)

    monkeypatch.setattr(pingpong, "_compose", compose)
    letters = pingpong.group_letters(tree2, [("a", "a"), ("b", "b")])
    words = list(pingpong.walk_words(tree2, letters, 3))
    # every word past the first level, and no level past max_len
    assert len(words) == 4 + 12 + 36
    assert len(calls) == 12 + 36
    calls.clear()
    list(tits.enumerate_words("ab", 3))
    assert calls == []


def test_walk_budget(monkeypatch):
    monkeypatch.setattr(pingpong, "WORD_BUDGET", 5)
    letters = [(("a", 1), None), (("a", -1), None)]
    walk = pingpong.walk_words(None, letters, 10)
    assert len([next(walk) for _ in range(5)]) == 5
    with pytest.raises(BudgetError):
        next(walk)


def test_walk_reads_budget_at_call(monkeypatch):
    monkeypatch.setattr(pingpong, "WORD_BUDGET", 3)
    with pytest.raises(BudgetError):
        list(pingpong.walk_words(None, [(("a", 1), None)], 4))


def test_semigroup_oracle_budget_guard(schottky_pair, monkeypatch):
    monkeypatch.setattr(pingpong, "WORD_BUDGET", 50)
    with pytest.raises(BudgetError):
        pingpong.word_oracle(H2, list(zip("ab", schottky_pair)), 8,
                             "semigroup")


def test_semigroup_counterexample_names_both_words():
    a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
    s = halfplane.Moebius(1.0, 2.0, 0.0, 1.0)
    passed, counter = pingpong.word_oracle(
        H2, [("a", a), ("s", s)], 5, "semigroup")
    assert not passed
    assert counter == "a s = s^4 a"


class TestFiniteOrder:
    def test_order_twelve_rotation(self):
        r = halfplane.rotation_about_i(math.pi / 6.0)
        assert not pingpong.has_finite_order(H2, r, 8)
        assert pingpong.has_finite_order(H2, r, 12)
        assert not pingpong.has_finite_order(H2, r, 11)

    def test_bounds_counts_order_twelve_as_finite(self, rng):
        r = halfplane.rotation_about_i(math.pi / 6.0)
        sample = halfplane.sample_ball(1j, 1.0, 20, rng)
        st = bounds.action_stats(H2, [("r", r)], sample, 3,
                                 bounds.BoundsConfig())
        assert all(v < math.inf for v in st.sys_at.values())
        assert all(v == math.inf for v in st.sys_free_at.values())

    def test_hyperbolic_is_not_finite_order(self, schottky_pair):
        assert not pingpong.has_finite_order(H2, schottky_pair[0], 24)


def test_group_oracle_tells_apart_generators_that_share_a_name():
    a = halfplane.Moebius(1.0, 1.0, 0.0, 1.0)
    b = halfplane.Moebius(1.0, 2.0, 0.0, 1.0)
    passed, counter = pingpong.word_oracle(H2, [("w", a), ("w", b)], 3)
    assert not passed
    assert counter == "w^2 w^-1"
