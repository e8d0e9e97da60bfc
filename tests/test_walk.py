"""The shortlex walk over reduced words and the code that runs on it:
the word oracle, orbit counts, action statistics and finite order."""

import json
import math
import random
import warnings

import numpy as np
import pytest

from hypcert import bounds, cli, halfplane, isometry, pingpong, tits
from hypcert.errors import BudgetError, InputError

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


# ------------------------------------------- the group oracle, word by word


def _per_word_oracle(space, gens, depth, kind="group"):
    """The group oracle with an isometry per word, folded along the
    shortlex walk: the reference for word_oracle's group kind."""
    if kind != "group":
        return _WORD_ORACLE(space, gens, depth, kind)
    names = [name for name, _ in gens]
    letters = pingpong.group_letters(
        space, [(i, g) for i, (_, g) in enumerate(gens)])
    for word, g in pingpong.walk_words(space, letters, depth):
        if space.is_identity(g):
            return False, pingpong.word_to_text(
                [(names[i], sign) for i, sign in word])
    return True, None


_WORD_ORACLE = pingpong.word_oracle
M = halfplane.Moebius
# a = [[1,1],[0,1]] and b = [[1,0],[1,1]] generate PSL(2,Z), where
# (a b^-1 a)^2 = e
PSL2Z = [("a", M(1, 1, 0, 1)), ("b", M(1, 0, 1, 1))]


def _hyperbolic(rng):
    while True:
        a, b, c, d = (rng.uniform(-3.0, 3.0) for _ in range(4))
        if a * d - b * c > 0.1 and abs(a + d) > 2.5 * math.sqrt(a * d - b * c):
            return M(a, b, c, d)


def _schottky_cases():
    cases = []
    for seed in range(4):
        rng = random.Random(seed)
        g, h = _hyperbolic(rng), _hyperbolic(rng)
        for N in (1, 3, 56):
            cases.append(pytest.param([("a", g ** N), ("b", h)],
                                      id=f"seed{seed}-N{N}"))
    return cases


def _bits(x):
    """x with each NaN as one NaN, so that arrays compare by their bits."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).tobytes()


@pytest.fixture(params=[pingpong._BATCH_PARENTS, 5], ids=["block", "block5"])
def blocks(request, monkeypatch):
    """Both the default block of parents and one that splits every level
    past the second into several blocks."""
    monkeypatch.setattr(pingpong, "_BATCH_PARENTS", request.param)


def _same_as_per_word(space, gens, depth):
    out = pingpong.word_oracle(space, gens, depth)
    assert out == _per_word_oracle(space, gens, depth)
    return out


@pytest.mark.parametrize("gens", _schottky_cases())
def test_batched_oracle_on_schottky_pairs(gens, blocks):
    _same_as_per_word(H2, gens, 8)


def test_batched_products_match_matmul_bit_for_bit():
    rng = random.Random(7)
    gs = [_hyperbolic(rng) for _ in range(6)]
    gs += [g ** 600 for g in gs[:3]]   # entries overflow to inf and NaN
    # the products of the last two have trace 0 and a negative first entry
    gs += [M(0.0, -1.0, 1.0, 0.0), M(2.0, -1.0, -1.0, 1.0)]
    table = H2.compose_batch(H2.batch(gs), H2.batch(gs))
    products = [[(g @ h).entries() for h in gs] for g in gs]
    assert _bits(np.moveaxis(table, 0, -1)) == _bits(products)
    assert (H2.is_identity_batch(table).tolist()
            == [[M._unit(*e).is_identity() for e in row] for row in products])
    near = [(2.0, 0.0, 0.0, 2.0), (1.0, 1e-10, -1e-10, 1.0 + 1e-10),
            (1.0, 2e-9, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0 + 2e-9),
            (math.inf, 0.0, 0.0, math.inf), (math.nan, 0.0, 0.0, 1.0)]
    assert (H2.is_identity_batch(np.array(near).T).tolist()
            == [M._unit(*e).is_identity() for e in near])


@pytest.mark.parametrize("gens, depth, counter", [
    ([("g", halfplane.rotation_about_i(2 * math.pi / k))], 8, f"g^{k}")
    for k in range(2, 9)] + [
    ([("g", halfplane.rotation_about_i(math.pi / 2))], 3, None),
    ([("w", M(1, 1, 0, 1)), ("w", M(1, 2, 0, 1))], 3, "w^2 w^-1"),
    (PSL2Z, 6, "a^2 b^-1 a^2 b^-1"),
    (PSL2Z, 5, None),
    ([("a", M(2, 0, 0, 0.5)), ("b", M(1.25, 0.75, 0.75, 1.25)),
      ("c", M(2, 0, 0, 0.5) @ M(1.25, 0.75, 0.75, 1.25))], 4, "a b c^-1"),
    ([("a", M(2, 0, 0, 0.5)), ("b", M(1.25, 0.75, 0.75, 1.25)),
      ("c", M(1, 4, 0, 1))], 5, None),
], ids=[f"order-{k}" for k in range(2, 9)] + [
    "order-4-below-depth", "shared-name", "psl2z", "psl2z-below-depth",
    "three-generators", "three-free"])
def test_batched_oracle_finds_the_first_relation(gens, depth, counter,
                                                 blocks):
    assert _same_as_per_word(H2, gens, depth) == (counter is None, counter)


def test_batched_oracle_with_overflowing_powers(capfd):
    a, b = M(2, 0, 0, 0.5), M(1.25, 0.75, 0.75, 1.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in (1100, 2000):
            gens = [("a", a ** N), ("b", b ** N)]
            letters = pingpong.group_letters(H2, list(enumerate(
                g for _, g in gens)))
            assert any(not math.isfinite(v) for _, g in letters
                       for v in g.entries())
            _same_as_per_word(H2, gens, 8)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("cut, passed", [(0, False), (-1, None), (5, False),
                                         (-30, None)])
def test_batched_oracle_budget_ends_mid_level(monkeypatch, blocks, cut,
                                              passed):
    # the first relation of PSL2Z is a word of level 6, past the 484
    # words of levels 1 to 5
    first = _per_word_oracle(H2, PSL2Z, 6)[1]
    position = 1 + [pingpong.word_to_text(w) for w in tits.enumerate_words(
        "ab", 6)].index(first)
    assert 484 < position <= 484 + 972
    monkeypatch.setattr(pingpong, "WORD_BUDGET", position + cut)
    if passed is None:
        for oracle in (pingpong.word_oracle, _per_word_oracle):
            with pytest.raises(BudgetError, match="word budget exhausted"):
                oracle(H2, PSL2Z, 8)
    else:
        _same_as_per_word(H2, PSL2Z, 8)


@pytest.mark.parametrize("model", ["h2", "tree", "tree-commuting"])
def test_oracle_depth_zero_is_an_input_error(model, tree2, schottky_pair):
    space, gens = {
        "h2": (H2, list(zip("ab", schottky_pair))),
        "tree": (tree2, [("a", "ab"), ("b", "ba")]),
        "tree-commuting": (tree2, [("a", "ab"), ("b", "abab")])}[model]
    with pytest.raises(InputError):
        pingpong.word_oracle(space, gens, 0)


# ------------------------------------------- the group oracle on trees


def test_commuting_tree_pair_walks_to_the_relation(tree2):
    gens = [("u", "ab"), ("v", "abab")]
    assert _same_as_per_word(tree2, gens, 8) == (False, "u^2 v^-1")


@pytest.mark.parametrize("gens", [[("a", "a"), ("b", "b")],
                                  [("u", "ab"), ("v", "ba")],
                                  [("u", "aab"), ("v", "ABaab")]])
def test_non_commuting_tree_pair_composes_nothing(tree2, monkeypatch, gens):
    calls = []
    monkeypatch.setattr(pingpong, "_compose",
                        lambda space, g, h: calls.append(g) or g)
    assert pingpong.word_oracle(tree2, gens, 8) == (True, None)
    assert calls == []
    monkeypatch.undo()
    assert _per_word_oracle(tree2, gens, 8) == (True, None)


@pytest.mark.parametrize("budget", [51, 52])
def test_tree_walk_length_against_the_budget(tree2, monkeypatch, budget):
    # 4 + 12 + 36 = 52 words of length at most 3
    monkeypatch.setattr(pingpong, "WORD_BUDGET", budget)
    gens = [("a", "a"), ("b", "b")]
    for oracle in (pingpong.word_oracle, _per_word_oracle):
        if budget < 52:
            with pytest.raises(BudgetError, match="word budget exhausted"):
                oracle(tree2, gens, 3)
        else:
            assert oracle(tree2, gens, 3) == (True, None)


def test_tree_certify_past_the_budget_is_exit_3(tree_pair_file, capsys):
    assert cli.main(["certify", "--input", tree_pair_file,
                     "--depth", "13"]) == 3
    assert "word budget exhausted" in capsys.readouterr().err


# ------------------------------------------- certify with either oracle


def _spec_file(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("spec", [
    {"model": "h2", "generators": [
        {"name": "a", "matrix": [[2, 0], [0, 0.5]]},
        {"name": "b", "matrix": [[1.25, 0.75], [0.75, 1.25]]}]},
    {"model": "free_tree", "params": {"rank": 2}, "generators": [
        {"name": "a", "word": "ab"}, {"name": "b", "word": "a^2 b^-1"}]},
    {"model": "h2", "generators": [
        {"name": "a", "matrix": [[1, 1], [0, 1]]},
        {"name": "b", "matrix": [[1, 0], [1, 1]]}]},
], ids=["readme-h2", "tree", "psl2z"])
def test_certify_reports_the_same_with_the_per_word_oracle(
        tmp_path, capsys, monkeypatch, spec):
    argv = ["certify", "--input", _spec_file(tmp_path, spec)]
    code = cli.main(argv)
    out = capsys.readouterr().out
    monkeypatch.setattr(pingpong, "word_oracle", _per_word_oracle)
    assert cli.main(argv) == code
    assert capsys.readouterr().out == out
