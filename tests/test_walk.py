"""The shortlex walk over reduced words and the code that runs on it:
the word oracle, orbit counts, action statistics and finite order."""

import dataclasses
import json
import math
import random
import warnings

import numpy as np
import pytest

from hypcert import (bounds, cli, freetree, halfplane, isometry, pingpong,
                     tits)
from hypcert.errors import BudgetError, InputError, PreconditionError
from helpers import WalkedTree, rotation_about_i

H2 = halfplane.H2


def _pairs(schottky_pair):
    return {"h2": (H2, list(zip("ab", schottky_pair)), 1j),
            "tree": (WalkedTree(2), [("a", "a"), ("b", "b")], "")}


def _pt_key(p):
    """An orbit point's key: H² points rounded to 9 decimals, words as
    they are."""
    if isinstance(p, complex):
        return (round(p.real, 9), round(p.imag, 9))
    return p


def _is_identity(space, g):
    """A word is the identity when it is empty; H² asks its matrix."""
    return g == "" if isinstance(g, str) else g.is_identity()


def _exact(g):
    if isinstance(g, halfplane.Moebius):
        return (g.a, g.b, g.c, g.d)
    return g


@pytest.mark.parametrize("model", ["h2", "tree"])
def test_walk_elements_match_per_word_fold(model, schottky_pair):
    space, gens, _ = _pairs(schottky_pair)[model]
    walk = list(pingpong.walk_words(
        space, pingpong.group_letters(space, gens), 5))
    assert [w for w, _ in walk] == list(tits.enumerate_words("ab", 5))
    table = dict(gens)
    for word, g in walk:
        assert _exact(g) == _exact(tits.evaluate_word(space, word, table))


def _orbit_counts_by_fold(space, gens, base, radii, word_cap):
    d = space.dist
    table = dict(gens)
    orbit = {_pt_key(base): base}
    for word in tits.enumerate_words([n for n, _ in gens], word_cap):
        g = tits.evaluate_word(space, word, table)
        p = isometry.apply_isometry(space, g, base)
        orbit.setdefault(_pt_key(p), p)
    return [(float(R), sum(1 for p in orbit.values()
                           if d(base, p) <= R + bounds.TOL)) for R in radii]


@pytest.mark.parametrize("model", ["h2", "tree"])
def test_orbit_counts_match_per_word_fold(model, schottky_pair):
    # H² counts the words up to the cap; the tree counts every point, the
    # fold's at a cap that reaches the largest radius from the base e
    space, gens, base = _pairs(schottky_pair)[model]
    radii = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0]
    assert (bounds.orbit_growth_counts(space, gens, base, radii, 5)
            == _orbit_counts_by_fold(space, gens, base, radii,
                                     5 if space is H2 else 8))


@pytest.mark.parametrize("model", ["h2", "tree"])
def test_orbit_counts_measure_each_point_once(model, schottky_pair,
                                              monkeypatch):
    space, gens, base = _pairs(schottky_pair)[model]
    orbit = {_pt_key(base)}
    for _, g in pingpong.walk_words(
            space, pingpong.group_letters(space, gens), 4):
        orbit.add(_pt_key(isometry.apply_isometry(space, g, base)))
    calls = []
    model = type(space)
    dist, dist_table = model.dist, model.dist_table
    paired, lcp = halfplane._paired, freetree._lcp

    def counting_dist(self, p, q):
        calls.append(q)
        return dist(self, p, q)

    def counting_table(self, xs, ys):
        calls.extend(ys)
        return dist_table(self, xs, ys)

    def counting_paired(zx, zy):
        # H² measures its points with the paired kernel, an entry each
        out = paired(zx, zy)
        calls.extend(range(out.size))
        return out

    def counting_lcp(X, Y):
        # the tree measures its images by common prefixes, an entry each
        out = lcp(X, Y)
        calls.extend(range(out.size))
        return out

    monkeypatch.setattr(model, "dist", counting_dist)
    monkeypatch.setattr(model, "dist_table", counting_table)
    monkeypatch.setattr(halfplane, "_paired", counting_paired)
    monkeypatch.setattr(freetree, "_lcp", counting_lcp)
    bounds.orbit_growth_counts(space, gens, base, [1.0, 2.0, 3.0, 4.0], 4)
    # H² measures each point once; the tree counts its points as loops
    # of its Stallings graph and measures none
    assert len(calls) == (len(orbit) if space is H2 else 0)


# ------------------------------------------- the tree's exact orbit

# rank-2 and rank-3 pairs, and a pair that generates a cyclic group; the
# word cap at which the reference finds every element that moves a point
# of the 1-ball by at most 64 eps0 = 6.4, which has at most 8 letters
_TREE_GROUPS = {
    "rank2": (2, ["ab", "Ab"], 8),
    "rank2-folded": (2, ["aab", "ABaab"], 8),
    "rank3": (3, ["ab", "cA"], 8),
    "rank3-long": (3, ["abc", "Bca"], 8),
    "elementary": (2, ["ab", "abab"], 4),   # (ab)^k, k <= 4
}


@pytest.mark.parametrize("group", sorted(_TREE_GROUPS))
def test_tree_orbit_is_the_fold_at_a_cap_past_the_radius(group):
    rank, words, cap = _TREE_GROUPS[group]
    space, gens = freetree.FreeTreeSpace(rank), list(zip("uv", words))
    radii = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -1.0, 2.5]
    want = _orbit_counts_by_fold(space, gens, "", radii, 6)
    for word_cap in (1, 3, 6):   # the word cap bounds no tree count
        assert bounds.orbit_growth_counts(space, gens, "", radii,
                                          word_cap) == want
    sample, cfg = space.ball("", 1), bounds.BoundsConfig()
    got = bounds.action_stats(space, gens, sample, 2, cfg)
    ref = _action_stats_per_word(space, gens, sample, cap, cfg)
    assert (got.sys_at, got.sys_free_at, got.nilrad_at, got.dias_estimate,
            got.nilrad_plus_estimate) == (
        ref.sys_at, ref.sys_free_at, ref.nilrad_at, ref.dias_estimate,
        ref.nilrad_plus_estimate)


def test_tree_counts_are_exact_at_every_cap(tmp_path, capsys):
    # u = ab and v = a^-1 b: a Stallings graph of two vertices and three
    # edges, 2^13 - 1 = 8191 orbit points within 12 of e
    path = _spec_file(tmp_path, {"model": "free_tree", "generators": [
        {"name": "u", "word": "ab"}, {"name": "v", "word": "a^-1 b"}]})
    for cap in ("6", "8", "10"):
        assert cli.main(["entropy", "--input", path, "--orbit",
                         "--word-cap", cap]) == 0
        counts = json.loads(capsys.readouterr().out)["result"]["counts"]
        assert counts[-1] == [12.0, 8191]


@pytest.mark.parametrize("budget, code", [(47, 3), (48, 0)])
def test_tree_counts_step_over_the_budget(tmp_path, monkeypatch, capsys,
                                          tree_pair_file, budget, code):
    # F2's graph is one vertex with 4 darts: 12 steps for the radius 12
    monkeypatch.setattr(pingpong, "WORD_BUDGET", budget)
    assert cli.main(["entropy", "--input", tree_pair_file, "--orbit"]) == code
    assert ("word budget exhausted" in capsys.readouterr().err) == (code == 3)


def test_tree_counts_past_printable_integers_are_exit_2(tree_pair_file,
                                                       capsys):
    # F2 has 2 3^R - 1 points within R: 4295 digits at R = 9000, and more
    # than Python prints at R = 9012
    assert cli.main(["entropy", "--input", tree_pair_file, "--orbit",
                     "--radii", "1,2,9000"]) == 0
    counts = json.loads(capsys.readouterr().out)["result"]["counts"]
    assert counts[-1][1] == 2 * 3 ** 9000 - 1
    assert cli.main(["entropy", "--input", tree_pair_file, "--orbit",
                     "--radii", "1,2,9100"]) == 2
    assert "past the integers a report prints" in capsys.readouterr().err


def test_trivial_tree_group(tree2):
    gens = [("u", ""), ("v", "")]
    assert bounds.orbit_growth_counts(tree2, gens, "ab", [0.0, 9.0], 4) == \
        [(0.0, 1), (9.0, 1)]
    with pytest.raises(InputError, match="trivial group"):
        bounds.action_stats(tree2, gens, ["", "a"], 4, bounds.BoundsConfig())


def test_action_stats_classifies_each_element_once(schottky_pair, rng,
                                                   monkeypatch):
    gens = list(zip("ab", schottky_pair))
    elems = [g for _, g in pingpong.walk_words(
        H2, pingpong.group_letters(H2, gens), 3) if not g.is_identity()]
    calls = []
    classify = isometry.classify

    def counting_classify(g, space=None):
        calls.append(g)
        return classify(g, space)

    monkeypatch.setattr(isometry, "classify", counting_classify)
    sample = halfplane.sample_ball(1j, 2.0, 10, rng)
    bounds.action_stats(H2, gens, sample, 3, bounds.BoundsConfig())
    assert len(calls) == len(elems)


def test_one_composition_per_word(schottky_pair, monkeypatch):
    rows, product = [], halfplane._product

    def counting(p, q):
        if isinstance(p[0], np.ndarray):   # a batch, not one matrix
            rows.append(p[0].size)
        return product(p, q)

    def no_compose(space, g, h):
        raise AssertionError("a per-word product")

    letters = pingpong.group_letters(H2, list(zip("ab", schottky_pair)))
    monkeypatch.setattr(halfplane, "_product", counting)
    monkeypatch.setattr(halfplane.HalfPlane, "compose", no_compose)
    words = list(pingpong.walk_words(H2, letters, 3))
    # every word past the first level is a row of its level's one
    # product, and no level is past max_len
    assert len(words) == 4 + 12 + 36
    assert rows == [12, 36]
    rows.clear()
    list(tits.enumerate_words("ab", 3))
    assert rows == []


def test_walk_budget(monkeypatch):
    monkeypatch.setattr(pingpong, "WORD_BUDGET", 5)
    letters = [(("a", 1), "a"), (("a", -1), "A")]
    walk = pingpong.walk_words(WalkedTree(2), letters, 10)
    assert len([next(walk) for _ in range(5)]) == 5
    with pytest.raises(BudgetError):
        next(walk)


def test_walk_reads_budget_at_call(monkeypatch):
    monkeypatch.setattr(pingpong, "WORD_BUDGET", 3)
    with pytest.raises(BudgetError):
        list(pingpong.walk_words(WalkedTree(2), [(("a", 1), "a")], 4))


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
        r = rotation_about_i(math.pi / 6.0)
        assert not _batched_finite_order(H2, r, 8)
        assert _batched_finite_order(H2, r, 12)
        assert not _batched_finite_order(H2, r, 11)

    def test_bounds_counts_order_twelve_as_finite(self, rng):
        r = rotation_about_i(math.pi / 6.0)
        sample = halfplane.sample_ball(1j, 1.0, 20, rng)
        st = bounds.action_stats(H2, [("r", r)], sample, 3,
                                 bounds.BoundsConfig())
        assert all(v < math.inf for v in st.sys_at.values())
        assert all(v == math.inf for v in st.sys_free_at.values())

    def test_hyperbolic_is_not_finite_order(self, schottky_pair):
        assert not _batched_finite_order(H2, schottky_pair[0], 24)


def _walked_finite_order(space, g, k, seen=None):
    """Whether g^j is the identity for some 1 <= j <= k, as the walk over
    the one letter g decides it, the reference for the batched decision;
    the bits of each element it tests go to seen."""
    for _, h in pingpong.walk_words(space, [(("g", 1), g)], k):
        if seen is not None:
            seen.append(_exact(h))
        if _is_identity(space, h):
            return True
    return False


def _batched_finite_order(space, g, k):
    """action_stats' batched decision for the one element g."""
    return bool(bounds._finite_order(space, [g], k)[0])


def _finite_order_traces(space, g, k, monkeypatch):
    """The verdict or error of the walk over the one letter g and of the
    batched decision, each with the bits of every element it tests, in
    order."""
    def run(decide):
        seen = []
        try:
            return decide(seen), seen
        except (InputError, BudgetError) as e:
            return (type(e), str(e)), seen

    test = type(space).is_identity_batch

    def batched(seen):
        monkeypatch.setattr(type(space), "is_identity_batch", lambda self, E:
                            seen.extend(map(_exact, self.unbatch(E)))
                            or test(self, E))
        return _batched_finite_order(space, g, k)

    walked = run(lambda seen: _walked_finite_order(space, g, k, seen))
    out = run(batched)
    monkeypatch.setattr(type(space), "is_identity_batch", test)
    return walked, out


def _finite_order_cases():
    rot = rotation_about_i
    tree2, tree3 = WalkedTree(2), WalkedTree(3)
    cases = {f"rotation-{m}-{k}": (H2, rot(2.0 * math.pi / m), k)
             for m in range(2, 13) for k in (1, m - 1, m, 24)}
    # about 1 + i, where g^j g and g g^j differ in their last bits
    shift = halfplane.Moebius(1.0, 1.0, 0.0, 1.0)
    cases.update({f"rotation-about-1+i-{m}": (
        H2, shift @ rot(2.0 * math.pi / m) @ shift.inverse(), 24)
        for m in (5, 7, 12)})
    cases.update({
        "rotation-1-rad": (H2, rot(1.0), 24),
        "schottky-a": (H2, halfplane.Moebius(2.0, 0.0, 0.0, 0.5), 24),
        "schottky-b": (H2, halfplane.Moebius(1.25, 0.75, 0.75, 1.25), 24),
        "parabolic": (H2, halfplane.Moebius(1.0, 1.0, 0.0, 1.0), 24),
        "identity": (H2, halfplane.Moebius.identity(), 3),
        "tree-a": (tree2, "a", 24), "tree-aB": (tree2, "aB", 24),
        "tree-abA": (tree2, "abA", 24), "tree-cBa": (tree3, "cBa", 8),
        "tree-identity": (tree2, "", 2),
    })
    return cases


@pytest.mark.parametrize("case", sorted(_finite_order_cases()))
def test_finite_order_is_the_walk(case, monkeypatch):
    space, g, k = _finite_order_cases()[case]
    walked, batched = _finite_order_traces(space, g, k, monkeypatch)
    assert batched == walked


@pytest.mark.parametrize("budget", [0, 1, 5, 6])
@pytest.mark.parametrize("g", ["order-6", "order-5", "schottky"])
def test_finite_order_budget_is_the_walk(budget, g, monkeypatch):
    monkeypatch.setattr(pingpong, "WORD_BUDGET", budget)
    g = {"order-6": rotation_about_i(2.0 * math.pi / 6),
         "order-5": rotation_about_i(2.0 * math.pi / 5),
         "schottky": halfplane.Moebius(2.0, 0.0, 0.0, 0.5)}[g]
    for k in (1, 5, 6, 7, 12):
        walked, batched = _finite_order_traces(H2, g, k, monkeypatch)
        assert batched == walked


@pytest.mark.parametrize("budget", [0, 3, 7, 24])
def test_finite_order_of_a_batch_is_each_walk(budget, monkeypatch):
    """The elements of one batch step together, each deciding as its own
    walk would: orders 2 to 12 and 30, and elements of infinite order,
    with the budget's error where any is undecided past it."""
    monkeypatch.setattr(pingpong, "WORD_BUDGET", budget)
    gs = [rotation_about_i(2.0 * math.pi / m) for m in (*range(2, 13), 30)]
    gs += [rotation_about_i(1.0), halfplane.Moebius(2.0, 0.0, 0.0, 0.5),
           halfplane.Moebius.identity()]
    random.Random(3).shuffle(gs)
    try:
        want = [_walked_finite_order(H2, g, 24) for g in gs]
    except BudgetError:
        with pytest.raises(BudgetError, match="word budget exhausted"):
            bounds._finite_order(H2, gs, 24)
        return
    assert bounds._finite_order(H2, gs, 24).tolist() == want
    assert want.count(True) == 12


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
    for word, g in _per_word_walk(space, letters, depth):
        if _is_identity(space, g):
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


@pytest.fixture(params=[halfplane._LEVEL_BLOCK, 5], ids=["block", "block5"])
def blocks(request, monkeypatch):
    """Both the default block of H2's compose_level and one that splits
    every level past the first into several blocks."""
    monkeypatch.setattr(halfplane, "_LEVEL_BLOCK", request.param)


def _same_as_per_word(space, gens, depth):
    out = pingpong.word_oracle(space, gens, depth)
    assert out == _per_word_oracle(space, gens, depth)
    return out


@pytest.mark.parametrize("gens", _schottky_cases())
def test_batched_oracle_on_schottky_pairs(gens, blocks):
    _same_as_per_word(H2, gens, 8)


def test_batched_products_match_matmul_bit_for_bit(monkeypatch, capfd):
    # blocks of 5 columns split the 121 products into 25 blocks
    monkeypatch.setattr(halfplane, "_LEVEL_BLOCK", 5)
    rng = random.Random(7)
    gs = [_hyperbolic(rng) for _ in range(6)]
    gs += [g ** 600 for g in gs[:3]]   # entries overflow to inf and NaN
    # the products of the last two have trace 0 and a negative first entry
    gs += [M(0.0, -1.0, 1.0, 0.0), M(2.0, -1.0, -1.0, 1.0)]
    rows, cols = np.divmod(np.arange(len(gs) ** 2), len(gs))
    B = H2.batch(gs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        level = H2.compose_level(B, rows, B, cols)
    products = [(gs[i] @ gs[j]).entries() for i, j in zip(rows, cols)]
    assert any(v != v for e in products for v in e)
    assert _bits(level.T) == _bits(products)
    verdicts = [M._unit(*e).is_identity() for e in products]
    assert any(verdicts)   # M(0, -1, 1, 0) squared is -1
    assert H2.is_identity_batch(level).tolist() == verdicts
    # the same verdicts from the b entries alone, False where keep is not
    keep = np.ones((len(gs), len(gs)), dtype=bool)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (H2.identity_products(B, B, keep).ravel().tolist()
                == verdicts)
        keep[::2, 1::3] = False
        keep[-2, -2] = False
        assert (H2.identity_products(B, B, keep).ravel().tolist()
                == [v and k for v, k in zip(verdicts, keep.ravel())])
    assert capfd.readouterr().err == ""
    near = [(2.0, 0.0, 0.0, 2.0), (1.0, 1e-10, -1e-10, 1.0 + 1e-10),
            (1.0, 2e-9, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0 + 2e-9),
            (math.inf, 0.0, 0.0, math.inf), (math.nan, 0.0, 0.0, 1.0)]
    assert (H2.is_identity_batch(np.array(near).T).tolist()
            == [M._unit(*e).is_identity() for e in near])


@pytest.mark.parametrize("gens, depth, counter", [
    ([("g", rotation_about_i(2 * math.pi / k))], 8, f"g^{k}")
    for k in range(2, 9)] + [
    ([("g", rotation_about_i(math.pi / 2))], 3, None),
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


@pytest.mark.parametrize("budget", [
    lambda position: 484, lambda position: position - 30,
    lambda position: position - 1, lambda position: position,
    lambda position: position + 5, lambda position: 484 + 972],
    ids=["level-start", "before-30", "before-1", "at", "after-5",
         "level-end"])
def test_batched_oracle_budget_ends_in_the_deepest_level(monkeypatch, blocks,
                                                         budget):
    # at depth 6, level 6, which holds the first relation, is never built
    first = _per_word_oracle(H2, PSL2Z, 6)[1]
    position = 1 + [pingpong.word_to_text(w) for w in tits.enumerate_words(
        "ab", 6)].index(first)
    assert 484 < position <= 484 + 972
    monkeypatch.setattr(pingpong, "WORD_BUDGET", budget(position))
    built, compose_level = [], H2.compose_level
    monkeypatch.setattr(H2, "compose_level", lambda E, parents, L, letters:
                        built.append(len(parents))
                        or compose_level(E, parents, L, letters))
    outs = []
    for oracle in (pingpong.word_oracle, _per_word_oracle):
        try:
            outs.append(oracle(H2, PSL2Z, 6))
        except BudgetError as e:
            outs.append(str(e))
    assert built == [12, 36, 108, 324]   # levels 2 to 5
    assert outs[0] == outs[1]
    assert outs[0] == ((False, first) if budget(position) >= position
                       else "word budget exhausted")


@pytest.mark.parametrize("depth", [5, 8])
def test_one_letter_walk_rebuilds_its_word(depth):
    # one letter and no inverse: a word's one child extends it, c = 1
    g = rotation_about_i(2.0 * math.pi / 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (pingpong._first_identity(H2, [(("g", 1), g)], depth)
                == [("g", 1)] * 5)


@pytest.mark.parametrize("depth", [3, 4, 5])
def test_positive_walk_finds_the_first_identity_of_walk_words(depth):
    # two letters and no inverses, c = 2: the first identity is b^3
    letters = [(("a", 1), M(1, 1, 0, 1)),
               (("b", 1), rotation_about_i(2 * math.pi / 3))]
    first = next(list(w) for w, g in pingpong.walk_words(H2, letters, 3)
                 if g.is_identity())
    assert first == [("b", 1)] * 3
    assert pingpong._first_identity(H2, letters, depth) == first


@pytest.mark.parametrize("model", ["h2", "tree", "tree-commuting"])
def test_oracle_depth_zero_is_an_input_error(model, tree2, schottky_pair):
    space, gens = {
        "h2": (H2, list(zip("ab", schottky_pair))),
        "tree": (tree2, [("a", "ab"), ("b", "ba")]),
        "tree-commuting": (tree2, [("a", "ab"), ("b", "abab")])}[model]
    with pytest.raises(InputError):
        pingpong.word_oracle(space, gens, 0)


# ------------------------------------------- the group oracle on trees


def test_commuting_tree_pair_walks_to_the_relation():
    gens = [("u", "ab"), ("v", "abab")]
    assert _same_as_per_word(WalkedTree(2), gens, 8) == (False, "u^2 v^-1")


@pytest.mark.parametrize("gens, depth, out", [
    ([("u", "ab"), ("v", "abab")], 3, (False, "u^2 v^-1")),
    ([("a", "a"), ("b", "b")], 4, (True, None))], ids=["relation", "free"])
def test_walked_tree_decides_the_deepest_level(gens, depth, out):
    assert _same_as_per_word(WalkedTree(2), gens, depth) == out


@pytest.mark.parametrize("gens, kind", [
    ([("u", "ab"), ("v", "abab")], "group"),           # commuting
    ([("a", "a"), ("b", "b"), ("c", "ab")], "group"),  # three generators
    ([("a", "a"), ("b", "b")], "semigroup")])
def test_tree_oracle_refuses_what_it_does_not_decide(tree2, gens, kind):
    with pytest.raises(InputError, match="decides only the group kind for "
                       "two words that do not commute"):
        pingpong.word_oracle(tree2, gens, 8, kind)


@pytest.mark.parametrize("gens", [[("a", "a"), ("b", "b")],
                                  [("u", "ab"), ("v", "ba")],
                                  [("u", "aab"), ("v", "ABaab")]])
def test_non_commuting_tree_pair_composes_nothing(tree2, monkeypatch, gens):
    calls = []
    monkeypatch.setattr(freetree.FreeTreeSpace, "compose",
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


# ------------------------------------------- the level walk, word by word


def _per_word_walk(space, letters, max_len):
    """The shortlex walk one word at a time, each element its prefix's
    composed with the last letter's: the reference for walk_levels and
    walk_words."""
    if max_len < 1:
        raise InputError("max_len must be >= 1")
    budget, count = pingpong.WORD_BUDGET, 0
    frontier = [((), None)]
    for level in range(1, max_len + 1):
        nxt = []
        for word, g in frontier:
            for sym, h in letters:
                if word and word[-1] == (sym[0], -sym[1]):
                    continue
                count += 1
                if count > budget:
                    raise BudgetError("word budget exhausted")
                w2 = word + (sym,)
                g2 = h if g is None else space.compose(g, h)
                yield w2, g2
                if level < max_len:
                    nxt.append((w2, g2))
        frontier = nxt


def _element_bits(g):
    if isinstance(g, halfplane.Moebius):
        return _bits(g.entries())
    return g


def _walk_prefix(walk):
    """The (word, element bits) pairs a walk yields, and whether it
    ended with the budget error."""
    out = []
    try:
        for word, g in walk:
            out.append((word, _element_bits(g)))
    except BudgetError:
        return out, True
    return out, False


def _letter_cases():
    tree2, tree3 = WalkedTree(2), WalkedTree(3)
    a, b = M(2, 0, 0, 0.5), M(1.25, 0.75, 0.75, 1.25)
    H2_group = pingpong.group_letters(H2, [(0, a), (1, b)])
    return {
        "h2-group": (H2, H2_group, 5),
        "h2-psl2z": (H2, pingpong.group_letters(H2, list(enumerate(
            g for _, g in PSL2Z))), 6),
        "h2-overflow": (H2, pingpong.group_letters(
            H2, [(0, a ** 1100), (1, b ** 1100)]), 4),
        "h2-semigroup": (H2, [((0, 1), a), ((1, 1), b)], 6),
        "h2-one-letter": (H2, [(("g", 1), rotation_about_i(1.0))],
                          7),
        "tree-group": (tree2, pingpong.group_letters(
            tree2, [("u", "ab"), ("v", "aBB")]), 5),
        "tree-semigroup": (tree2, [(("u", 1), "ab"), (("v", 1), "ba"),
                                   (("w", 1), "A")], 4),
        # the rank-3 tree's own generators, each element its word
        "no-elements": (tree3, pingpong.group_letters(
            tree3, [(n, n) for n in "abc"]), 4),
        "tree-one-letter": (tree2, [(("u", 1), "aB")], 6),
    }


@pytest.fixture(params=sorted(_letter_cases()))
def letter_case(request):
    return _letter_cases()[request.param]


def test_walk_words_is_the_per_word_walk(letter_case, blocks):
    space, letters, depth = letter_case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (_walk_prefix(pingpong.walk_words(space, letters, depth))
                == _walk_prefix(_per_word_walk(space, letters, depth)))


def test_levels_follow_the_parent_rule(letter_case, blocks):
    space, letters, depth = letter_case
    free = all((n, -s) not in {sym for sym, _ in letters}
               for (n, s), _ in letters)
    c = len(letters) - (0 if free else 1)
    words = [w for w, _ in _per_word_walk(space, letters, depth)]
    lasts, rebuilt = [], []
    for level, (E, last) in enumerate(
            pingpong.walk_levels(space, letters, depth), 1):
        assert len(space.unbatch(E)) == len(last)
        lasts.append(last)
        for i in range(len(last)):
            word, k = [], i
            for prev in reversed(lasts):
                word.append(letters[prev[k]][0])
                k //= c
            rebuilt.append(tuple(reversed(word)))
    assert rebuilt == words


@pytest.mark.parametrize("budget", [1, 2, 3, 5, 6, 7, 23, 24, 25, 100])
def test_walk_budget_ends_mid_level_as_the_per_word_walk(
        letter_case, blocks, monkeypatch, budget):
    space, letters, depth = letter_case
    monkeypatch.setattr(pingpong, "WORD_BUDGET", budget)
    got = _walk_prefix(pingpong.walk_words(space, letters, depth))
    assert got == _walk_prefix(_per_word_walk(space, letters, depth))
    levels = []
    try:
        for _, last in pingpong.walk_levels(space, letters, depth):
            levels.append(len(last))
    except BudgetError:
        assert got[1]
    assert sum(levels) == len(got[0])


@pytest.mark.parametrize("max_len", [0, -1])
def test_walk_refuses_a_length_below_one(letter_case, max_len):
    space, letters, _ = letter_case
    for walk in (pingpong.walk_levels, pingpong.walk_words):
        with pytest.raises(InputError, match="max_len must be >= 1"):
            next(walk(space, letters, max_len))


def test_walk_letters_hold_every_inverse_or_none(tree2):
    letters = [(("a", 1), "a"), (("a", -1), "A"), (("b", 1), "b")]
    with pytest.raises(InputError):
        next(pingpong.walk_levels(tree2, letters, 2))


def test_walk_without_letters_is_empty(tree2):
    for space in (H2, tree2):
        assert list(pingpong.walk_levels(space, [], 3)) == []
        assert list(pingpong.walk_words(space, [], 3)) == []


# ------------------------------ the action commands, level by level


def _orbit_counts_per_word(space, generators, base, radii, word_cap):
    """orbit_growth_counts with an isometry and an action per word."""
    orbit = {_pt_key(base): base}
    letters = pingpong.group_letters(space, generators)
    for _, g in _per_word_walk(space, letters, word_cap):
        p = isometry.apply_isometry(space, g, base)
        orbit.setdefault(_pt_key(p), p)
    dists = sorted(space.dist_table([base], list(orbit.values()))[0].tolist())
    return [(float(R), sum(1 for d in dists if d <= R + bounds.TOL))
            for R in radii]


def _action_stats_per_word(space, generators, sample, word_cap, config):
    """action_stats with an isometry, an action and a dict entry per
    word."""
    letters = pingpong.group_letters(space, generators)
    elems = [(pingpong.word_to_text(word), g)
             for word, g in _per_word_walk(space, letters, word_cap)
             if not _is_identity(space, g)]
    if not elems:
        raise InputError("no nontrivial elements within the word cap")
    profiles = {w: isometry.classify(g, space) for w, g in elems}
    finite_order = {w: profiles[w].kind == "elliptic"
                    and _walked_finite_order(space, g, 24)
                    for w, g in elems}
    stats = bounds.ActionStats(word_cap=word_cap, sample_size=len(sample),
                               note=space.orbit(generators, word_cap).note)
    radii_grid = [config.eps0 * 2.0 ** k for k in range(-2, 7)]
    for x in sample:
        row = space.dist_table(
            [x], [isometry.apply_isometry(space, g, x) for _, g in elems])
        disp = dict(zip((w for w, _ in elems), row[0].tolist()))
        stats.sys_at[x] = min(disp.values())
        free_vals = [v for w, v in disp.items() if not finite_order[w]]
        stats.sys_free_at[x] = min(free_vals) if free_vals else math.inf
        best = 0.0
        for r in radii_grid:
            near = [profiles[w] for w, v in disp.items() if v <= r]
            if not all(isometry.elementary_profiles(space, p, q)
                       for i, p in enumerate(near) for q in near[i + 1:]):
                break
            best = r
        stats.nilrad_at[x] = best
    stats.dias_estimate = max(stats.sys_at.values())
    thin = [x for x, v in stats.sys_at.items() if v < config.eps0]
    if thin:
        stats.nilrad_plus_estimate = max(stats.nilrad_at[x] for x in thin)
    return stats


def _membership_per_level(space, g, eps, x, power_cap):
    """Whether x is in the level-eps Margulis domain of g, classifying g
    on every call."""
    prof = isometry.classify(g, space)
    cap = power_cap
    if prof.kind == "hyperbolic":
        cap = min(cap, max(1, math.ceil(eps / prof.ell)))
    y = x
    for _ in range(cap):
        y = isometry.apply_isometry(space, g, y)
        if space.dist(x, y) <= eps + bounds.TOL:
            return True
    return False


def _gap_report_per_level(space, g, eps1, eps2, sample, power_cap=64,
                          P0=None, r0=None):
    """domain_gap_report with one scan per level and point, and whole
    tables for the row minima."""
    if not (0 < eps1 <= eps2):
        raise InputError("need 0 < eps1 <= eps2")
    if power_cap < 1:
        raise InputError("need eps > 0 and power_cap >= 1")
    inside = [[_membership_per_level(space, g, eps, x, power_cap)
               for x in sample] for eps in (eps1, eps2)]
    inner = [x for x, hit in zip(sample, inside[0]) if hit]
    within = [x for x, hit in zip(sample, inside[1]) if hit]
    outside = [x for x, hit in zip(sample, inside[1]) if not hit]
    if not inner:
        raise PreconditionError("inner domain empty on the sample")
    gaps = space.dist_table(outside, inner).min(axis=1).tolist()
    spans = space.dist_table(within, inner).min(axis=1).tolist()
    lb2 = None
    if P0 is not None and r0 is not None and eps2 <= r0 and eps1 < 2.0:
        lb2 = isometry.gap_lower_bound_ii(P0, eps1, eps2)
    return isometry.GapReport(
        eps1=eps1, eps2=eps2, power_cap=power_cap,
        inner_count=len(inner), outer_count=len(outside),
        min_gap_observed=min(gaps) if gaps else math.inf,
        lower_bound_i=(eps2 - eps1) / 2.0, lower_bound_ii=lb2,
        upper_span_observed=max(spans) if spans else 0.0)


_ACTION_SPECS = {
    "readme-h2": ({"model": "h2", "generators": [
        {"name": "a", "matrix": [[2, 0], [0, 0.5]]},
        {"name": "b", "matrix": [[1.25, 0.75], [0.75, 1.25]]}]}, "0,1"),
    "tree": ({"model": "free_tree", "params": {"rank": 3}, "generators": [
        {"name": "u", "word": "ab"}, {"name": "v", "word": "c a^-1"}]}, "e"),
    "parabolic": ({"model": "h2", "generators": [
        {"name": "a", "matrix": [[1, 1], [0, 1]]},
        {"name": "b", "matrix": [[1, 0], [1, 1]]}]}, "0,1"),
    # a rotation about i by 0.23 turns: a point can come back within
    # eps1 only at a later power than within eps2
    "elliptic": ({"model": "h2", "generators": [
        {"name": "r", "matrix": [[math.cos(0.23 * math.pi),
                                  -math.sin(0.23 * math.pi)],
                                 [math.sin(0.23 * math.pi),
                                  math.cos(0.23 * math.pi)]]},
        {"name": "b", "matrix": [[1.25, 0.75], [0.75, 1.25]]}]}, "0,1"),
    # a quarter turn: r^2 and r^3 have finite order too
    "torsion": ({"model": "h2", "generators": [
        {"name": "r", "matrix": [[math.cos(math.pi / 4),
                                  -math.sin(math.pi / 4)],
                                 [math.sin(math.pi / 4),
                                  math.cos(math.pi / 4)]]},
        {"name": "b", "matrix": [[2, 0], [0, 0.5]]}]}, "0,1"),
}
# the tree's reports are exact: the tree pair runs where the references
# below, at word cap _TREE_CAP, find every element that they count and
# every one that moves a sample point by at most 64 eps0 = 6.4
_TREE_ARGV = {"stats": ["--radius", "1"], "entropy": ["--radii", "1,2,3,4,5,6"]}
_TREE_CAP = 8
_ACTION_ARGV = {
    "stats": ["stats", "--word-cap", "4"],
    "stats-cap2": ["stats", "--word-cap", "2", "--sample-size", "30"],
    "entropy": ["entropy", "--orbit", "--context", "space"],
    "entropy-cap5": ["entropy", "--orbit", "--word-cap", "5"],
    "margulis": ["margulis", "--eps1", "2.5", "--eps2", "3.5",
                 "--sample-size", "300"],
    "margulis-wide": ["margulis", "--eps1", "2.0", "--eps2", "4.0",
                      "--power-cap", "5", "--radius", "4",
                      "--sample-size", "200", "--P0", "4", "--r0", "4"],
}


def _run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, [x for x in err.splitlines()
                       if not x.startswith("elapsed:")]


@pytest.mark.parametrize("pair", sorted(_ACTION_SPECS))
@pytest.mark.parametrize("command", sorted(_ACTION_ARGV))
def test_action_commands_report_as_the_per_word_reference(
        tmp_path, capsys, monkeypatch, pair, command):
    spec, point = _ACTION_SPECS[pair]
    argv = _ACTION_ARGV[command] + ["--input", _spec_file(tmp_path, spec)]
    argv += ["--center" if command.startswith("margulis") else "--base",
             point]
    if spec["model"] == "free_tree":
        argv += _TREE_ARGV.get(command.split("-")[0], [])
    got = _run_cli(argv, capsys)

    def cap(space, word_cap):
        return word_cap if space is H2 else _TREE_CAP

    monkeypatch.setattr(
        bounds, "orbit_growth_counts",
        lambda space, gens, base, radii, word_cap: _orbit_counts_per_word(
            space, gens, base, radii, cap(space, word_cap)))
    monkeypatch.setattr(
        bounds, "action_stats",
        lambda space, gens, sample, word_cap, config: dataclasses.replace(
            _action_stats_per_word(space, gens, sample,
                                   cap(space, word_cap), config),
            word_cap=word_cap))
    monkeypatch.setattr(isometry, "domain_gap_report", _gap_report_per_level)
    assert got == _run_cli(argv, capsys)
    if pair != "parabolic" or command.startswith("entropy"):
        assert got[0] == 0


def _nilrad_by_grid(space, disp, radii_grid, profiles):
    """The nilradius as the grid loop decides it: every pair of the
    elements within each grid radius, tested again at each radius."""
    best = 0.0
    for r in radii_grid:
        near = [profiles[i] for i in np.flatnonzero(disp <= r)]
        if not all(isometry.elementary_profiles(space, p, q)
                   for i, p in enumerate(near) for q in near[i + 1:]):
            break
        best = r
    return best


_NILRAD_SPECS = {
    **{pair: _ACTION_SPECS[pair]
       for pair in ("readme-h2", "elliptic", "torsion", "tree")},
    # the powers of a share their axis, so near pairs can be elementary
    "tree-rank2": ({"model": "free_tree", "params": {"rank": 2},
                    "generators": [{"name": "a", "word": "ab"},
                                   {"name": "b", "word": "a"}]}, "e"),
}


@pytest.mark.parametrize("seed", range(10))
def test_nilradii_on_chains_of_fixed_points_are_the_grid_loop(seed,
                                                              monkeypatch):
    # element k fixes the boundary points k and k + 1, so neighbours meet
    # and others do not, and two elements fix nothing: at one place of an
    # order some pairs with the ones before it fail and some do not
    profiles = [isometry.IsometryProfile("hyperbolic", 1.0,
                                         fixed_boundary=(float(k), k + 1.0))
                for k in range(8)] + [isometry.IsometryProfile("elliptic",
                                                               0.0)
                                      for _ in range(2)]
    rng = np.random.default_rng(seed)
    grid = [0.1 * 2.0 ** k for k in range(-2, 7)]
    table = rng.choice(grid + [0.05, 0.3, 5.0, 9.0], (60, len(profiles)))
    tested, elementary = [], isometry.elementary_profiles

    def counting(space, pa, pb):
        tested.append((id(pa), id(pb)))
        return elementary(space, pa, pb)

    want = [_nilrad_by_grid(H2, disp, grid, profiles) for disp in table]
    monkeypatch.setattr(isometry, "elementary_profiles", counting)
    assert bounds._nilradii(H2, table, grid, profiles) == want
    assert len(tested) == len(set(tested))


@pytest.mark.parametrize("pair", sorted(_NILRAD_SPECS))
def test_nilrad_tests_each_pair_once_as_the_grid_loop(tmp_path, pair,
                                                      monkeypatch):
    spec, point = _NILRAD_SPECS[pair]
    space, gens = cli.load_group_spec(_spec_file(tmp_path, spec))
    if space is not H2:
        space = WalkedTree(space.rank)
    sample = space.sample_ball(space.parse_point(point), 3.0, 40,
                               random.Random(0))
    letters = pingpong.group_letters(space, gens)
    levels = [E for E, _ in pingpong.walk_levels(space, letters, 4)]
    gs = [g for E in levels for g in space.unbatch(E)]
    nontrivial = np.array([not _is_identity(space, g) for g in gs])
    profiles = [isometry.classify(g, space)
                for g, keep in zip(gs, nontrivial) if keep]
    table = space.displacement_table(sample, levels)[:, nontrivial]
    tested, elementary = [], isometry.elementary_profiles

    def counting(space, pa, pb):
        tested.append((id(pa), id(pb)))
        return elementary(space, pa, pb)

    values = set()
    for eps0 in (0.1, 0.3, 1.0, 2.5):
        grid = [eps0 * 2.0 ** k for k in range(-2, 7)]
        want = [_nilrad_by_grid(space, disp, grid, profiles)
                for disp in table]
        monkeypatch.setattr(isometry, "elementary_profiles", counting)
        assert bounds._nilradii(space, table, grid, profiles) == want
        monkeypatch.setattr(isometry, "elementary_profiles", elementary)
        # each pair at most once over the whole sample, not once a point
        assert len(tested) == len(set(tested))
        tested.clear()
        values.update(want)
    assert len(values) > 1   # the samples reach more than one grid radius
