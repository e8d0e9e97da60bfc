"""Known wrong answers, each pinned by a test that asserts the right one.

A test whose defect is open is a strict xfail: it fails today, and the
change that mends its defect turns it into a pass, which strict mode
reports as a failure until that change deletes the marker; the test
then stays as the defect's regression test.  The reason names the
ROADMAP item that describes the defect and its mending."""

import csv
import json
import random
from collections import Counter

import pytest

from hypcert import bounds, cli, halfplane, pingpong, tits
from hypcert.errors import HypcertError
from helpers import exact_relation, int_mul

H2 = halfplane.H2


def _certify(tmp_path, matrices):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"model": "h2", "generators": [
        {"name": n, "matrix": m} for n, m in zip("ab", matrices)]}))
    out = tmp_path / "out.json"
    code = cli.main(["certify", "--input", str(path), "--output", str(out)])
    return code, json.loads(out.read_text()) if out.exists() else None


def _fibonacci_pair(k, number):
    """c = [[2, 1], [1, 1]]^k and d = c^2, with entries of the given type."""
    def mul(m, n):
        return [[sum(m[i][t] * n[t][j] for t in (0, 1)) for j in (0, 1)]
                for i in (0, 1)]
    c = [[1, 0], [0, 1]]
    for _ in range(k):
        c = mul(c, [[2, 1], [1, 1]])
    return [[number(x) for x in row] for row in c], \
        [[number(x) for x in row] for row in mul(c, c)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_psl2z_pair_is_no_proof(tmp_path):
    # <a, a^3 b> = PSL(2, Z) is not free: (a b^-1 a)^2 = e
    code, rep = _certify(tmp_path, [[[1, 1], [0, 1]], [[1, 0], [1, 1]]])
    assert not (code == 0 and rep["result"]["valid"])


def test_pair_with_a_common_fixed_point_is_exit_2(tmp_path, capsys):
    # 4z and z + 1 both fix inf: the group is solvable and not discrete
    code, _ = _certify(tmp_path, [[[2, 0], [0, 0.5]], [[1, 1], [0, 1]]])
    assert code == 2
    assert "elementary group" in capsys.readouterr().err


def test_hyperbolics_sharing_an_endpoint_are_exit_2(tmp_path, capsys):
    # 4z and 4z - 2 share the endpoint inf
    code, _ = _certify(tmp_path, [[[2, 0], [0, 0.5]], [[2, -1], [0, 0.5]]])
    assert code == 2
    assert "elementary group" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_hyperbolics_with_nearby_endpoints_are_not_elementary(tmp_path,
                                                              capsys):
    # b = g [[2, 0], [0, 1/2]] g^-1 for g = [[5, u], [1, 1]] has axis u -> 5;
    # 4z fixes 0 and inf, neither of them.  At u = 1e-9 the pair certifies
    u, v = 5e-10, 5.0
    s = v - u
    b = [[(2 * v - u / 2) / s, -1.5 * u * v / s],
         [1.5 / s, (v / 2 - 2 * u) / s]]
    _certify(tmp_path, [[[2, 0], [0, 0.5]], b])
    assert "elementary group" not in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="ROADMAP item 23")
@pytest.mark.parametrize("k, number", [(10, float), (14, int)],
                         ids=["k10-float", "k14-int"])
def test_oracle_finds_the_first_relation(k, number):
    # d = c^2, so c^2 d^-1 = e is the first relation in shortlex order
    c, d = _fibonacci_pair(k, number)
    gens = [("c", halfplane.Moebius(*c[0], *c[1])),
            ("d", halfplane.Moebius(*d[0], *d[1]))]
    assert pingpong.word_oracle(H2, gens, 3, "group") == (False, "c^2 d^-1")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 32")
def test_float_matrix_of_determinant_one_is_accepted():
    # d = c^2 for c = [[2, 1], [1, 1]]^12 has determinant exactly 1
    _, d = _fibonacci_pair(12, float)
    halfplane.Moebius(*d[0], *d[1])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
def test_degenerating_rows_before_the_limit_are_hyperbolic(tmp_path,
                                                          family_file):
    # p(t) - 1/2 = (t - 1)^4 / 2, so a b(t) is hyperbolic for every t < 1
    out = tmp_path / "traj.csv"
    assert cli.main(["degenerate", "--input", family_file,
                     "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["kind"] for row in rows[59:64]] == ["hyperbolic"] * 5


def test_free_group_diastole_is_one(tmp_path, tree_pair_file):
    # F2 on its own tree: w a w^-1 moves the vertex w by 1, so every
    # point's systole, and their supremum, the diastole, is 1
    for cap in (2, 4, 6):
        out = tmp_path / f"stats{cap}.json"
        assert cli.main(["stats", "--input", tree_pair_file, "--base", "e",
                         "--radius", "4", "--word-cap", str(cap),
                         "--output", str(out)]) == 0
        rep = json.loads(out.read_text())["result"]
        assert (cap, rep["sys_min"], rep["dias_estimate"]) == (cap, 1, 1)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
def test_cyclic_orbit_counts_every_point():
    # 4^k i for |k| <= 20 lie within 60 of i: 41 distinct points
    a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
    assert bounds.orbit_growth_counts(H2, [("a", a)], 1j, [60.0], 20) == \
        [(60.0, 41)]


def _psl2z_pairs(count, seed=0):
    """Seeded pairs of integer matrices, each a product of 2 to 6
    factors S T^k = [[0, -1], [1, k]] with k in {-2, -1, 1, 2}."""
    rng = random.Random(seed)

    def word():
        m = (1, 0, 0, 1)
        for _ in range(rng.randint(2, 6)):
            (a, b, c, d), k = m, rng.choice((-2, -1, 1, 2))
            m = (b, -a + k * b, d, -c + k * d)
        return m

    return [(word(), word()) for _ in range(count)]


def _named_pair(a, b, cert):
    """The pair (a^N, w) a certificate names, as integer matrices: w is
    its witness word in the generators a and b."""
    def power(m, n):
        if n < 0:
            (p, q, r, s), n = m, -n
            m = (s, -q, -r, p)
        out = (1, 0, 0, 1)
        for _ in range(n):
            out = int_mul(out, m)
        return out

    w = (1, 0, 0, 1)
    for token in cert.witness_word.split():
        name, _, exp = token.partition("^")
        w = int_mul(w, power({"a": a, "b": b}[name], int(exp or 1)))
    return power(a, cert.N), w


def test_exact_relation_reference():
    S, T = (0, -1, 1, 0), (1, 1, 0, 1)
    assert exact_relation([S, T], 1) == (((0, 1),), ((0, -1),))  # S = S^-1
    # Sanov's pair is free
    assert exact_relation([(1, 2, 0, 1), (1, 0, 2, 1)], 5) is None
    # (a^2 b)^3 = e for the semigroup regression pair, but not with b^2
    a, b = (-1, -1, -1, -2), (-3, -8, 2, 5)
    assert exact_relation([int_mul(a, a), b], 9, positive=True) == \
        ((), ((0, 1), (1, 1)) * 3)
    assert exact_relation([int_mul(a, a), int_mul(b, b)], 9,
                          positive=True) is None


@pytest.mark.xfail(strict=True, reason="ROADMAP item 19")
def test_no_certificate_names_a_pair_with_an_exact_relation():
    # 500 seeded PSL(2, Z) pairs through the search; a valid certificate
    # is false when its pair has an exact relation: a reduced one of at
    # most 10 letters, or for a semigroup a positive one of at most 18
    seen, false = Counter(), Counter()
    for a, b in _psl2z_pairs(500):
        try:
            cert = tits.tits_witness(H2, halfplane.Moebius(*a),
                                     halfplane.Moebius(*b))
        except HypcertError as e:
            seen[type(e).__name__] += 1
            continue
        seen[cert.case if cert.valid else "invalid"] += 1
        semigroup = cert.kind == "semigroup"
        if cert.valid and exact_relation(_named_pair(a, b, cert),
                                         9 if semigroup else 5, semigroup):
            false[cert.case] += 1
    assert not false, (dict(false), dict(seen))
