"""Known wrong answers, each pinned by a test that asserts the right one.

A test whose defect is open is a strict xfail: it fails today, and the
change that mends its defect turns it into a pass, which strict mode
reports as a failure until that change deletes the marker; the test
then stays as the defect's regression test.  The reason names the
ROADMAP item that describes the defect and its mending."""

import csv
import json

import pytest

from hypcert import bounds, cli, halfplane, pingpong

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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("k, number", [(10, float), (14, int)],
                         ids=["k10-float", "k14-int"])
def test_oracle_finds_the_first_relation(k, number):
    # d = c^2, so c^2 d^-1 = e is the first relation in shortlex order
    c, d = _fibonacci_pair(k, number)
    gens = [("c", halfplane.Moebius(*c[0], *c[1])),
            ("d", halfplane.Moebius(*d[0], *d[1]))]
    assert pingpong.word_oracle(H2, gens, 3, "group") == (False, "c^2 d^-1")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
def test_cyclic_orbit_counts_every_point():
    # 4^k i for |k| <= 20 lie within 60 of i: 41 distinct points
    a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
    assert bounds.orbit_growth_counts(H2, [("a", a)], 1j, [60.0], 20) == \
        [(60.0, 41)]
