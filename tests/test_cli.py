import csv
import json
import math

import pytest

from hypcert import cli


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = cli.main(list(argv) + ["--output", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


class TestDelta:
    def test_tree_ball(self, tmp_path, tree_ball_file):
        code, rep = run(tmp_path, "delta", "--input", tree_ball_file)
        assert code == 0
        assert rep["result"]["delta_hat"] == 0.0
        assert rep["manifest"]["command"] == "delta"

    def test_sampled_mode_records_config(self, tmp_path, tree_ball_file):
        code, rep = run(tmp_path, "delta", "--input", tree_ball_file,
                        "--mode", "sampled", "--quadruples", "200",
                        "--seed", "4")
        assert code == 0
        assert rep["manifest"]["config"]["mode"] == "sampled"
        assert rep["manifest"]["seed"] == 4

    def test_missing_input_is_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "delta", "--input", "/no/such/file.json")
        assert code == 2


class TestPackCov:
    def test_tree_fixtures(self, tmp_path, tree_ball_file):
        code, rep = run(tmp_path, "pack", "--input", tree_ball_file,
                        "--center", "e", "--R", "2", "--r", "1", "--P0", "4")
        assert code == 0
        assert rep["result"]["pack_exact"] == 4
        assert rep["result"]["theoretical_bound"] == 20.0

    def test_cov(self, tmp_path, tree_ball_file):
        code, rep = run(tmp_path, "cov", "--input", tree_ball_file,
                        "--r", "1")
        assert code == 0
        assert rep["result"]["covering_number"] == 4

    def test_unknown_center(self, tmp_path, tree_ball_file):
        code, _ = run(tmp_path, "pack", "--input", tree_ball_file,
                      "--center", "zz", "--R", "1", "--r", "1")
        assert code == 2


class TestClassify:
    def test_h2_pair(self, tmp_path, h2_pair_file):
        code, rep = run(tmp_path, "classify", "--input", h2_pair_file)
        assert code == 0
        gens = {g["name"]: g for g in rep["result"]["generators"]}
        assert gens["a"]["kind"] == "hyperbolic"
        assert gens["a"]["ell"] == pytest.approx(2.0 * math.log(2.0))
        assert gens["a"]["fixed_boundary"][1] == "inf"
        assert gens["b"]["fixed_boundary"] == [-1.0, 1.0]

    def test_tree_pair(self, tmp_path, tree_pair_file):
        code, rep = run(tmp_path, "classify", "--input", tree_pair_file)
        assert code == 0
        for g in rep["result"]["generators"]:
            assert g["kind"] == "hyperbolic"
            assert g["ell"] == 1


class TestCertify:
    def test_shipped_pair(self, tmp_path, h2_pair_file):
        code, rep = run(tmp_path, "certify", "--input", h2_pair_file,
                        "--delta", "1", "--depth", "8")
        assert code == 0
        assert rep["result"]["N"] == 56
        assert rep["result"]["valid"]
        assert rep["result"]["oracle_passed"]

    def test_elementary_pair_is_exit_2(self, tmp_path):
        spec = {"model": "h2", "generators": [
            {"name": "a", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
            {"name": "b", "matrix": [[3.0, 0.0], [0.0, 1.0 / 3.0]]}]}
        p = tmp_path / "pair.json"
        p.write_text(json.dumps(spec))
        code, _ = run(tmp_path, "certify", "--input", str(p))
        assert code == 2


class TestMargulis:
    def test_gap_report(self, tmp_path, h2_pair_file):
        code, rep = run(tmp_path, "margulis", "--input", h2_pair_file,
                        "--eps1", "1.5", "--eps2", "2.0",
                        "--sample-size", "1000")
        assert code == 0
        r = rep["result"]
        assert r["lower_bound_i"] == 0.25
        assert r["min_gap_observed"] >= 0.25 - 0.02


class TestEntropyAndBounds:
    def test_tree_entropy(self, tmp_path, tree_pair_file):
        code, rep = run(tmp_path, "entropy", "--input", tree_pair_file,
                        "--radii", "1,2,3,4,5,6,7,8,9,10,11,12")
        assert code == 0
        assert rep["result"]["estimate"] == pytest.approx(math.log(3.0),
                                                          rel=0.05)
        assert rep["result"]["bounds_check"]["ok"]

    def test_bounds_report(self, tmp_path):
        code, rep = run(tmp_path, "bounds", "--P0", "4", "--r0", "1",
                        "--nilrad-plus=-inf", "--R", "2", "--r", "1")
        assert code == 0
        r = rep["result"]
        assert r["systole_floor"] == 0.1
        assert r["packing_bound"] == 20.0

    def test_stats(self, tmp_path, tree_pair_file):
        code, rep = run(tmp_path, "stats", "--input", tree_pair_file,
                        "--word-cap", "3", "--radius", "2")
        assert code == 0
        r = rep["result"]
        assert r["sys_min"] >= 1
        assert r["nilrad_plus"] == "-inf"
        assert r["systole_floor"] == 0.1


class TestDegenerate:
    def test_trajectory_csv(self, tmp_path, family_file):
        out = tmp_path / "traj.csv"
        code = cli.main(["degenerate", "--input", family_file,
                         "--output", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 65
        assert rows[0]["kind"] == "hyperbolic"
        assert rows[-1]["kind"] == "parabolic"
        tail = rows[48:]
        traces = [float(r["trace"]) for r in tail]
        ells = [float(r["ell"]) for r in tail]
        assert abs(traces[-1] - 2.0) < 1e-3
        assert ells[-1] < 1e-2
        assert all(x >= y - 1e-15 for x, y in zip(traces, traces[1:]))
        assert all(x >= y - 1e-15 for x, y in zip(ells, ells[1:]))


class TestDeterminism:
    def test_reports_are_byte_identical(self, tmp_path, h2_pair_file,
                                        tree_ball_file):
        for argv in (["delta", "--input", tree_ball_file,
                      "--mode", "sampled", "--seed", "3"],
                     ["certify", "--input", h2_pair_file],
                     ["margulis", "--input", h2_pair_file,
                      "--eps1", "1.5", "--eps2", "2.0"]):
            o1, o2 = tmp_path / "a.json", tmp_path / "b.json"
            assert cli.main(argv + ["--output", str(o1)]) == 0
            assert cli.main(argv + ["--output", str(o2)]) == 0
            assert o1.read_bytes() == o2.read_bytes()

    def test_env_seed_overrides(self, tmp_path, tree_ball_file, monkeypatch):
        monkeypatch.setenv("HYPCERT_SEED", "99")
        code, rep = run(tmp_path, "delta", "--input", tree_ball_file,
                        "--mode", "sampled", "--seed", "1")
        assert code == 0
        assert rep["manifest"]["seed"] == 99

    def test_float_formatting_stable(self, tmp_path, h2_pair_file):
        code, rep = run(tmp_path, "classify", "--input", h2_pair_file)
        assert code == 0
        # 12 significant digits survive the JSON round trip
        assert rep["result"]["generators"][0]["ell"] == 1.38629436112


def _cycle_file(tmp_path):
    spec = {"model": "graph",
            "params": {"vertices": [0, 1, 2, 3],
                       "edges": [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]]},
            "generators": [{"name": "r", "perm": [1, 2, 3, 0]},
                           {"name": "s", "perm": [0, 3, 2, 1]}]}
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(spec))
    return str(path)


class TestModelInputs:
    def test_h2_base_e_is_exit_2(self, tmp_path, h2_pair_file):
        code, _ = run(tmp_path, "entropy", "--input", h2_pair_file, "--orbit")
        assert code == 2

    def test_graph_base_names_a_vertex(self, tmp_path):
        path = _cycle_file(tmp_path)
        code, rep = run(tmp_path, "entropy", "--input", path,
                        "--base", "0", "--radii", "0,1,2")
        assert code == 0
        assert rep["result"]["counts"] == [[0.0, 1], [1.0, 3], [2.0, 4]]
        code, _ = run(tmp_path, "margulis", "--input", path, "--eps1", "0.5",
                      "--eps2", "1", "--center", "0")
        assert code == 0
        # stats needs inverses, which graph isometries do not support
        code, _ = run(tmp_path, "stats", "--input", path, "--base", "0")
        assert code == 2

    def test_h2_ball_entropy_asks_for_orbit(self, tmp_path, h2_pair_file,
                                            capsys):
        code, _ = run(tmp_path, "entropy", "--input", h2_pair_file,
                      "--base", "0,1")
        assert code == 2
        assert "--orbit" in capsys.readouterr().err

    def test_graph_certify_is_exit_2(self, tmp_path):
        code, _ = run(tmp_path, "certify", "--input", _cycle_file(tmp_path))
        assert code == 2

    def test_tits_is_certify(self, tmp_path, h2_pair_file):
        code, rep = run(tmp_path, "tits", "--input", h2_pair_file)
        assert code == 0
        assert rep["manifest"]["command"] == "certify"


class TestWordWalkInputs:
    def _twin_file(self, tmp_path):
        spec = {"model": "free_tree", "params": {"rank": 2}, "generators": [
            {"name": "a", "word": "a"}, {"name": "a", "word": "b"}]}
        path = tmp_path / "twins.json"
        path.write_text(json.dumps(spec))
        return str(path)

    @pytest.mark.parametrize("command", [["entropy", "--orbit"],
                                         ["certify"], ["stats"]])
    def test_duplicate_generator_names_are_exit_2(self, tmp_path, capsys,
                                                  command):
        code, _ = run(tmp_path, *command, "--input", self._twin_file(tmp_path))
        assert code == 2
        assert "duplicate generator names" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["entropy", "--orbit"], ["stats"]])
    def test_word_budget_overrun_is_exit_3(self, tmp_path, tree_pair_file,
                                           monkeypatch, command):
        monkeypatch.setattr("hypcert.pingpong.WORD_BUDGET", 100)
        code, _ = run(tmp_path, *command, "--input", tree_pair_file)
        assert code == 3

    def test_generator_named_w_does_not_certify_a_commuting_pair(
            self, tmp_path):
        spec = {"model": "h2", "generators": [
            {"name": "w", "matrix": [[1.0, 1.0], [0.0, 1.0]]},
            {"name": "b", "matrix": [[1.0, 2.0], [0.0, 1.0]]}]}
        path = tmp_path / "commuting.json"
        path.write_text(json.dumps(spec))
        code, _ = run(tmp_path, "certify", "--input", str(path))
        assert code != 0

    def test_commuting_parabolics_are_an_elementary_pair(self, tmp_path,
                                                          capsys):
        spec = {"model": "h2", "generators": [
            {"name": "a", "matrix": [[1.0, 1.0], [0.0, 1.0]]},
            {"name": "b", "matrix": [[1.0, 2.0], [0.0, 1.0]]}]}
        path = tmp_path / "parabolics.json"
        path.write_text(json.dumps(spec))
        code, _ = run(tmp_path, "certify", "--input", str(path))
        assert code == 2
        assert "elementary" in capsys.readouterr().err


class TestCertifyReport:
    @staticmethod
    def _result(N):
        return {"case": "large_ell_group", "N": N, "witness_word": "b",
                "kind": "group", "valid": True, "M0": 0.0, "swapped": False,
                "disjoint_ok": True, "nesting_ok": True, "oracle_depth": 8,
                "oracle_passed": True, "sample_size": 400,
                "search_stats": {"candidates": 1, "words": 0}}

    def test_h2_pair(self, tmp_path, h2_pair_file):
        code, rep = run(tmp_path, "certify", "--input", h2_pair_file)
        assert code == 0
        assert rep["result"] == self._result(56)

    def test_tree_pair(self, tmp_path, tree_pair_file):
        code, rep = run(tmp_path, "certify", "--input", tree_pair_file,
                        "--delta", "0")
        assert code == 0
        assert rep["result"] == self._result(1)


class TestSampleSize:
    @pytest.mark.parametrize("size", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ["certify"], ["stats"],
        ["margulis", "--eps1", "0.5", "--eps2", "1.0", "--center", "e"]],
        ids=["certify", "stats", "margulis"])
    def test_non_positive_is_exit_2(self, tmp_path, tree_pair_file, capsys,
                                    command, size):
        code, _ = run(tmp_path, *command, "--input", tree_pair_file,
                      "--sample-size", size)
        assert code == 2
        assert "need n >= 1" in capsys.readouterr().err
