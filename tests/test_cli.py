import csv
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import random
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hypcert import cli, halfplane, isometry, pingpong, sampled
from hypcert.errors import InputError

SRC = pathlib.Path(cli.__file__).resolve().parents[1]


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

    def test_result_is_the_estimate_record(self, tmp_path, tree_ball_file):
        code, rep = run(tmp_path, "delta", "--input", tree_ball_file)
        assert code == 0
        assert list(rep["result"]) == [
            f.name for f in dataclasses.fields(sampled.HyperbolicityEstimate)]

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

    def test_nodes_reported_in_exact_mode_only(self, tmp_path,
                                               tree_ball_file):
        argv = ["pack", "--input", tree_ball_file, "--center", "e",
                "--R", "2", "--r", "1"]
        code, rep = run(tmp_path, *argv)
        assert code == 0
        assert rep["result"]["nodes"] >= 1
        code, rep = run(tmp_path, *argv, "--mode", "greedy")
        assert code == 0
        assert rep["result"]["nodes"] is None

    def test_packing_bound_beyond_floats_is_inf(self, tmp_path,
                                                tree_ball_file):
        code, rep = run(tmp_path, "pack", "--input", tree_ball_file,
                        "--center", "e", "--R", "1000", "--r", "0.01",
                        "--P0", "4", "--mode", "greedy")
        assert code == 0
        assert rep["result"]["theoretical_bound"] == "inf"

    @pytest.mark.parametrize("flags", [["--P0", "0"], ["--r0", "0"]],
                             ids=["P0-zero", "r0-zero"])
    def test_bad_bound_flags_are_refused_before_the_search(
            self, tmp_path, tree_ball_file, monkeypatch, flags):
        calls, search = [], sampled.packing_number

        def recorded(*args, **kw):
            calls.append(args)
            return search(*args, **kw)

        monkeypatch.setattr(sampled, "packing_number", recorded)
        code, rep = run(tmp_path, "pack", "--input", tree_ball_file,
                        "--center", "e", "--R", "2", "--r", "1",
                        "--P0", "4", *flags)
        assert (code, rep, calls) == (2, None, [])

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

    def test_integer_matrix_keeps_its_exact_determinant(self, tmp_path):
        # both have determinant exactly 1, which reads 0 from their
        # products rounded to float64; as JSON integers they reach
        # Moebius unrounded
        code, rep = run(tmp_path, "classify", "--input", _spec(tmp_path, [
            [[2 ** 30 + 1, 2 ** 30], [2 ** 30 + 2, 2 ** 30 + 1]],
            [[7778742049, 4807526976], [4807526976, 2971215073]]]))
        assert code == 0
        for g, tr in zip(rep["result"]["generators"],
                         (2 ** 31 + 2, 7778742049 + 2971215073)):
            assert g["kind"] == "hyperbolic"
            assert g["ell"] == pytest.approx(2.0 * math.acosh(tr / 2.0))

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

    @pytest.mark.parametrize("delta, code", [
        ("0", 2), ("0.5", 2), ("0.693147", 2), ("0.6931471805599453", 0)])
    def test_delta_below_log_2_is_exit_2(self, tmp_path, capsys,
                                         h2_pair_file, delta, code):
        got, rep = run(tmp_path, "certify", "--input", h2_pair_file,
                       "--delta", delta)
        assert got == code
        if code:
            assert rep is None
            assert "four-point constant" in capsys.readouterr().err
        else:
            assert rep["result"]["valid"]

    def test_search_exhausted_is_exit_4(self, tmp_path, capsys):
        # two parabolics: one word is too few for the shortlex search
        spec = {"model": "h2", "generators": [
            {"name": "a", "matrix": [[1, 1], [0, 1]]},
            {"name": "b", "matrix": [[1, 0], [1, 1]]}]}
        p = tmp_path / "pair.json"
        p.write_text(json.dumps(spec))
        code, rep = run(tmp_path, "certify", "--input", str(p),
                        "--N-max", "1")
        assert code == 4 and rep is None
        assert capsys.readouterr().err.startswith("search exhausted:")

    def test_semigroup_search_exhausted_is_exit_4(self, tmp_path, capsys):
        # the pair of test_mixed_pair_semigroup, which needs N = 2
        spec = {"model": "h2", "generators": [
            {"name": "a", "matrix": [[2, 0], [0, 0.5]]},
            {"name": "b", "matrix": [[0, 1], [-1, 2]]}]}
        p = tmp_path / "pair.json"
        p.write_text(json.dumps(spec))
        code, rep = run(tmp_path, "certify", "--input", str(p),
                        "--N-max", "1")
        assert code == 4 and rep is None
        assert capsys.readouterr().err.startswith(
            "search exhausted: semigroup oracle kept finding coincidences "
            "(last: a b a b a b = b a b a b a)")


class TestMargulis:
    def test_gap_report(self, tmp_path, h2_pair_file):
        code, rep = run(tmp_path, "margulis", "--input", h2_pair_file,
                        "--eps1", "1.5", "--eps2", "2.0",
                        "--sample-size", "1000")
        assert code == 0
        r = rep["result"]
        assert r["lower_bound_i"] == 0.25
        assert r["min_gap_observed"] >= 0.25 - 0.02

    @pytest.mark.parametrize("r0, want", [
        ("2", isometry.gap_lower_bound_ii(4, 1.5, 1.8)), ("1", None)])
    def test_packing_gap_floor_needs_eps2_within_r0(self, tmp_path,
                                                    h2_pair_file, r0, want):
        code, rep = run(tmp_path, "margulis", "--input", h2_pair_file,
                        "--P0", "4", "--r0", r0, "--eps1", "1.5",
                        "--eps2", "1.8")
        assert code == 0
        assert rep["result"]["lower_bound_ii"] == (
            None if want is None else round(want, 11))


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

    @pytest.mark.parametrize("command", ["bounds", "stats", "entropy"])
    def test_no_delta_in_the_bounds_config(self, tmp_path, tree_pair_file,
                                           capsys, command):
        argv = [command] + ([] if command == "bounds"
                            else ["--input", tree_pair_file])
        code, rep = run(tmp_path, *argv)
        assert code == 0
        config = rep["manifest"]["config"]
        assert {"P0", "r0", "N"} <= set(config)
        # entropy's checks read C0 and E0, which need no eps0
        assert ("eps0" in config) == (command != "entropy")
        assert not {"delta", "tolerance"} & set(config)
        assert "config" not in rep["result"]
        with pytest.raises(SystemExit):
            cli.main(argv + ["--delta", "1"])
        capsys.readouterr()

    def test_packing_bound_beyond_floats_is_inf(self, tmp_path):
        code, rep = run(tmp_path, "bounds", "--R", "1000", "--r", "0.01")
        assert code == 0
        assert rep["result"]["packing_bound"] == "inf"

    def test_stats(self, tmp_path, tree_pair_file):
        code, rep = run(tmp_path, "stats", "--input", tree_pair_file,
                        "--word-cap", "3", "--radius", "2")
        assert code == 0
        r = rep["result"]
        assert r["sys_min"] >= 1
        assert r["nilrad_plus"] == "-inf"
        assert r["systole_floor"] == 0.1

    def test_stats_on_a_wide_tree_ball_keeps_to_its_sample(self, tmp_path,
                                                           tree_pair_file):
        # 2 * 3^16 - 1 points in the ball: only the sampled words are built
        tracemalloc.start()
        try:
            code, rep = run(tmp_path, "stats", "--input", tree_pair_file,
                            "--radius", "16")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and rep["result"]["sample_size"] == 100
        assert peak < 4e6

    def test_stats_on_a_large_tree_sample_composes_in_blocks(self, tmp_path,
                                                             tree_pair_file):
        # 5,000 points by 160 elements: 800,000 products, built 16,384 at
        # a time beside the 6.4 MB table (all at once they peak at 63 MB)
        tracemalloc.start()
        try:
            code, rep = run(tmp_path, "stats", "--input", tree_pair_file,
                            "--sample-size", "5000", "--radius", "8")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and rep["result"]["sample_size"] == 5000
        assert peak < 12e6

    def test_stats_on_a_large_h2_sample_measures_in_blocks(self, tmp_path,
                                                           h2_pair_file):
        # 5,000 points by 160 elements: 800,000 images, made and measured
        # 16,384 at a time beside the 6.4 MB table (all at once, 111 MB)
        tracemalloc.start()
        try:
            code, rep = run(tmp_path, "stats", "--input", h2_pair_file,
                            "--base", "0,1", "--sample-size", "5000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and rep["result"]["sample_size"] == 5000
        assert peak < 20e6

    def test_stats_on_a_negative_tree_radius_is_an_input_error(
            self, tmp_path, tree_pair_file, capsys):
        code, rep = run(tmp_path, "stats", "--input", tree_pair_file,
                        "--radius", "-1")
        assert code == 2 and rep is None
        assert "radius must be finite and >= 0" in capsys.readouterr().err


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

    def test_trajectory_keeps_its_bytes(self, tmp_path, family_file):
        # the digest pins the trajectory as numpy.polyval computed it
        out = tmp_path / "traj.csv"
        assert cli.main(["degenerate", "--input", family_file,
                         "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "38fe16013153d17dfc6f53f3fb6109ba2d5acfc1ff4cd481e3c616cd2d001ebb")

    def test_polyval_is_numpys_bit_for_bit(self):
        rng = random.Random(0)
        special = [math.inf, -math.inf, math.nan, -0.0, 0.0, 3, -1]

        def number():
            kind = rng.randrange(5)
            if kind == 0:   # an integer past int64
                return rng.choice([-1, 1]) * rng.randrange(2 ** 63, 2 ** 200)
            if kind == 1:
                return rng.randint(-10 ** 6, 10 ** 6)
            if kind == 2:
                return rng.choice(special)
            return rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-300, 300)
        for _ in range(3000):
            coeffs = [number() for _ in range(rng.randrange(7))]
            t = float(number())
            with np.errstate(all="ignore"):
                want = float(np.polyval(coeffs, t))
            assert cli._polyval(coeffs, t).hex() == want.hex(), (coeffs, t)

    def test_an_integer_t_is_evaluated_in_floats(self, tmp_path):
        # numpy.polyval multiplies an integer t in int64, where 2^62 * 4
        # wraps to 0 and the matrix read a determinant of 0
        rows = []
        for t_range in ([4, 5], [4.0, 5.0]):
            spec = {"model": "h2", "a": {"matrix": [[1, 0], [0, 1]]},
                    "b": {"poly_matrix": [[[2 ** 62, 0], [0]], [[0], [1]]]},
                    "t_range": t_range, "steps": 0}
            inp, out = tmp_path / "family.json", tmp_path / "traj.csv"
            inp.write_text(json.dumps(spec))
            assert cli.main(["degenerate", "--input", str(inp),
                             "--output", str(out)]) == 0
            rows.append(out.read_text().splitlines())
        assert rows[0] == rows[1] == [
            "t,ell,trace,kind", "4,44.3614195558,4294967296,hyperbolic"]


class TestLargeTreeBalls:
    """A tree ball too large to draw from or to print is refused as an
    input error, without its count being built or printed."""

    @pytest.mark.parametrize("argv", [
        ["stats", "--radius", "10000"],
        ["margulis", "--center", "e", "--radius", "10000", "--eps1", "1",
         "--eps2", "2"]])
    def test_a_ball_past_a_draw_is_refused(self, tmp_path, tree_pair_file,
                                           capsys, argv):
        code, rep = run(tmp_path, *argv, "--input", tree_pair_file)
        err = capsys.readouterr().err
        assert code == 2 and rep is None
        assert "past what a draw can index" in err and len(err) < 200

    def test_a_ball_count_past_what_a_report_prints_is_refused(
            self, tmp_path, tree_pair_file, capsys):
        code, rep = run(tmp_path, "entropy", "--input", tree_pair_file,
                        "--radii", "1,2,9100")
        err = capsys.readouterr().err
        assert code == 2 and rep is None
        assert "past the integers a report prints" in err and len(err) < 200
        code, rep = run(tmp_path, "entropy", "--input", tree_pair_file,
                        "--radii", "1,2,9000")
        assert code == 0
        assert rep["result"]["counts"][-1][1] == 2 * 3 ** 9000 - 1

    @pytest.mark.parametrize("argv", [
        ["stats", "--radius", "1e18"],
        ["margulis", "--center", "e", "--radius", "1e18", "--eps1", "1",
         "--eps2", "2"],
        ["entropy", "--radii", "1,2,1e18"]])
    def test_a_huge_radius_is_refused_in_bounded_memory(self, tree_pair_file,
                                                        argv):
        # in a child process with 1.5 GB of address space, so that a
        # regression fails there and does not exhaust this machine
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20))
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run(
            [sys.executable, "-m", "hypcert.cli", *argv, "--input",
             tree_pair_file], env=env, preexec_fn=limit,
            capture_output=True, text=True, timeout=120)
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("input error: radius 1e+18")


def _run_limited(argv):
    """A command in a child process with 1.5 GB of address space, so
    that a regression fails there and does not exhaust this machine."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1500 << 20, 1500 << 20))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "hypcert.cli", *argv],
                          env=env, preexec_fn=limit, capture_output=True,
                          text=True, timeout=120)


class TestLargeSamples:
    """A --sample-size past pingpong.WORD_BUDGET is refused as an input
    error before any point is drawn."""

    @pytest.mark.parametrize("model, argv", [
        ("h2", ["stats", "--base", "0,1", "--radius", "2"]),
        ("tree", ["stats", "--radius", "20"]),
        ("h2", ["margulis", "--eps1", "0.5", "--eps2", "0.75"])],
        ids=["h2-stats", "tree-stats", "h2-margulis"])
    def test_a_huge_sample_is_refused_in_bounded_memory(
            self, h2_pair_file, tree_pair_file, model, argv):
        path = h2_pair_file if model == "h2" else tree_pair_file
        out = _run_limited(argv + ["--sample-size", "10000000000",
                                   "--input", path])
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("input error: --sample-size "
                                     "10000000000 is past the 1000000")

    @pytest.mark.parametrize("command", ["stats", "margulis"])
    def test_the_budget_bounds_the_sample_size(self, tmp_path, h2_pair_file,
                                               tree_pair_file, monkeypatch,
                                               command):
        argv = ([command, "--eps1", "1.5", "--eps2", "2"]
                if command == "margulis" else [command, "--word-cap", "1"])
        where = "--center" if command == "margulis" else "--base"
        for budget, code in ((16, 2), (17, 0)):
            monkeypatch.setattr(pingpong, "WORD_BUDGET", budget)
            for path, point in ((h2_pair_file, "0,1"), (tree_pair_file, "e")):
                got, _ = run(tmp_path, *argv, where, point, "--radius", "2",
                             "--sample-size", "17", "--input", path)
                assert got == code


class TestWordCap:
    @pytest.mark.parametrize("model", ["h2", "tree"])
    @pytest.mark.parametrize("argv", [
        ["stats", "--word-cap", "0"], ["stats", "--word-cap", "-3"],
        ["entropy", "--orbit", "--word-cap", "0"],
        ["entropy", "--orbit", "--word-cap", "-2"]],
        ids=["stats-0", "stats-minus-3", "entropy-0", "entropy-minus-2"])
    def test_a_word_cap_below_one_is_refused(self, tmp_path, capsys,
                                             h2_pair_file, tree_pair_file,
                                             model, argv):
        path, base = ((h2_pair_file, "0,1") if model == "h2"
                      else (tree_pair_file, "e"))
        code, rep = run(tmp_path, *argv, "--base", base, "--input", path)
        assert code == 2 and rep is None
        assert (f"input error: --word-cap must be >= 1, got {argv[-1]}"
                in capsys.readouterr().err)


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

    def test_non_integer_env_seed_is_exit_2(self, tmp_path, tree_ball_file,
                                            monkeypatch, capsys):
        monkeypatch.setenv("HYPCERT_SEED", "x")
        code, rep = run(tmp_path, "delta", "--input", tree_ball_file)
        assert code == 2
        assert rep is None
        assert "input error: HYPCERT_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [1j, {1.0}, object()],
                             ids=["complex", "set", "object"])
    def test_a_value_with_no_report_form_is_refused(self, value):
        # written as its repr, it would read as a string
        with pytest.raises(TypeError, match="no report form"):
            cli._round12({"result": [value]})

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

    def test_h2_ball_entropy_asks_for_orbit(self, tmp_path, h2_pair_file,
                                            capsys):
        code, _ = run(tmp_path, "entropy", "--input", h2_pair_file,
                      "--base", "0,1")
        assert code == 2
        assert "--orbit" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["entropy", "--base", "z"], ["entropy", "--base", "c"],
        ["entropy", "--orbit", "--base", "z"], ["stats", "--base", "c"],
        ["margulis", "--eps1", "0.5", "--eps2", "1", "--center", "z"]],
        ids=["ball-z", "ball-c", "orbit", "stats", "margulis"])
    def test_tree_word_outside_the_rank_is_exit_2(self, tmp_path, capsys,
                                                  tree_pair_file, argv):
        code, rep = run(tmp_path, *argv, "--input", tree_pair_file)
        assert code == 2 and rep is None
        assert "rank-2 alphabet" in capsys.readouterr().err

    def test_graph_is_an_unknown_model(self, tmp_path, capsys):
        # finite graphs are metric tables, not group models
        code, rep = run(tmp_path, "classify", "--input", _cycle_file(tmp_path))
        assert (code, rep) == (2, None)
        assert "unknown model 'graph'" in capsys.readouterr().err

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
    def test_word_budget_overrun_is_exit_3(self, tmp_path, h2_pair_file,
                                           monkeypatch, command):
        # the tree counts exactly, with no walk: H² walks its words
        monkeypatch.setattr("hypcert.pingpong.WORD_BUDGET", 100)
        code, _ = run(tmp_path, *command, "--base", "0,1",
                      "--input", h2_pair_file)
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
                "disjoint_ok": True, "oracle_depth": 8, "oracle_passed": True,
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

    def test_swapped_tree_pair(self, tmp_path):
        # the ends of b a project on the axis of a^-2 in reverse order,
        # so the record holds (b a)^-1; N = ceil((1 + 77) / 2)
        spec = {"model": "free_tree", "params": {"rank": 2}, "generators": [
            {"name": "a", "word": "a^-2"}, {"name": "b", "word": "b a"}]}
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(spec))
        code, rep = run(tmp_path, "certify", "--input", str(path))
        assert code == 0
        assert rep["result"] == {**self._result(39), "M0": 1.0,
                                 "swapped": True}


class TestSampleSize:
    @pytest.mark.parametrize("size", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ["stats"],
        ["margulis", "--eps1", "0.5", "--eps2", "1.0", "--center", "e"]],
        ids=["stats", "margulis"])
    def test_non_positive_is_exit_2(self, tmp_path, tree_pair_file, capsys,
                                    command, size):
        code, _ = run(tmp_path, *command, "--input", tree_pair_file,
                      "--sample-size", size)
        assert code == 2
        assert "need n >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("size", ["0", "-3", "5"])
    def test_certify_takes_no_sample_size(self, tmp_path, tree_pair_file,
                                          capsys, size):
        # certify decides its proof sets for every point and samples none
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "certify", "--input", tree_pair_file,
                "--sample-size", size)
        assert exc.value.code == 2
        assert "unrecognized arguments: --sample-size" in \
            capsys.readouterr().err


class TestMalformedInput:
    @staticmethod
    def _write(tmp_path, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        return str(path)

    @pytest.mark.parametrize("matrix", [
        "[[NaN, 0], [0, 1]]", "[[Infinity, 1], [1, 1]]",
        "[[1e200, 1e200], [1e200, 1.5e200]]"],
        ids=["nan", "infinity", "overflowing-determinant"])
    def test_non_finite_matrix_is_exit_2(self, tmp_path, capsys, matrix):
        # Python's json reads NaN and Infinity
        text = ('{"model": "h2", "generators": ['
                '{"name": "a", "matrix": %s}, '
                '{"name": "b", "matrix": [[1, 1], [0, 1]]}]}' % matrix)
        code, rep = run(tmp_path, "certify",
                        "--input", self._write(tmp_path, text))
        assert code == 2
        assert rep is None
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        {"model": "h2", "generators": [{"matrix": [[2.0, 0.0]]}]},
        {"model": "h2", "generators": [
            {"matrix": [[2.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1.0]]}]},
        {"model": "h2", "generators": [{"matrix": [["2", 0.0], [0.0, 0.5]]}]},
        {"model": "free_tree", "params": {"rank": 2},
         "generators": [{"word": "c"}]},
        {"model": "h2", "generators": [
            {"name": ["a"], "matrix": [[2.0, 0.0], [0.0, 0.5]]}]},
        '{"model": "h2", "generators": [',
        {"model": "h2", "params": [], "generators": []},
        {"model": "h2", "generators": [{"name": "a"}]},
        {"model": "sphere", "generators": []},
        {"model": "free_tree", "params": {"rank": 27}, "generators": []},
        {"model": "free_tree", "params": {"rank": 2},
         "generators": [{"word": "a^"}]},
        {"model": "h2",
         "generators": [{"matrix": [[True, 2], [False, True]]}]},
        {"model": "h2",
         "generators": [{"matrix": [[10 ** 400, 0], [0, 1]]}]},
    ], ids=["matrix-1x2", "matrix-3x3", "matrix-string-entry",
            "word-beyond-rank", "name-list", "json-text", "params-list",
            "h2-without-matrix", "unknown-model", "rank-27",
            "word-open-power", "matrix-bool-entry", "matrix-int-beyond-float"])
    def test_malformed_group_spec_is_exit_2(self, tmp_path, capsys, spec):
        # a string is the file's text as it stands
        text = spec if isinstance(spec, str) else json.dumps(spec)
        code, rep = run(tmp_path, "classify",
                        "--input", self._write(tmp_path, text))
        assert code == 2
        assert rep is None
        assert "input error" in capsys.readouterr().err

    _A = {"model": "h2", "a": {"matrix": [[2.0, 0.0], [0.0, 0.5]]}}
    _FAMILY = {**_A, "b": {"poly_matrix": [[[1.0], [0.0]], [[0.0], [1.0]]]}}
    _DEGENERATE = ["degenerate", "--input", "{family}"]
    _DELTA = ["delta", "--input", "{family}"]
    _SQUARE = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
    _PAIR = {"model": "h2", "generators": [
        {"name": "a", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
        {"name": "b", "matrix": [[1.25, 0.75], [0.75, 1.25]]}]}
    _CERTIFY = ["certify", "--input", "{family}"]
    _TREE_STATS = ["stats", "--input", "{tree}"]
    _TREE_MARGULIS = ["margulis", "--input", "{tree}", "--eps1", "1",
                      "--eps2", "2", "--center", "e"]
    _H2_MARGULIS = ["margulis", "--input", "{family}", "--eps1", "1.5",
                    "--eps2", "1.8", "--center", "0,1"]
    _SQUARE_SPACE = {"points": [0, 1, 2, 3], "dist": _SQUARE}
    _PACK = ["pack", "--input", "{family}", "--center", "0", "--R", "2",
             "--r", "0.5"]
    _HUGE = [[0, 1e308, 6e307, 6e307], [1e308, 0, 6e307, 6e307],
             [6e307, 6e307, 0, 1e308], [6e307, 6e307, 1e308, 0]]

    @pytest.mark.parametrize("argv, family", [
        (["entropy", "--input", "{tree}", "--radii", "1,x"], _A),
        (["bounds", "--nilrad-plus", "abc"], _A),
        (["bounds", "--nilrad-plus", "nan"], _A),
        (_DEGENERATE, _A),
        (_DEGENERATE, [_FAMILY]),
        (_DEGENERATE, {**_FAMILY, "t_range": [0]}),
        (_DEGENERATE, {**_FAMILY, "steps": "x"}),
        (_DEGENERATE, {**_FAMILY, "b": {"poly_matrix": [[1, 1], [0, 1]]}}),
        (_DEGENERATE + ["--steps", "-3"], _FAMILY),
        (_DELTA, {"points": [[[0]], 1, 2, 3], "dist": _SQUARE}),
        (_DELTA, {"points": 4, "dist": _SQUARE}),
        (["cov", "--input", "{family}", "--r", "1"],
         {"points": [0, 1, 2], "dist": [[0, 1, 1], [1, 0], [1, 1, 0]]}),
        (_DELTA, {"points": [0, 1, 2, 3],
                  "dist": [row[:3] + ["x"] for row in _SQUARE]}),
        (["pack", "--input", "{family}", "--center", "0", "--R", "2",
          "--r", "0.5"], {"points": [0, 0, 2, 3], "dist": _SQUARE}),
        (_DELTA, {"points": [0, 1, 2, 3], "dist": _HUGE}),
        (_DELTA, {"points": [0, 1, 2, 3],
                  "dist": [row[:3] + [10 ** 400] for row in _SQUARE]}),
        (_CERTIFY + ["--delta", "nan"], _PAIR),
        (_CERTIFY + ["--delta", "inf"], _PAIR),
        (_CERTIFY + ["--delta", "-1"], _PAIR),
        (_CERTIFY + ["--eps0", "0"], _PAIR),
        (_CERTIFY + ["--eps0", "nan"], _PAIR),
        (_CERTIFY + ["--N-max", "0"], _PAIR),
        (["bounds", "--r0", "nan"], _A),
        (["bounds", "--r0", "inf"], _A),
        (["bounds", "--eps0", "nan"], _A),
        (_CERTIFY + ["--depth", "0"], _PAIR),
        (_CERTIFY, {**_PAIR, "generators": _PAIR["generators"][:1]}),
        (_DEGENERATE, {**_FAMILY, "model": "free_tree"}),
        (_DELTA, {"points": [0, 1, 2],
                  "dist": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}),
        (_DELTA, {"points": [0, 1, 2, 3],
                  "dist": [[0, -1, 2, 1], [-1, 0, 1, 2], [2, 1, 0, 1],
                           [1, 2, 1, 0]]}),
        (_TREE_STATS + ["--radius", "nan"], _A),
        (_TREE_STATS + ["--radius", "inf"], _A),
        (_TREE_MARGULIS + ["--radius", "nan"], _A),
        (_TREE_MARGULIS + ["--radius", "inf"], _A),
        (["entropy", "--input", "{tree}", "--radii", "1,2,nan"], _A),
        (["entropy", "--input", "{tree}", "--radii", "1,2,inf"], _A),
        (["entropy", "--input", "{family}", "--orbit", "--base", "0,1",
          "--radii", "1,2,nan"], _PAIR),
        (_H2_MARGULIS + ["--P0", "0", "--r0", "2"], _PAIR),
        (_H2_MARGULIS + ["--P0", "-3", "--r0", "2"], _PAIR),
        (_H2_MARGULIS + ["--P0", "4", "--r0", "nan"], _PAIR),
        (_H2_MARGULIS + ["--P0", "4", "--r0", "-1"], _PAIR),
        (_H2_MARGULIS + ["--P0", "4", "--r0", "inf"], _PAIR),
        (["margulis", "--input", "{family}", "--eps1", "1.5", "--eps2",
          "inf", "--center", "0,1"], _PAIR),
        (_PACK + ["--P0", "4", "--r0", "0"], _SQUARE_SPACE),
        (_PACK + ["--P0", "-2", "--R", "2.5", "--r", "1"], _SQUARE_SPACE),
        (_PACK + ["--P0", "4", "--r0", "-1"], _SQUARE_SPACE),
        (_PACK + ["--P0", "4", "--r0", "nan"], _SQUARE_SPACE),
        (_CERTIFY + ["--delta", "1e308"], _PAIR),
        # a power beyond the word budget is refused before it is built:
        # N = 5.6e21 on the H² pair, and 3,850,001 letters of (ab)^N
        (_CERTIFY + ["--delta", "1e20"], _PAIR),
        (_CERTIFY + ["--delta", "1e5"],
         {"model": "free_tree", "params": {"rank": 2}, "generators": [
             {"name": "a", "word": "ab"}, {"name": "b", "word": "aB"}]}),
        (_DELTA + ["--mode", "sampled", "--quadruples", "0"], _SQUARE_SPACE),
        (_DELTA + ["--mode", "sampled", "--quadruples", "-5"], _SQUARE_SPACE),
        (_DELTA + ["--mode", "sampled", "--seed", "-1"], _SQUARE_SPACE),
        (["cov", "--input", "{family}", "--r", "nan"], _SQUARE_SPACE),
        (_DEGENERATE, {**_FAMILY,
                       "a": {"matrix": [[True, 2], [False, True]]}}),
        (_DEGENERATE, {**_FAMILY,
                       "a": {"matrix": [[10 ** 400, 0], [0, 1]]}}),
        (_DEGENERATE, {**_FAMILY, "b": {"poly_matrix": [[[10 ** 400], [0.0]],
                                                        [[0.0], [1.0]]]}}),
        (_DEGENERATE, {**_FAMILY, "t_range": [0, 10 ** 400]}),
    ], ids=["radii", "nilrad-plus", "nilrad-plus-nan", "family-without-b",
            "family-list", "t-range-of-one", "steps-not-a-number",
            "poly-matrix-of-numbers", "negative-steps", "space-nested-list-id",
            "space-points-not-a-list", "space-ragged-dist",
            "space-string-entry", "space-duplicate-ids",
            "space-delta-sums-overflow", "space-int-beyond-float",
            "certify-delta-nan", "certify-delta-inf", "certify-delta-negative",
            "certify-eps0-zero", "certify-eps0-nan", "certify-N-max-zero",
            "bounds-r0-nan", "bounds-r0-inf", "bounds-eps0-nan",
            "certify-depth-zero", "certify-one-generator",
            "family-not-h2", "space-three-points", "space-negative-entry",
            "tree-stats-radius-nan", "tree-stats-radius-inf",
            "tree-margulis-radius-nan", "tree-margulis-radius-inf",
            "tree-radii-nan", "tree-radii-inf", "h2-orbit-radii-nan",
            "margulis-P0-zero", "margulis-P0-negative", "margulis-r0-nan",
            "margulis-r0-negative", "margulis-r0-inf", "margulis-eps2-inf",
            "pack-r0-zero", "pack-P0-negative", "pack-r0-negative",
            "pack-r0-nan", "certify-delta-overflows",
            "certify-power-above-budget", "certify-tree-power-above-budget",
            "delta-zero-quadruples", "delta-negative-quadruples",
            "delta-negative-seed", "cov-r-nan", "family-a-bool-entry",
            "family-a-int-beyond-float", "poly-int-beyond-float",
            "t-range-int-beyond-float"])
    def test_malformed_argument_is_exit_2(self, tmp_path, capsys,
                                          tree_pair_file, argv, family):
        family = self._write(tmp_path, json.dumps(family))
        argv = [x.format(tree=tree_pair_file, family=family) for x in argv]
        code, rep = run(tmp_path, *argv)
        assert code == 2
        assert rep is None
        assert "input error" in capsys.readouterr().err

    def test_integer_past_the_digit_limit_is_exit_2(self, tmp_path, capsys):
        # Python reads at most 4300 digits of an integer: json.load's
        # ValueError is an input error, not a traceback
        text = '{"points": [0, 1, 2, 3], "dist": [[%s]]}' % ("9" * 5000)
        code, rep = run(tmp_path, "delta",
                        "--input", self._write(tmp_path, text))
        assert code == 2
        assert rep is None
        assert "input error" in capsys.readouterr().err


class TestMalformedSpecShape:
    @pytest.mark.parametrize("spec", [
        {"model": "free_tree", "generators": [{"word": 5}]},
        {"model": "free_tree", "params": {"rank": "x"},
         "generators": [{"word": "a"}]},
        # a rank is a JSON integer, not a number or a string that int() reads
        {"model": "free_tree", "params": {"rank": 2.5},
         "generators": [{"word": "a"}]},
        {"model": "free_tree", "params": {"rank": "3"},
         "generators": [{"word": "a"}]},
        {"model": "free_tree", "params": {"rank": 3.0},
         "generators": [{"word": "a"}]},
        [{"model": "free_tree"}],
        {"model": "h2",
         "generators": {"a": {"matrix": [[2.0, 0.0], [0.0, 0.5]]}}},
    ], ids=["word-not-a-string", "rank-not-a-number", "rank-2.5",
            "rank-string-3", "rank-3.0", "top-level-list",
            "generators-object"])
    def test_is_exit_2(self, tmp_path, capsys, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, rep = run(tmp_path, "classify", "--input", str(path))
        assert code == 2
        assert rep is None
        assert "input error" in capsys.readouterr().err


def _spec(tmp_path, matrices, name="pair.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"model": "h2", "generators": [
        {"name": n, "matrix": m} for n, m in zip("ab", matrices)]}))
    return str(path)


class TestUnderflowingImage:
    # a^9 z = 1e360 z: |cz + d|^2 = 1e-360 underflows to 0
    PAIR = [[[1e20, 0], [0, 1e-20]], [[1.25, 0.75], [0.75, 1.25]]]

    @pytest.mark.parametrize("cap", ["8", "9"])
    def test_orbit_entropy_is_exit_2(self, tmp_path, capsys, cap):
        code, rep = run(tmp_path, "entropy", "--orbit", "--base", "0,1",
                        "--word-cap", cap, "--input",
                        _spec(tmp_path, self.PAIR))
        assert code == 2 and rep is None
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert ("underflows" in err) == (cap == "9")

    def test_moebius_call_refuses_it(self):
        g = halfplane.Moebius(1e180, 0.0, 0.0, 1e-180)
        with pytest.raises(InputError, match="underflows"):
            g(1j)


class TestEllipticGenerators:
    @pytest.mark.parametrize("theta", [math.pi / 9, math.pi / 12, 1.0],
                             ids=["order-9", "order-12", "one-radian"])
    def test_certify_refuses_a_rotation(self, tmp_path, capsys, theta):
        # a rotation about i of finite order is torsion, and one of
        # infinite order makes the group non-discrete
        c, s = math.cos(theta), math.sin(theta)
        code, rep = run(tmp_path, "certify", "--input", _spec(
            tmp_path, [[[c, s], [-s, c]], [[2.0, 0.0], [0.0, 0.5]]]))
        assert code == 2 and rep is None
        assert "torsion or a non-discrete group" in capsys.readouterr().err

    def test_small_rotation_far_from_i_is_elliptic(self, tmp_path):
        # the rotation by 0.006 about i e^8, whose trace an orbit estimate
        # once contradicted with a translation length of -0.0104
        c, s = math.cos(0.003), math.sin(0.003)
        path = _spec(tmp_path, [[[c, -math.exp(8.0) * s],
                                 [math.exp(-8.0) * s, c]]])
        code, rep = run(tmp_path, "classify", "--input", path)
        assert code == 0
        assert rep["result"]["generators"][0]["kind"] == "elliptic"
        code, rep = run(tmp_path, "stats", "--input", path, "--base", "0,1")
        assert code == 0 and rep is not None


class TestWalkBudgetUpFront:
    @pytest.mark.parametrize("command", [
        ["entropy", "--orbit", "--base", "0,1", "--word-cap", "12"],
        ["stats", "--base", "0,1", "--word-cap", "12"]])
    def test_exit_3_before_any_level(self, tmp_path, h2_pair_file, capsys,
                                     monkeypatch, command):
        def no_walk(*args):
            raise AssertionError("a level was built")

        monkeypatch.setattr(pingpong, "walk_levels", no_walk)
        code, rep = run(tmp_path, *command, "--input", h2_pair_file)
        assert code == 3 and rep is None
        assert "budget exceeded: word budget exhausted" in \
            capsys.readouterr().err

    def test_exit_3_at_the_budget_only(self, tmp_path, h2_pair_file,
                                       monkeypatch):
        # 4 + 12 + 36 + 108 = 160 words of length at most 4
        for budget, want in ((159, 3), (160, 0)):
            monkeypatch.setattr(pingpong, "WORD_BUDGET", budget)
            for command in (["entropy", "--orbit"], ["stats"]):
                code, _ = run(tmp_path, *command, "--word-cap", "4",
                              "--base", "0,1", "--input", h2_pair_file)
                assert code == want


class TestParserOnce:
    def _argvs(self, tmp_path, h2_pair_file, tree_pair_file):
        return [["classify", "--input", h2_pair_file],
                ["certify", "--input", tree_pair_file],
                ["bounds", "--P0", "3"],
                ["stats", "--input", tree_pair_file, "--word-cap", "2"],
                ["entropy", "--input", h2_pair_file, "--orbit",
                 "--base", "0,1", "--word-cap", "3"],
                ["margulis", "--input", h2_pair_file, "--eps1", "1.5",
                 "--eps2", "2.0", "--sample-size", "50", "--seed", "4"],
                ["bounds"]]

    def _outputs(self, tmp_path, argvs, fresh):
        out = []
        for argv in argvs:
            if fresh:
                cli.build_parser.cache_clear()
            out.append(run(tmp_path, *argv))
        return out

    def test_calls_in_one_process_match_fresh_parsers(
            self, tmp_path, h2_pair_file, tree_pair_file, monkeypatch):
        argvs = self._argvs(tmp_path, h2_pair_file, tree_pair_file)
        fresh = self._outputs(tmp_path, argvs, fresh=True)
        cli.build_parser.cache_clear()
        with pytest.raises(SystemExit):   # a parse error leaves it intact
            cli.main(["stats", "--word-cap", "x"])
        shared = self._outputs(tmp_path, argvs, fresh=False)
        assert shared == fresh
        assert cli.build_parser.cache_info().misses == 1
        # the environment's seed is still read at every call
        stats = argvs[3]
        monkeypatch.setenv("HYPCERT_SEED", "7")
        assert run(tmp_path, *stats)[1]["manifest"]["seed"] == 7
        monkeypatch.delenv("HYPCERT_SEED")
        assert run(tmp_path, *stats)[1]["manifest"]["seed"] == 0
        assert cli.build_parser.cache_info().misses == 1


class TestMargulisClassifiesOnce:
    def test_parabolic_pair(self, tmp_path, capsys, monkeypatch):
        argv = ["margulis", "--input",
                _spec(tmp_path, [[[1, 1], [0, 1]], [[1, 0], [1, 1]]]),
                "--eps1", "0.01", "--eps2", "0.02", "--sample-size", "200"]
        calls = []
        classify = isometry.classify

        def counting(g, space):
            calls.append(g)
            return classify(g, space)

        monkeypatch.setattr(isometry, "classify", counting)
        code, rep = run(tmp_path, *argv)
        assert (code, rep, len(calls)) == (2, None, 1)
        err = capsys.readouterr().err.splitlines()
        assert err[:-1] == ["error: inner domain empty on the sample"]
        assert err[-1].startswith("elapsed:")


class TestFlagsAreTheConfig:
    """A command takes only the flags that change its result, and its
    manifest config echoes exactly those flags."""

    SEEDED = ("delta", "margulis", "stats")

    @pytest.fixture
    def argvs(self, h2_pair_file, tree_pair_file, tree_ball_file,
              family_file):
        return {
            "delta": ["--input", tree_ball_file],
            "pack": ["--input", tree_ball_file, "--center", "e",
                     "--R", "2", "--r", "1"],
            "cov": ["--input", tree_ball_file, "--r", "1"],
            "classify": ["--input", h2_pair_file],
            "certify": ["--input", tree_pair_file],
            "margulis": ["--input", h2_pair_file, "--eps1", "1.5",
                         "--eps2", "2.0", "--sample-size", "50"],
            "entropy": ["--input", tree_pair_file, "--radii", "1,2,3"],
            "bounds": [],
            "stats": ["--input", tree_pair_file, "--word-cap", "2"],
            "degenerate": ["--input", family_file, "--steps", "4"],
        }

    @staticmethod
    def _commands():
        """The subcommand parsers by name, aliases included."""
        return next(a for a in cli.build_parser()._actions
                    if a.dest == "command").choices

    def test_every_command_is_covered(self, argvs):
        assert set(self._commands()) - {"tits"} == set(argvs)

    @pytest.mark.parametrize("command", [
        "delta", "pack", "cov", "classify", "certify", "margulis", "entropy",
        "bounds", "stats"])
    def test_config_keys_are_the_flags(self, tmp_path, argvs, command):
        code, rep = run(tmp_path, command, *argvs[command])
        assert code == 0
        dests = [a.dest for a in self._commands()[command]._actions
                 if a.dest != "help"]
        assert list(rep["manifest"]["config"]) == [
            d for d in dests if d not in ("input", "output", "seed")]
        assert ("seed" in dests) == (command in self.SEEDED)
        assert ("seed" in rep["manifest"]) == (command in self.SEEDED)

    @pytest.mark.parametrize("command", [
        "pack", "cov", "classify", "certify", "entropy", "bounds",
        "degenerate"])
    def test_unseeded_command_ignores_the_env_seed(self, tmp_path, capsys,
                                                   monkeypatch, argvs,
                                                   command):
        out = []
        for env in ("1", "2", "x"):
            monkeypatch.setenv("HYPCERT_SEED", env)
            path = tmp_path / f"out-{env}"
            assert cli.main([command, *argvs[command],
                             "--output", str(path)]) == 0
            out.append(path.read_bytes())
        assert out[0] == out[1] == out[2]
        with pytest.raises(SystemExit) as exc:
            cli.main([command, *argvs[command], "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", SEEDED)
    def test_seeded_command_reads_the_env_seed(self, tmp_path, capsys,
                                               monkeypatch, argvs, command):
        monkeypatch.setenv("HYPCERT_SEED", "5")
        code, rep = run(tmp_path, command, *argvs[command], "--seed", "1")
        assert code == 0 and rep["manifest"]["seed"] == 5
        monkeypatch.setenv("HYPCERT_SEED", "x")
        assert cli.main([command, *argvs[command]]) == 2
        assert "input error: HYPCERT_SEED" in capsys.readouterr().err
