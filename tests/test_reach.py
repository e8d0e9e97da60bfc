"""Every function of the package is entered by some command line run,
or is listed in UNREACHED with what keeps it.

The runs call each command once on each model it accepts, plus the
routes one model splits into, under ``sys.setprofile``.  A function is
matched by its file and first line, not by its name, so a method that
shares its name with one that runs is still seen unreached."""

import ast
import contextlib
import functools
import importlib.util
import io
import json
import pathlib
import random
import sys

from hypcert import cli, halfplane

SRC = pathlib.Path(cli.__file__).resolve().parent

TRACED = "perfbench/trace.py wraps it by name; no command calls it"
BENCH = "builds a space for the metric benchmark and tests"
UNREACHED = {
    "tits.evaluate_word": TRACED,
    "tits.enumerate_words": TRACED,
    "pingpong.pingpong_data": TRACED,
    "pingpong.proof_set_membership": TRACED,
    "isometry.orbit_translation_length": TRACED,
    "isometry.orbit_translation_length.orbit_dist": TRACED,
    "sampled.from_points": BENCH,
    "graphspace.MetricGraphSpace.__init__": BENCH,
    "graphspace.MetricGraphSpace._position": BENCH,
    "graphspace.MetricGraphSpace.dist": BENCH,
    "graphspace.MetricGraphSpace.dist_table": BENCH,
    "graphspace.grid_graph": BENCH,
    "graphspace.random_connected_graph": BENCH,
    "sampled.SampledSpace.to_json": "writes the fixtures and criterion 14",
}


def defined_functions(paths) -> dict:
    """{(file, first line): "module.Qualname"} for every function and
    method of the given sources, nested ones included.  A decorated
    function's code starts at its first decorator."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                line = min([child.lineno]
                           + [d.lineno for d in child.decorator_list])
                out[str(path), line] = f"{path.stem}.{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in paths:
        path = pathlib.Path(path).resolve()
        visit(ast.parse(path.read_text()), path, "")
    return out


def entered(calls) -> tuple:
    """The results of the calls, made with their output captured, and
    the (file, first line) of each function they entered."""
    seen, results = set(), []

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    for call in calls:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                results.append(call())
            finally:
                sys.setprofile(None)
    return results, {(str(pathlib.Path(f).resolve()), line)
                     for f, line in seen}


def _runs(tmp_path, tree_ball, files, family):
    """(argv, expected exit code) of each run, given the fixtures' tree
    ball space, group spec files by model and degeneration family."""
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    def pair(name, *gens):
        return write(f"{name}.json", {"model": "h2", "generators": [
            {"name": n, "matrix": m} for n, m in gens]})

    pts = halfplane.sample_ball(1j, 2.0, 12, random.Random(0))
    h2_sample = write("h2_sample.json", {
        "points": list(range(len(pts))),
        "dist": halfplane.H2.dist_table(pts, pts).tolist()})
    point = {"h2": "0,1", "free_tree": "e"}
    sanov = pair("sanov", ("a", [[1, 2], [0, 1]]), ("b", [[1, 0], [2, 1]]))
    mixed = pair("mixed", ("a", [[2, 0], [0, 0.5]]), ("s", [[0, 1], [-1, 2]]))
    # u = ab and v = a: tits' conjugates compose tree elements
    tree_conjugates = write("tree_conjugates.json", {
        "model": "free_tree", "params": {"rank": 2}, "generators": [
            {"name": "u", "word": "ab"}, {"name": "v", "word": "a"}]})
    # z -> -1/z has order 2: stats' torsion test runs
    elliptic = pair("elliptic", ("r", [[0, -1], [1, 0]]),
                    ("a", [[2, 0], [0, 0.5]]))
    # |cz + d|^2 underflows to 0 for every sample point
    huge = pair("huge", ("g", [[1e170, 0], [0, 1e-170]]))
    # the tree's one elliptic isometry: margulis scans its powers
    tree_identity = write("tree_identity.json", {
        "model": "free_tree", "params": {"rank": 2}, "generators": [
            {"name": "e", "word": ""}]})

    runs = []
    for space, center in ((tree_ball, "e"), (h2_sample, "0")):
        for mode in ("exact", "greedy"):
            runs += [(["pack", "--input", space, "--center", center,
                       "--R", "2", "--r", "1", "--mode", mode, "--P0", "4"],
                      0),
                     (["cov", "--input", space, "--r", "1", "--mode", mode],
                      0)]
        runs += [(["delta", "--input", space], 0),
                 (["delta", "--input", space, "--mode", "sampled",
                   "--quadruples", "100"], 0)]
    # exit 2 where an H² command needs finite balls
    refused = {("entropy", "h2")}
    for model, path in files.items():
        at = point[model]
        for head, rest in (
                ("classify", []), ("certify", []),
                ("margulis", ["--eps1", "1.5", "--eps2", "2", "--center", at,
                              "--sample-size", "20", "--P0", "4",
                              "--r0", "2.5"]),
                ("entropy", ["--base", at, "--radii", "1,2,3"]),
                ("entropy --orbit", ["--base", at, "--radii", "1,2,3",
                                     "--word-cap", "3"]),
                ("stats", ["--base", at, "--word-cap", "2",
                           "--sample-size", "5", "--radius", "1"])):
            runs.append((head.split() + rest + ["--input", path],
                         2 if (head, model) in refused else 0))
    return runs + [
        (["certify", "--input", sanov], 0),
        (["certify", "--input", mixed], 0),
        (["certify", "--input", tree_conjugates], 0),
        (["stats", "--input", elliptic, "--base", "0,1", "--word-cap", "2",
          "--sample-size", "5", "--radius", "0.5"], 0),
        (["margulis", "--input", huge, "--eps1", "1", "--eps2", "2"], 2),
        (["margulis", "--input", elliptic, "--eps1", "0.5", "--eps2", "1",
          "--sample-size", "20"], 0),
        (["margulis", "--input", tree_identity, "--eps1", "1", "--eps2",
          "2", "--center", "e", "--sample-size", "5"], 0),
        # hyperboloid lifts of points this high overflow: the whole table
        (["margulis", "--input", files["h2"], "--eps1", "1.5", "--eps2",
          "2", "--center", "2,1e174", "--sample-size", "20"], 0),
        (["entropy", "--input", files["h2"], "--orbit", "--base", "0,1",
          "--word-cap", "14"], 3),
        (["bounds", "--nilrad-plus", "0.5", "--R", "2", "--r", "1"], 0),
        (["degenerate", "--input", family], 0),
    ]


def test_every_function_is_entered_or_listed(tmp_path, tree_ball_file,
                                             h2_pair_file, tree_pair_file,
                                             family_file):
    """A function that no run enters is deleted, given a run, or listed
    in UNREACHED; a listed one that comes to run leaves the list."""
    runs = _runs(tmp_path, tree_ball_file,
                 {"h2": h2_pair_file, "free_tree": tree_pair_file},
                 family_file)
    cli.build_parser.cache_clear()   # so that the first run builds it
    codes, seen = entered([functools.partial(cli.main, argv)
                           for argv, _ in runs])
    assert codes == [code for _, code in runs]
    functions = defined_functions(sorted(SRC.glob("*.py")))
    assert sorted(name for key, name in functions.items()
                  if key not in seen) == sorted(UNREACHED)


def test_unentered_method_sharing_a_name_is_caught(tmp_path):
    """A method named like one that runs is still reported, and a
    decorated function that runs is matched at its decorator."""
    path = tmp_path / "planted.py"
    path.write_text("import functools\n"
                    "class A:\n    def run(self):\n        return 1\n"
                    "class B:\n    def run(self):\n        return 2\n"
                    "@functools.cache\n"
                    "def cached():\n    return A().run()\n")
    spec = importlib.util.spec_from_file_location("planted", path)
    planted = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(planted)
    results, seen = entered([planted.cached])
    assert results == [1]
    functions = defined_functions([path])
    assert sorted(name for key, name in functions.items()
                  if key not in seen) == ["planted.B.run"]
