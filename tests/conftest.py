import json
import random

import pytest

from hypcert import freetree, halfplane, sampled


@pytest.fixture(scope="session")
def tree2():
    return freetree.FreeTreeSpace(2)


@pytest.fixture(scope="session")
def tree_ball_space(tree2):
    pts = tree2.ball("", 2)
    return sampled.from_points(pts, tree2.dist)


@pytest.fixture(scope="session")
def schottky_pair():
    a = halfplane.Moebius(2.0, 0.0, 0.0, 0.5)
    b = halfplane.Moebius(1.25, 0.75, 0.75, 1.25)
    return a, b


@pytest.fixture
def rng():
    return random.Random(0)


@pytest.fixture
def h2_pair_file(tmp_path, schottky_pair):
    a, b = schottky_pair
    spec = {"model": "h2", "generators": [
        {"name": "a", "matrix": [[2.0, 0.0], [0.0, 0.5]]},
        {"name": "b", "matrix": [[1.25, 0.75], [0.75, 1.25]]}]}
    path = tmp_path / "h2_pair.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.fixture
def tree_pair_file(tmp_path):
    spec = {"model": "free_tree", "params": {"rank": 2}, "generators": [
        {"name": "a", "word": "a"}, {"name": "b", "word": "b"}]}
    path = tmp_path / "tree_pair.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.fixture
def tree_ball_file(tmp_path, tree_ball_space):
    path = tmp_path / "tree_ball.json"
    path.write_text(json.dumps(tree_ball_space.to_json()))
    return str(path)


@pytest.fixture
def family_file(tmp_path):
    spec = {"model": "h2",
            "a": {"matrix": [[2.0, 0.0], [0.0, 0.5]]},
            "b": {"poly_matrix": [[[0.5, -2.0, 3.0, -2.0, 1.0], [0.0]],
                                  [[1.0], [2.0]]]},
            "t_range": [0.0, 1.0], "steps": 64}
    path = tmp_path / "family.json"
    path.write_text(json.dumps(spec))
    return str(path)
