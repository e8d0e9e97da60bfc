"""Finite weighted graphs as metric spaces, with permutation isometries."""

from __future__ import annotations

import random

import numpy as np

from .errors import InputError
from .isometry import IsometryProfile
from .sampled import DiscreteSpace

TOL = 1e-9


class MetricGraphSpace(DiscreteSpace):
    """Connected weighted graph with its all-pairs shortest-path metric.

    Vertices are arbitrary hashable ids; isometries are registered
    distance-preserving vertex permutations, named by strings.  They act
    on points only: products and powers are not supported.
    """

    def __init__(self, vertices, edges):
        """edges: iterable of (u, v, weight) with positive weights."""
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        self.index = {v: i for i, v in enumerate(self.vertices)}
        n = len(self.vertices)
        D = np.full((n, n), np.inf)
        np.fill_diagonal(D, 0.0)
        for u, v, w in edges:
            if w <= 0:
                raise InputError(f"nonpositive edge weight {w}")
            i, j = self.index[u], self.index[v]
            D[i, j] = D[j, i] = min(D[i, j], float(w))
        # Floyd-Warshall, vectorized over rows
        for k in range(n):
            np.minimum(D, D[:, k, None] + D[None, k, :], out=D)
        if not np.all(np.isfinite(D)):
            raise InputError("graph is not connected")
        self.table = D
        self.isometries = {}

    def dist(self, p, q) -> float:
        try:
            return float(self.table[self.index[p], self.index[q]])
        except KeyError as e:
            raise InputError(f"unknown vertex {e.args[0]!r}") from None

    def register_isometry(self, name: str, perm) -> None:
        """perm maps vertex -> vertex; must preserve the distance table."""
        idx = np.array([self.index[perm[v]] for v in self.vertices])
        if sorted(idx) != list(range(len(self.vertices))):
            raise InputError("not a permutation of the vertices")
        if not np.allclose(self.table[np.ix_(idx, idx)], self.table, atol=TOL):
            raise InputError(f"permutation {name!r} does not preserve distances")
        self.isometries[name] = dict(perm)

    def parse_point(self, text: str):
        """The vertex whose text form is the given text."""
        for v in self.vertices:
            if str(v) == text:
                return v
        raise InputError(f"unknown vertex {text!r}")

    def act(self, name: str, p):
        return self.isometries[name][p]

    apply = act

    def ball(self, center, R: float) -> list:
        try:
            row = self.table[self.index[center]]
        except KeyError:
            raise InputError(f"unknown vertex {center!r}") from None
        return [v for v, dv in zip(self.vertices, row) if dv <= R + TOL]

    def candidates(self, pts) -> list:
        return self.vertices

    def compose(self, g, h):
        raise InputError("graph isometries support no products")

    def power(self, g, n: int):
        raise InputError("graph isometries support no powers")

    def is_identity(self, g) -> bool:
        return all(self.act(g, v) == v for v in self.vertices)

    def classify(self, g) -> IsometryProfile:
        """Every graph isometry is elliptic; it is reported as fixing the
        circumcenter of the whole graph."""
        if g not in self.isometries:
            raise InputError(f"unknown graph isometry {g!r}")
        center, _ = self.circumcenter(self.vertices)
        return IsometryProfile("elliptic", 0.0, 0.0, fixed_point=center)


def grid_graph(n: int) -> MetricGraphSpace:
    """n x n unit square grid, vertices (i, j)."""
    verts = [(i, j) for i in range(n) for j in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                edges.append(((i, j), (i + 1, j), 1.0))
            if j + 1 < n:
                edges.append(((i, j), (i, j + 1), 1.0))
    return MetricGraphSpace(verts, edges)


def regular_tree_graph(degree: int, depth: int) -> MetricGraphSpace:
    """Finite radius-`depth` piece of the degree-regular infinite tree."""
    verts = [0]
    edges = []
    frontier = [0]
    nxt_id = 1
    for level in range(depth):
        new_frontier = []
        for v in frontier:
            fan = degree if level == 0 else degree - 1
            for _ in range(fan):
                verts.append(nxt_id)
                edges.append((v, nxt_id, 1.0))
                new_frontier.append(nxt_id)
                nxt_id += 1
        frontier = new_frontier
    return MetricGraphSpace(verts, edges)


def random_connected_graph(n: int, extra_edges: int, seed: int) -> MetricGraphSpace:
    """Seeded random connected graph: random tree plus chords, weights in [0.5, 2]."""
    if n < 2:
        raise InputError("need at least 2 vertices")
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v, rng.uniform(0.5, 2.0)))
    for _ in range(extra_edges):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.uniform(0.5, 2.0)))
    return MetricGraphSpace(range(n), edges)
