"""Finite weighted graphs as metric spaces: the shortest-path tables
that the metric estimators are measured and tested on."""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import InputError

_FW_ROWS = 64   # rows per block of a Floyd-Warshall step
_FW_INF = 2 ** 14 - 1   # int16 infinity: a sum of two entries fits


class MetricGraphSpace:
    """Connected weighted graph with its all-pairs shortest-path metric;
    vertices are arbitrary hashable ids.  It is a metric table only, not
    a group model: a finite group acting on it is elliptic throughout."""

    def __init__(self, vertices, edges):
        """edges: iterable of (u, v, weight) with positive finite weights."""
        self.vertices = list(vertices)
        if not self.vertices:
            raise InputError("graph has no vertices")
        try:
            self.index = {v: i for i, v in enumerate(self.vertices)}
        except TypeError:
            raise InputError("vertex ids must be hashable") from None
        if len(self.index) != len(self.vertices):
            raise InputError("duplicate vertex ids")
        n = len(self.vertices)
        ends, weights = [], []
        for u, v, w in edges:
            if not math.isfinite(w):
                raise InputError(f"non-finite edge weight {w}")
            if w <= 0:
                raise InputError(f"nonpositive edge weight {w}")
            ends.append((self.index[u], self.index[v]))
            weights.append(float(w))
        # integer weights whose paths stay below _FW_INF run in int16,
        # where the sums are as exact as in floats and every one fits
        small = (all(w.is_integer() for w in weights)
                 and (n - 1) * max(weights, default=0.0) < _FW_INF)
        inf = _FW_INF if small else np.inf
        D = np.full((n, n), inf, dtype=np.int16 if small else float)
        np.fill_diagonal(D, 0)
        for (i, j), w in zip(ends, weights):
            D[i, j] = D[j, i] = min(D[i, j], w)
        # Floyd-Warshall over the upper triangle, in blocks of rows.  The
        # full update keeps D equal to D.T bit for bit, as fp addition
        # commutes, so column k is D[:k, k] ++ D[k, k:]; step k changes
        # only the span of its finite entries, since inf + w >= inf
        via = np.empty((_FW_ROWS, n), D.dtype)
        for k in range(n):
            col = np.concatenate((D[:k, k], D[k, k:]))
            f = np.flatnonzero(col < inf)
            end = f[-1] + 1
            for a in range(f[0], end, _FW_ROWS):
                b = min(a + _FW_ROWS, end)
                np.minimum(D[a:b, a:end], np.add(col[a:b, None], col[a:end],
                                                 out=via[:b - a, :end - a]),
                           out=D[a:b, a:end])
        np.copyto(D, D.T, where=np.tri(n, k=-1, dtype=bool))
        if not np.all(D < inf):
            raise InputError("graph is not connected")
        D = D.astype(float, copy=False)
        self.table = D

    def _position(self, v) -> int:
        try:
            return self.index[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def dist(self, p, q) -> float:
        return float(self.table[self._position(p), self._position(q)])

    def dist_table(self, xs, ys) -> np.ndarray:
        return self.table[np.ix_([self._position(p) for p in xs],
                                 [self._position(q) for q in ys])]


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
