"""Metric primitives over finite samples: four-point hyperbolicity
estimates and packing and covering numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import TOL
from .errors import BudgetError, InputError, PreconditionError

EXHAUSTIVE_CAP = 200
EXACT_PACK_CAP = 64
_TRIANGLE_TILE = 64   # rows per tile of the triangle check
_DELTA_BLOCK = 12288   # sums per delta block, bools per cover block
_MAX_ENTRY = np.finfo(float).max / 8   # no sum of six entries overflows
_INT8_CAP = 2 ** 6   # two int8 entries below it have an int8 sum
_INT16_CAP = 2 ** 14   # two int16 entries below it have an int16 sum
_FLOAT32_CAP = 2.0 ** 100   # float32 holds entries below it and their sums


@dataclass(frozen=True)
class SampledSpace:
    """Finite point list with its distance matrix, stored exactly
    symmetric: a table symmetric within TOL is kept as min(D, D.T)."""

    points: tuple
    dist: np.ndarray

    def __post_init__(self):
        D = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "dist", D)
        n = len(self.points)
        if _unhashable(self.points):
            raise InputError("point ids must be hashable")
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})
        if len(self._index) != n:
            raise InputError("duplicate point ids")
        if D.shape != (n, n):
            raise InputError(f"distance matrix shape {D.shape} for {n} points")
        # one pass each for the extremes, no table-sized copy: NaN fails
        lo, hi = (float(D.min()), float(D.max())) if D.size else (0.0, 0.0)
        if not -_MAX_ENTRY <= lo <= hi <= _MAX_ENTRY:
            raise InputError(f"non-finite distance entries or above {_MAX_ENTRY:.6g}")
        if lo < -TOL or np.any(np.abs(np.diag(D)) > TOL):
            raise InputError("negative distances or nonzero diagonal")
        if not np.array_equal(D, D.T):
            if not np.allclose(D, D.T, rtol=0, atol=TOL):
                raise InputError("distance matrix not symmetric")
            D = np.minimum(D, D.T)   # a new array: the caller's stays
            object.__setattr__(self, "dist", D)
        if not _triangle_holds(D):
            raise InputError("triangle inequality violated")

    def index(self, p) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise InputError(f"unknown point id {p!r}") from None

    def __len__(self):
        return len(self.points)

    def to_json(self) -> dict:
        return {"points": list(self.points), "dist": self.dist.tolist()}

    @classmethod
    def from_json(cls, obj) -> "SampledSpace":
        """The space of to_json's output; list ids come back as tuples."""
        obj = obj if isinstance(obj, dict) else {}
        pts, rows = obj.get("points"), obj.get("dist")
        # every entry's type in one pass: no bool, str or nested list
        if not (isinstance(pts, list) and isinstance(rows, list)
                and all(isinstance(row, list) and len(row) == len(pts)
                        for row in rows)
                and {*map(type, chain.from_iterable(rows))} <= {int, float}):
            raise InputError('expected {"points": [...], "dist": [[...]]}, '
                             "a row of numbers per point")
        try:
            D = np.array(rows, dtype=float)
        except OverflowError:
            raise InputError("distance entries beyond the float range") from None
        return cls(tuple(tuple(p) if isinstance(p, list) else p for p in pts), D)


def _triangle_holds(D) -> bool:
    """D[i, j] <= (D[i, k] + D[k, j]) + TOL for all i, j and k, on a D
    equal to D.T bit for bit."""
    # Integers below 2^6, or 2^14, are scanned in int8, or int16, where
    # every sum of two fits, with tolerance 0: for integers d and s,
    # d > fl(s + TOL) exactly when d > s.  A float table that float32
    # holds with every sum of two is screened in float32, and float64
    # decides what the screen passes on; any other runs in float64.
    top = float(max(D.max(), -D.min())) if D.size else 0.0   # max|D|
    tiles = range(0, len(D), _TRIANGLE_TILE)
    for cap, kind in ((_INT8_CAP, np.int8), (_INT16_CAP, np.int16)):
        if top < cap:
            I = D.astype(kind)
            if np.array_equal(I, D):
                return not any(_excess(I, I, 0, a)[0].size for a in tiles)
            del I   # not held while the float32 copy is
            break
    if top >= _FLOAT32_CAP:
        return not any(_excess(D, D, TOL, a)[0].size for a in tiles)
    # With M = max(1, top) and u = 2^-24, a float32 entry is within u M of
    # D's, and a float32 sum of two within 4.01 u M of the exact sum s of
    # D's entries: the screen's minimum over k is at most s + 4.01 u M for
    # each k.  fl(low - margin) adds at most 3 * 2^-53 M, and the float64
    # comparison's side fl(fl(D[i, k] + D[k, j]) + TOL) is at least s -
    # 2^-52 M.  So with margin = 16 u M a pair at or below fl(low -
    # margin) holds for every k but i and j, which the +inf diagonal
    # leaves out.  Those two are decided exactly for every pair: as fl is
    # monotone, the smaller of fl(D[i, i] + D[i, j]) and fl(D[i, j] +
    # D[j, j]) is fl(D[i, j] + min(D[i, i], D[j, j])), which is below
    # D[i, j] only when one of the two diagonal entries is negative: the
    # symmetric table's rows of those points hold every such pair.
    d = np.diag(D)
    neg = np.flatnonzero(d < 0)
    rows = D[neg]
    if np.greater(rows, (rows + np.minimum(d[neg, None], d)) + TOL).any():
        return False
    E = D.astype(np.float32)
    np.fill_diagonal(E, np.inf)
    margin = 2.0 ** -20 * max(1.0, top)
    for a in reversed(tiles):   # the smallest tile first
        i, j = _excess(E, D, -margin, a)
        if 2 * i.size > E[a:a + _TRIANGLE_TILE, a:].size:
            # most pairs lie on a shortest path, as in a graph: the screen
            # decides too few of them, and the rest runs in float64
            return not any(_excess(D, D, TOL, b)[0].size for b in tiles
                           if b <= a)
        if not _pairs_hold(D, i, j):
            return False
    return True


def _excess(E, R, tol, a):
    """The pairs (i, j), i in the tile of rows from a and j >= a, with
    R[i, j] above the min over k of (E[i, k] + E[k, j]), plus tol in R's
    type."""
    # x -> fl(x + tol) is monotone, so tol is added once to the running
    # min.  (j, i, k) makes the comparison of (i, j, k), so a tile skips
    # the columns before its first row.
    tile = E[a:a + _TRIANGLE_TILE]
    low = tile[:, 0, None] + E[0, a:]
    t = np.empty_like(low)
    for k in range(1, len(E)):
        np.minimum(low, np.add(tile[:, k, None], E[k, a:], out=t), out=low)
    i, j = np.nonzero(np.greater(R[a:a + _TRIANGLE_TILE, a:],
                                 np.add(low, tol, dtype=R.dtype)))
    return i + a, j + a


def _pairs_hold(D, i, j):
    """The float64 check of the pairs (i[t], j[t]) over every k."""
    for a in range(0, i.size, _TRIANGLE_TILE):
        s, t = i[a:a + _TRIANGLE_TILE], j[a:a + _TRIANGLE_TILE]
        low = np.add(D[s], D[t]).min(axis=1)   # D[k, j] is D[j, k]
        if np.greater(D[s, t], low + TOL).any():
            return False
    return True


def from_points(points, dist_fn) -> SampledSpace:
    pts = list(points)
    # a model method or a function attribute that builds the whole table
    table = getattr(getattr(dist_fn, "__self__", dist_fn), "dist_table", None)
    D = (np.asarray(table(pts, pts), dtype=float) if table is not None else
         np.array([[dist_fn(p, q) for q in pts] for p in pts], dtype=float))
    ids = tuple(range(len(pts))) if _unhashable(pts) else tuple(pts)
    return SampledSpace(ids, D)


def _unhashable(pts):
    try:
        hash(tuple(pts))
        return False
    except TypeError:
        return True


@dataclass(frozen=True)
class HyperbolicityEstimate:
    delta_hat: float
    quadruples_checked: int
    mode: str
    worst_quadruple: tuple


def four_point_delta(space: SampledSpace, mode: str = "exhaustive",
                     n_quadruples: int = 100000,
                     seed: int = 0) -> HyperbolicityEstimate:
    """Smallest four-point defect delta over the checked quadruples.

    For each quadruple the three pairing sums are formed; the defect is
    half the gap between the largest and the second largest.  Sampled
    mode draws seeded quadruples and lower-bounds the exhaustive value;
    exhaustive mode takes at most EXHAUSTIVE_CAP points.
    """
    D = space.dist
    n = len(space)
    if n < 4:
        raise InputError("need at least 4 points")
    if mode == "exhaustive":
        if n > EXHAUSTIVE_CAP:
            raise BudgetError(
                f"{n} points exceeds exhaustive cap {EXHAUSTIVE_CAP}")
        return _delta_exhaustive(space, D, n)
    if mode == "sampled":
        if not n_quadruples >= 1:
            raise InputError("need at least 1 quadruple")
        if not seed >= 0:
            raise InputError("need a seed >= 0")
        return _delta_sampled(space, D, n, n_quadruples, seed)
    raise InputError(f"unknown mode {mode!r}")


def _pairing_defects(s1, s2, s3, hi=None, lo=None, out=None):
    """Half the gap between the largest and middle sums, in any buffers given."""
    hi = np.maximum(s1, np.maximum(s2, s3, out=hi), out=hi)
    lo = np.minimum(s1, np.minimum(s2, s3, out=lo), out=lo)
    mid = np.add(np.add(s1, s2, out=out), s3, out=out)
    mid -= hi
    mid -= lo
    return np.divide(np.subtract(hi, mid, out=mid), 2.0, out=mid)


def _delta_exhaustive(space, D, n):
    """Quadruples i < j < k < l grouped by k; of those with the largest
    defect, the lexicographically first is kept.  Every quadruple is
    counted: it is either evaluated or bounded below the best."""
    # D is symmetric and meets the triangle inequality within TOL.  For a
    # distance d of a quadruple, the two sums without d lie within 2 d +
    # 2 TOL of each other, and the one with d at most 2 d + 2 TOL above
    # either: the defect is at most d + TOL.  Rounding (the check, the
    # sums, the defect, best - margin) adds under 2^-48 max(1, max|D|), so
    # a distance below best - margin puts the defect strictly below best:
    # the quadruple can neither take nor tie it.
    top = max(1.0, float(max(D.max(), -D.min())))
    margin = TOL + 2.0 ** -40 * top
    # the Gromov-product screen's type and slack (see _screened_pairs):
    # exact on integers below 2^22, float64 where float32 cannot hold D
    if top >= _FLOAT32_CAP:
        screen = (np.float64, 2.0 ** -44 * top)
    elif top < 2.0 ** 22 and np.array_equal(np.rint(D), D):
        screen = (np.float32, 0.0)
    else:
        screen = (np.float32, 2.0 ** -20 * top)
    buffers = np.empty((6, max(_DELTA_BLOCK, n)))
    best, worst = 0.0, None
    for k in range(n - 2, 1, -1):   # downward: large defects come early
        v, quad = _delta_middle(D, k, best, margin, buffers, screen)
        if v > best or (v == best and worst and quad < worst):
            best, worst = v, quad
    worst = tuple(space.points[v] for v in (worst or (0,) * 4))
    return HyperbolicityEstimate(best, math.comb(n, 4), "exhaustive", worst)


def _delta_middle(D, k, best, margin, buffers, screen):
    """Largest defect over i < j < k < l and its first quadruple, among
    the pairs (i, j) that the screen keeps (see _screened_pairs) and the
    columns l with D[k, l] at least best - margin.  Rows are the pairs
    in i-major order, columns the l; the three sums are formed in blocks
    of at most _DELTA_BLOCK and each goes through the defect formula.
    A value below best may come back: the caller keeps only one that
    takes or ties best."""
    floor = best - margin
    ls = k + 1 + np.flatnonzero(D[k, k + 1:] >= floor)
    cols = ls.size
    if not cols:
        return 0.0, None
    pi, pj = _screened_pairs(D, k, ls, floor, best, screen, buffers)
    col, Dkl, above = D[:k, k], D[k, ls], D[:k, ls]
    step = max(1, _DELTA_BLOCK // cols)
    found, worst = 0.0, None
    for a in range(0, pi.size, step):
        i, j = pi[a:a + step], pj[a:a + step]
        s1, s2, s3, hi, lo, out = buffers[:, :i.size * cols].reshape(
            6, -1, cols)
        np.add(D[i, j][:, None], Dkl, out=s1)
        np.add(col[i][:, None], np.take(above, j, 0, s2, "clip"), out=s2)
        np.add(np.take(above, i, 0, s3, "clip"), col[j][:, None], out=s3)
        vals = _pairing_defects(s1, s2, s3, hi, lo, out).ravel()
        t = int(np.argmax(vals))
        if vals[t] > found:
            found = float(vals[t])
            r, c = divmod(t, cols)
            worst = (int(i[r]), int(j[r]), k, int(ls[c]))
    return found, worst


def _screened_pairs(D, k, ls, floor, best, screen, buffers):
    """The pairs i < j < k, in i-major order, with D[i, j], D[i, k] and
    D[j, k] at least floor whose defect over the columns ls can reach
    best, bounded in the screen's float type by Gromov products at k.

    With (x|y) = (D[x, k] + D[y, k] - D[x, y]) / 2, the sums are D[i, k]
    + D[j, k] + D[k, l] - 2p for p = (i|j), (j|l) and (i|l), so the
    defect is med - min of the three products: |min(hi, c) - lo| for lo
    and hi the smaller and larger of (i|l) and (j|l), and c = (i|j).  A
    pair's bound is its maximum over l.  Pairs are walked by offset d =
    1 .. m // 2 over the m kept rows, j = i + d mod m (for even m, twice
    at d = m / 2), so a block of offsets reads windows of the (i|l)
    laid out twice and gathers no pair.  A block whose largest bound
    plus slack is below best, or at most 0, is skipped; elsewhere the
    pairs whose bound plus slack is at or above best and above 0 are
    kept."""
    # With M = max(1, max|D|) and u the screen type's unit roundoff, a
    # product lies in [-M/2, M].  In float32 (u = 2^-24) it is formed in
    # float64 and rounded once, within (1 + 2^-27) u M of the exact
    # product; in float64 (u = 2^-53) its two roundings leave it within 2
    # u M.  min, max and med are exact selections, and the subtraction
    # rounds once more, by at most 1.5 u M: the bound is within 3.6 u M,
    # or 5.5 u M, of the largest exact defect.  The float64 sums round
    # once each, the formula's mid = ((s1 + s2) + s3 - hi) - lo four
    # times and hi - mid once more, so the float64 defect lies within 11
    # 2^-53 M < 2^-48 M of the exact one.  bound + slack is formed in
    # float64, so slack = 2^-20 M in float32, or 2^-44 M in float64,
    # leaves a skipped pair no defect at or above best nor above 0: it
    # would change nothing.  On integers below 2^22 the products are
    # half-integers, which float32 holds, the bound is the exact largest
    # defect and the slack is 0.
    kind, slack = screen
    I = np.flatnonzero(D[:k, k] >= floor)
    m, cols = I.size, ls.size
    keep = np.zeros((k, k), dtype=bool)
    if m < 2:
        return np.nonzero(keep)
    col = D[I, k]
    P = np.empty((2 * m, cols), kind)   # (i|l) at [i, l] and [i + m, l]
    P[:m] = ((col[:, None] + D[k, ls]) - D[I[:, None], ls]) / 2.0
    P[m:] = P[:m]
    # offset d's j = I[i + d mod m], D[j, k] and (j|l) are rows d .. d + m
    # - 1 of the arrays laid out twice: windows [d, i] of them
    window = np.lib.stride_tricks.as_strided
    js = window(np.concatenate((I, I)), (m, m), (I.itemsize,) * 2)
    cs = window(np.concatenate((col, col)), (m, m), (col.itemsize,) * 2)
    Ps = window(P, (m, m, cols), (P.strides[0], *P.strides))
    # blocks of whole offsets, at most _DELTA_BLOCK pairs unless one
    # offset is more, and of columns, at most room bounds unless one
    # column is more: room is 3 _DELTA_BLOCK in float64 and 6 _DELTA_BLOCK
    # in float32, and each half of the buffers' bytes holds 3 max(
    # _DELTA_BLOCK, n) float64
    scratch = buffers.view(kind).reshape(2, -1)
    room = scratch.shape[1] * _DELTA_BLOCK // buffers.shape[1]
    width = min(cols, max(1, room // m))
    offsets = max(1, min(room // (m * width), _DELTA_BLOCK // m))
    for d0 in range(1, m // 2 + 1, offsets):
        d1 = min(d0 + offsets, m // 2 + 1)
        j = js[d0:d1]
        Dij = D[I, j]
        c = (((col + cs[d0:d1]) - Dij) / 2.0).astype(kind)[:, :, None]
        for l0 in range(0, cols, width):
            A = P[:m, l0:l0 + width]
            B = Ps[d0:d1, :, l0:l0 + width]
            lo, t = scratch[:, :B.size].reshape(2, *B.shape)
            np.minimum(A, B, out=lo)
            np.maximum(A, B, out=t)
            np.minimum(t, c, out=t)
            np.abs(np.subtract(t, lo, out=t), out=t)
            G = float(t.max()) + slack
            if G < best or G <= 0.0:
                continue
            lim = slack + t.max(axis=2).astype(float)
            ok = (lim >= best) & (lim > 0.0) & (Dij >= floor)
            keep[np.minimum(I, j)[ok], np.maximum(I, j)[ok]] = True
    return np.nonzero(keep)


def _delta_sampled(space, D, n, n_quadruples, seed):
    """The largest defect over seeded quadruples, drawn in blocks of
    4096 rows: the blocks read PCG64's stream as one draw of every row
    would, and only a strictly larger defect replaces the first one
    found."""
    rng = np.random.default_rng(seed)
    best = 0.0
    worst = (space.points[0],) * 4
    checked = 0
    while checked < n_quadruples:
        batch = min(1 << 12, n_quadruples - checked)
        Q = rng.integers(0, n, size=(batch, 4))
        ok = ((Q[:, 0] != Q[:, 1]) & (Q[:, 0] != Q[:, 2]) & (Q[:, 0] != Q[:, 3])
              & (Q[:, 1] != Q[:, 2]) & (Q[:, 1] != Q[:, 3]) & (Q[:, 2] != Q[:, 3]))
        Q = Q[ok]
        checked += batch
        if Q.size == 0:
            continue
        i, j, k, l = Q.T
        vals = _pairing_defects(D[i, j] + D[k, l], D[i, k] + D[j, l],
                                D[i, l] + D[j, k])
        t = int(np.argmax(vals))
        if vals[t] > best:
            best = float(vals[t])
            worst = tuple(space.points[v] for v in Q[t])
    return HyperbolicityEstimate(best, checked, "sampled", worst)


@dataclass
class PackingProfile:
    pack_greedy: int
    cov_greedy: int
    pack_exact: int = None
    witness: tuple = ()
    nodes: int = None


def _ball_indices(space: SampledSpace, center, R):
    c = space.index(center)
    return [i for i in range(len(space)) if space.dist[c, i] <= R + TOL]


def _greedy_separated(D, ball, c, r):
    """Maximal-by-inclusion 2r-separated subset, nearest-to-center first."""
    order = sorted(ball, key=lambda i: (D[c, i], i))
    chosen = []
    for i in order:
        if all(D[i, j] > 2.0 * r + TOL for j in chosen):
            chosen.append(i)
    return chosen


def _max_separated(D, ball, r, incumbent):
    """Branch-and-bound maximum 2r-separated subset (conflict = within 2r)
    and the number of nodes visited.

    A node is pruned when its chosen points plus a greedy clique cover of
    its candidates cannot exceed the incumbent: a clique of the conflict
    graph holds at most one separated point.  Only a strictly larger set
    replaces the incumbent, so the bound leaves the witness unchanged."""
    m = len(ball)
    conflict = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if D[ball[a], ball[b]] <= 2.0 * r + TOL:
                conflict[a] |= 1 << b
                conflict[b] |= 1 << a
    best = list(incumbent)
    nodes = 0

    def cover_exceeds(cand: int, room: int) -> bool:
        """Whether a greedy clique cover of cand needs more than room
        cliques: each takes the lowest candidate left, then the lowest
        that conflicts with all its members, until none does."""
        while cand and room >= 0:
            room -= 1
            fits = cand
            while fits:
                low = fits & -fits
                cand &= ~low
                fits &= conflict[low.bit_length() - 1]
        return room < 0

    def bb(cand: int, chosen: list):
        nonlocal best, nodes
        nodes += 1
        room = len(best) - len(chosen)
        if bin(cand).count("1") <= room or not cover_exceeds(cand, room):
            return
        if cand == 0:
            best = chosen[:]
            return
        v = (cand & -cand).bit_length() - 1
        bb(cand & ~(1 << v) & ~conflict[v], chosen + [v])
        bb(cand & ~(1 << v), chosen)

    bb((1 << m) - 1, [])
    return [ball[v] for v in best], nodes


def packing_number(space: SampledSpace, center, R: float, r: float,
                   mode: str = "exact") -> PackingProfile:
    """Largest number of pairwise (> 2r)-separated points in the ball B(center, R).

    Greedy mode reports a maximal-by-inclusion lower bound; exact mode
    runs branch-and-bound seeded with the greedy set, on balls of at
    most EXACT_PACK_CAP points, and counts its nodes.  The witness is
    the greedy set when that is optimal, otherwise the first maximum set
    in include-first order of ball index.
    """
    if not (R >= r > 0):
        raise InputError("need R >= r > 0")
    D = space.dist
    c = space.index(center)
    ball = _ball_indices(space, center, R)
    greedy = _greedy_separated(D, ball, c, r)
    cov = _greedy_cover(D, ball, list(range(len(space))), r)
    prof = PackingProfile(pack_greedy=len(greedy), cov_greedy=len(cov),
                          witness=tuple(space.points[i] for i in greedy))
    if mode == "greedy":
        return prof
    if mode != "exact":
        raise InputError(f"unknown mode {mode!r}")
    if len(ball) > EXACT_PACK_CAP:
        raise BudgetError(
            f"ball has {len(ball)} points, exact cap {EXACT_PACK_CAP}",
            fallback=prof)
    exact, prof.nodes = _max_separated(D, ball, r,
                                       [ball.index(i) for i in greedy])
    prof.pack_exact = len(exact)
    prof.witness = tuple(space.points[i] for i in exact)
    return prof


def _greedy_cover(D, region, centers, r):
    """Greedy cover by closed r-balls: each step takes the first best
    center.  The ball table is bool, built and updated in blocks of
    about _DELTA_BLOCK entries."""
    cols = np.unique(region)
    cov = np.empty((len(centers), cols.size), dtype=bool)
    step = max(1, _DELTA_BLOCK // cols.size)
    for a in range(0, len(centers), step):
        np.less_equal(D[np.ix_(centers[a:a + step], cols)], r + TOL,
                      out=cov[a:a + step])
    gain = np.count_nonzero(cov, axis=1)   # uncovered points in each ball
    uncovered = np.ones(cols.size, dtype=bool)
    step = max(1, _DELTA_BLOCK // len(centers))
    chosen = []
    while uncovered.any():
        pick = int(np.argmax(gain))
        if gain[pick] == 0:
            raise PreconditionError("region not coverable by sample centers")
        chosen.append(centers[pick])
        new = np.flatnonzero(cov[pick] & uncovered)
        uncovered[new] = False
        for a in range(0, new.size, step):
            gain -= np.count_nonzero(cov[:, new[a:a + step]], axis=1)
    return chosen


def _min_cover(D, region, centers, r, incumbent):
    """Exact minimum cover by closed r-balls around sample centers."""
    covers = {u: [c for c in centers if D[c, u] <= r + TOL] for u in region}
    best = list(incumbent)

    def bb(uncovered: frozenset, chosen: list):
        nonlocal best
        if len(chosen) >= len(best):
            return
        if not uncovered:
            best = chosen[:]
            return
        u = min(uncovered, key=lambda x: len(covers[x]))
        for c in covers[u]:
            rest = frozenset(x for x in uncovered if D[c, x] > r + TOL)
            bb(rest, chosen + [c])

    bb(frozenset(region), [])
    return best


def covering_number(space: SampledSpace, region, r: float,
                    mode: str = "exact") -> int:
    """Fewest sample points whose closed r-balls cover the region;
    exact mode takes regions of at most EXACT_PACK_CAP points."""
    if not r > 0:
        raise InputError("need r > 0")
    reg = [space.index(p) for p in region]
    if not reg:
        return 0
    D = space.dist
    centers = list(range(len(space)))
    greedy = _greedy_cover(D, reg, centers, r)
    if mode == "greedy":
        return len(greedy)
    if mode != "exact":
        raise InputError(f"unknown mode {mode!r}")
    if len(reg) > EXACT_PACK_CAP:
        raise BudgetError(
            f"region has {len(reg)} points, exact cap {EXACT_PACK_CAP}",
            fallback=len(greedy))
    return len(_min_cover(D, reg, centers, r, greedy))

