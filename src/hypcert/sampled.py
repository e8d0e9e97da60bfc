"""Metric primitives over distance oracles: Gromov products, four-point
hyperbolicity estimates, packing and covering numbers, tripods,
nearest-point projections, and Helly-style witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, InputError, PreconditionError

TOL = 1e-9

EXHAUSTIVE_CAP = 200
EXACT_PACK_CAP = 64


@dataclass(frozen=True)
class SampledSpace:
    """Finite point list with its symmetric distance matrix."""

    points: tuple
    dist: np.ndarray
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        D = np.asarray(self.dist, dtype=float)
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "dist", D)
        n = len(self.points)
        if D.shape != (n, n):
            raise InputError(f"distance matrix shape {D.shape} for {n} points")
        if not np.all(np.isfinite(D)):
            raise InputError("non-finite distance entries")
        if np.any(D < -TOL) or np.any(np.abs(np.diag(D)) > TOL):
            raise InputError("negative distances or nonzero diagonal")
        if not np.allclose(D, D.T, atol=TOL):
            raise InputError("distance matrix not symmetric")
        for k in range(n):
            if np.any(D > D[:, k, None] + D[None, k, :] + TOL):
                raise InputError("triangle inequality violated")
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.points)})

    def index(self, p) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise InputError(f"unknown point id {p!r}") from None

    def d(self, p, q) -> float:
        return float(self.dist[self.index(p), self.index(q)])

    def __len__(self):
        return len(self.points)

    def point_on_geodesic(self, p, q, t: float):
        return _nearest_on_geodesic(self.d, self.points, p, q, t)

    def to_json(self) -> dict:
        return {"points": list(self.points), "dist": self.dist.tolist()}

    @classmethod
    def from_json(cls, obj) -> "SampledSpace":
        if not isinstance(obj, dict) or "points" not in obj or "dist" not in obj:
            raise InputError('expected {"points": [...], "dist": [[...]]}')
        return cls(tuple(obj["points"]), np.asarray(obj["dist"], dtype=float))


def from_points(points, dist_fn, provenance=None) -> SampledSpace:
    pts = list(points)
    D = np.array([[dist_fn(p, q) for q in pts] for p in pts], dtype=float)
    D = (D + D.T) / 2.0
    return SampledSpace(tuple(range(len(pts))) if _unhashable(pts) else tuple(pts),
                        D, provenance or {})


def _unhashable(pts):
    try:
        hash(tuple(pts))
        return False
    except TypeError:
        return True


def dist_oracle(space):
    """Uniform d(p, q) callable over sampled and model spaces."""
    if isinstance(space, SampledSpace):
        return space.d
    return space.dist


def gromov_product(space, y, z, base) -> float:
    d = dist_oracle(space)
    return 0.5 * (d(base, y) + d(base, z) - d(y, z))


@dataclass(frozen=True)
class HyperbolicityEstimate:
    delta_hat: float
    quadruples_checked: int
    mode: str
    worst_quadruple: tuple


def four_point_delta(space: SampledSpace, mode: str = "exhaustive",
                     n_quadruples: int = 100000, seed: int = 0,
                     cap: int = EXHAUSTIVE_CAP) -> HyperbolicityEstimate:
    """Smallest four-point defect delta over the checked quadruples.

    For each quadruple the three pairing sums are formed; the defect is
    half the gap between the largest and the second largest.  Sampled
    mode draws seeded quadruples and lower-bounds the exhaustive value.
    """
    D = space.dist
    n = len(space)
    if n < 4:
        raise InputError("need at least 4 points")
    if mode == "exhaustive":
        if n > cap:
            raise BudgetError(f"{n} points exceeds exhaustive cap {cap}",
                              reached=cap)
        return _delta_exhaustive(space, D, n)
    if mode == "sampled":
        return _delta_sampled(space, D, n, n_quadruples, seed)
    raise InputError(f"unknown mode {mode!r}")


def _pairing_defects(s1, s2, s3):
    hi = np.maximum(s1, np.maximum(s2, s3))
    lo = np.minimum(s1, np.minimum(s2, s3))
    mid = s1 + s2 + s3 - hi - lo
    return (hi - mid) / 2.0


def _delta_exhaustive(space, D, n):
    pk, pl = np.triu_indices(n, 1)
    S = D[pk, pl]
    # pairs are ordered by first index, so {k > j} is a suffix
    row_start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    best = 0.0
    worst = (space.points[0],) * 4
    checked = 0
    for i in range(n - 3):
        for j in range(i + 1, n - 1):
            s = int(row_start[j + 1])
            kk, ll = pk[s:], pl[s:]
            if kk.size == 0:
                continue
            vals = _pairing_defects(D[i, j] + S[s:], D[i, kk] + D[j, ll],
                                    D[i, ll] + D[j, kk])
            checked += vals.size
            t = int(np.argmax(vals))
            if vals[t] > best:
                best = float(vals[t])
                worst = (space.points[i], space.points[j],
                         space.points[kk[t]], space.points[ll[t]])
    return HyperbolicityEstimate(best, checked, "exhaustive", worst)


def _delta_sampled(space, D, n, n_quadruples, seed):
    rng = np.random.default_rng(seed)
    best = 0.0
    worst = (space.points[0],) * 4
    checked = 0
    while checked < n_quadruples:
        batch = min(1 << 16, n_quadruples - checked)
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
    center: object
    R: float
    r: float
    pack_greedy: int
    cov_greedy: int
    pack_exact: int = None
    witness: tuple = ()
    theoretical_bound: float = None


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
    """Branch-and-bound maximum 2r-separated subset (conflict = within 2r)."""
    m = len(ball)
    conflict = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            if D[ball[a], ball[b]] <= 2.0 * r + TOL:
                conflict[a] |= 1 << b
                conflict[b] |= 1 << a
    best = list(incumbent)

    def bb(cand: int, chosen: list):
        nonlocal best
        if len(chosen) + bin(cand).count("1") <= len(best):
            return
        if cand == 0:
            best = chosen[:]
            return
        v = (cand & -cand).bit_length() - 1
        bb(cand & ~(1 << v) & ~conflict[v], chosen + [v])
        bb(cand & ~(1 << v), chosen)

    bb((1 << m) - 1, [])
    return [ball[v] for v in best]


def packing_number(space: SampledSpace, center, R: float, r: float,
                   mode: str = "exact", cap: int = EXACT_PACK_CAP) -> PackingProfile:
    """Largest number of pairwise (> 2r)-separated points in the ball B(center, R).

    Greedy mode reports a maximal-by-inclusion lower bound; exact mode
    runs branch-and-bound seeded with the greedy set.
    """
    if not (R >= r > 0):
        raise InputError("need R >= r > 0")
    D = space.dist
    c = space.index(center)
    ball = _ball_indices(space, center, R)
    greedy = _greedy_separated(D, ball, c, r)
    cov = _greedy_cover(D, ball, list(range(len(space))), r)
    prof = PackingProfile(center=center, R=R, r=r, pack_greedy=len(greedy),
                          cov_greedy=len(cov),
                          witness=tuple(space.points[i] for i in greedy))
    if mode == "greedy":
        return prof
    if mode != "exact":
        raise InputError(f"unknown mode {mode!r}")
    if len(ball) > cap:
        raise BudgetError(f"ball has {len(ball)} points, exact cap {cap}",
                          fallback=prof, reached=len(ball))
    exact = _max_separated(D, ball, r, [ball.index(i) for i in greedy])
    prof.pack_exact = len(exact)
    prof.witness = tuple(space.points[i] for i in exact)
    return prof


def _greedy_cover(D, region, centers, r):
    uncovered = set(region)
    chosen = []
    while uncovered:
        gain, pick = 0, None
        for ci in centers:
            g = sum(1 for u in uncovered if D[ci, u] <= r + TOL)
            if g > gain:
                gain, pick = g, ci
        if pick is None:
            raise PreconditionError("region not coverable by sample centers")
        chosen.append(pick)
        uncovered = {u for u in uncovered if D[pick, u] > r + TOL}
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
                    mode: str = "exact", cap: int = EXACT_PACK_CAP) -> int:
    """Fewest sample points whose closed r-balls cover the region."""
    if r <= 0:
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
    if len(reg) > cap:
        raise BudgetError(f"region has {len(reg)} points, exact cap {cap}",
                          fallback=len(greedy), reached=len(reg))
    return len(_min_cover(D, reg, centers, r, greedy))


def point_on_geodesic(space, p, q, t: float):
    """The point at arclength t from p along a geodesic [p, q], t clamped
    to [0, d(p, q)].

    Exact for the half-plane and tree models; for sampled spaces and
    graphs, the best sample point for the two distance constraints.
    """
    return space.point_on_geodesic(p, q, t)


def _nearest_on_geodesic(d, candidates, p, q, t: float):
    """The candidate that best meets d(p, x) = t and d(x, q) = d(p, q) - t."""
    L = d(p, q)
    t = min(max(t, 0.0), L)
    return min(candidates,
               key=lambda x: max(abs(d(p, x) - t), abs(d(q, x) - (L - t))))


def tripod_points(space, x, y, z):
    """Internal triangle points at the Gromov-product arclengths.

    Returns (c_x, c_y, c_z, thinness) with c_x on [y, z] etc.; thinness
    is the max pairwise distance among the three.
    """
    d = dist_oracle(space)
    gx = gromov_product(space, y, z, x)
    gy = gromov_product(space, x, z, y)
    gz = gromov_product(space, x, y, z)
    c_x = point_on_geodesic(space, y, z, gy)
    c_y = point_on_geodesic(space, x, z, gx)
    c_z = point_on_geodesic(space, x, y, gx)
    thin = max(d(c_x, c_y), d(c_x, c_z), d(c_y, c_z))
    return c_x, c_y, c_z, thin


def project(space, target, x):
    """Nearest-point projection of an interior point or a boundary datum.

    ``target`` is a line of a model space (a half-plane geodesic or a
    tree line), which projects both kinds of point itself, or a finite
    point set.
    """
    if hasattr(target, "project"):
        return target.project(x)
    pts = list(target)
    if not pts:
        raise InputError("empty projection target")
    d = dist_oracle(space)
    return min(pts, key=lambda p: (d(x, p), pts.index(p)))


def helly_witness(space, sets, delta: float, lam: float):
    """A point within 119 delta + 15 lambda of every set in a
    pairwise-intersecting family of lambda-quasiconvex sets.

    Constructive recipe: from a base point in the first set, take each
    set's nearest point, and return the farthest of those.
    """
    sets = [list(s) for s in sets]
    if not sets or any(not s for s in sets):
        raise InputError("sets must be nonempty")
    if lam < 0 or delta < 0:
        raise InputError("delta and lambda must be nonnegative")
    d = dist_oracle(space)
    for a, b in itertools.combinations(range(len(sets)), 2):
        gap = min(d(p, q) for p in sets[a] for q in sets[b])
        if gap > 2.0 * lam + 4.0 * delta + TOL:
            raise PreconditionError(f"sets {a} and {b} do not intersect")
    x0 = sets[0][0]
    feet = [min(s, key=lambda p: d(x0, p)) for s in sets]
    return max(feet, key=lambda p: d(x0, p))


def hausdorff_distance(space, A, B) -> float:
    d = dist_oracle(space)
    da = max(min(d(a, b) for b in B) for a in A)
    db = max(min(d(a, b) for a in A) for b in B)
    return max(da, db)


class DiscreteSpace:
    """Defaults shared by the discrete models (the free-group tree and
    finite graphs).  Subclasses provide ``dist``, ``ball`` and
    ``candidates``, the finite point set searched for the circumcenter
    and geodesic points of a set of points."""

    def sample_ball(self, center, R, n: int, rng=None) -> list:
        """The whole ball when it has at most n points, else n seeded
        picks that keep the center."""
        pts = self.ball(center, R)
        if len(pts) <= n or rng is None:
            return pts
        keep = sorted(rng.sample(range(len(pts)), n))
        out = [pts[i] for i in keep]
        if center not in out:
            out[0] = center
        return out

    def ball_size(self, center, R) -> int:
        return len(self.ball(center, R))

    def point_on_geodesic(self, p, q, t: float):
        return _nearest_on_geodesic(self.dist, self.candidates([p, q]), p, q, t)

    def circumcenter(self, pts):
        """The best candidate point, ties broken by its text form."""
        radii = [(max(self.dist(c, p) for p in pts), c)
                 for c in self.candidates(pts)]
        rad, center = min(radii, key=lambda t: (t[0], str(t[1])))
        return center, rad

    def iso_key(self, g):
        return g

    def boundary_eq(self, u, v) -> bool:
        return u == v
