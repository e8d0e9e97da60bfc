"""Constant ledger and bound verifiers: packing propagation, entropy
estimation with two-sided checks, and systole/diastole/nilradius
estimators with their closed-form floors."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

from . import TOL, isometry, pingpong
from .errors import BudgetError, InputError

_SORT_BLOCK = 1 << 14   # entries of a block of rows that nilradii sorts


@dataclass
class BoundsConfig:
    P0: int = 4
    r0: float = 0.5
    eps0: float = 0.1
    N: int = 1

    def __post_init__(self):
        # comparisons with NaN are false, so NaN fails each of them
        if not (0 < self.eps0 < math.inf and 0 < self.r0 < math.inf
                and self.N >= 1 and self.P0 >= 1):
            raise InputError("need finite eps0 > 0, finite r0 > 0, "
                             "N >= 1, P0 >= 1")

    def derived(self) -> "DerivedConstants":
        E0 = math.log(1.0 + self.P0) / self.r0
        return DerivedConstants(C0=math.log(2.0) / self.N, E0=E0,
                                H0=E0 * self.N)


@dataclass
class DerivedConstants:
    C0: float
    E0: float
    H0: float


def packing_bound(P0: int, r0: float, R: float, r: float) -> float:
    """Propagated packing ceiling P0 (1 + P0)^(R/s - 1), s = min(r, r0);
    inf where it leaves the float range."""
    # comparisons with NaN are false, so NaN fails each of them
    if not (0 < r <= R and P0 >= 1 and 0 < r0 < math.inf):
        raise InputError("need 0 < r <= R, P0 >= 1 and finite r0 > 0")
    s = r if r <= r0 else r0
    try:
        return P0 * (1.0 + P0) ** (R / s - 1.0)
    except OverflowError:
        return math.inf


def ball_growth_counts(space, base, radii):
    """(R, point count of the closed R-ball) along the radius grid; the
    half-plane, whose balls are not finite, raises InputError."""
    return [(float(R), space.ball_size(base, R)) for R in radii]


def orbit_growth_counts(space, generators, base, radii, word_cap: int):
    """Orbit-point counts |B(base, R) ∩ orbit| along the radii, as the
    model's orbit of the group counts them: exactly on the tree, over the
    words up to word_cap on H²."""
    return space.orbit(generators, word_cap).counts(base, radii)


def entropy_estimate(counts):
    """Exponential growth rate: least-squares slope of log count vs R.

    Fits over the top half of the radius grid (at least two radii) to
    skip the small-radius transient.  Returns a report with per-radius
    counts.
    """
    import numpy as np
    counts = [(float(R), int(c)) for R, c in counts]
    if len(counts) < 3:
        raise InputError("need at least 3 radii")
    if any(c <= 0 for _, c in counts):
        raise InputError("counts must be positive")
    counts.sort()
    k = max(2, math.ceil(len(counts) / 2))
    tail = counts[-k:]
    xs = np.array([R for R, _ in tail])
    ys = np.array([math.log(c) for _, c in tail])
    slope, intercept = np.polyfit(xs, ys, 1)
    return {"estimate": float(max(slope, 0.0)), "counts": counts,
            "window": [float(tail[0][0]), float(tail[-1][0])]}


def entropy_bounds_check(config: BoundsConfig, measured: float,
                         context: str = "group_nonelementary"):
    """Pass/fail of the two-sided entropy bounds C0 <= measured <= E0.

    The lower bound only applies to non-elementary group actions; other
    contexts check the packing ceiling alone.
    """
    der = config.derived()
    lower_applies = context == "group_nonelementary"
    lower_ok = (measured >= der.C0 - TOL) if lower_applies else None
    upper_ok = measured <= der.E0 + TOL
    return {
        "context": context,
        "measured": measured,
        "C0": der.C0, "E0": der.E0,
        "lower_ok": lower_ok,
        "upper_ok": bool(upper_ok),
        "ok": bool((lower_ok is not False) and upper_ok),
    }


def systole_floor(config: BoundsConfig, nilrad_plus: float) -> float:
    """min(eps0, exp(-H0 * nilrad_plus) / H0); the -inf sentinel for an
    empty thin part returns eps0, and NaN is refused."""
    H0 = config.derived().H0
    if nilrad_plus == -math.inf:
        return config.eps0
    if not nilrad_plus >= 0:
        raise InputError("nilrad_plus must be >= 0 or the -inf sentinel")
    return min(config.eps0, math.exp(-H0 * nilrad_plus) / H0)


def diastole_floor(config: BoundsConfig) -> float:
    return config.eps0


@dataclass
class ActionStats:
    sys_at: dict = field(default_factory=dict)
    sys_free_at: dict = field(default_factory=dict)
    dias_estimate: float = 0.0
    nilrad_at: dict = field(default_factory=dict)
    nilrad_plus_estimate: float = -math.inf
    word_cap: int = 0
    sample_size: int = 0
    note: str = ""


def action_stats(space, generators, sample, word_cap: int,
                 config: BoundsConfig) -> ActionStats:
    """Sampled displacement statistics of the group generated by the
    given isometries, as the model's orbit of the group measures them.

    Per point: minimal displacement over the nontrivial elements (sys,
    and sys_free excluding finite-order elements), the largest dyadic
    radius whose almost-stabilizer stays pairwise elementary (nilrad),
    and the thin-part supremum of the latter.  The orbit's note says
    which side sys has: exact on the tree, a truncation over-estimating
    it on H², where dias, the sample maximum of sys, has no side.
    """
    orbit = space.orbit(generators, word_cap)
    stats = ActionStats(word_cap=word_cap, sample_size=len(sample),
                        note=orbit.note)
    radii_grid = [config.eps0 * 2.0 ** k for k in range(-2, 7)]
    for x, (sys_x, free, nilrad) in zip(
            sample, orbit.displacement_stats(sample, radii_grid)):
        stats.sys_at[x], stats.sys_free_at[x] = sys_x, free
        stats.nilrad_at[x] = nilrad
    stats.dias_estimate = max(stats.sys_at.values())
    thin = [x for x, v in stats.sys_at.items() if v < config.eps0]
    if thin:
        stats.nilrad_plus_estimate = max(stats.nilrad_at[x] for x in thin)
    return stats


class WordWalk:
    """The orbit of the group of the (name, isometry) generators as far
    as the shortlex walk over its words up to word_cap reaches."""

    note = ("sys values are word_cap-truncated over-estimates; "
            "dias under-estimates the true supremum")

    def __init__(self, space, generators, word_cap: int):
        letters = pingpong.group_letters(space, generators)
        pingpong.check_walk_length(len(letters), word_cap)
        self.space = space
        self.levels = [E for E, _ in
                       pingpong.walk_levels(space, letters, word_cap)]

    def counts(self, base, radii) -> list:
        """(R, orbit points within R of base) along the radii."""
        import numpy as np
        dists = np.sort(self.space.orbit_dists(base, self.levels)).tolist()
        return [(float(R), bisect.bisect_right(dists, R + TOL))
                for R in radii]

    def displacement_stats(self, sample, radii_grid):
        """(sys, sys_free, nilrad) at each point of the sample, over the
        walk's nontrivial elements, each classified once."""
        import numpy as np
        space = self.space
        nontrivial = ~np.concatenate([space.is_identity_batch(E)
                                      for E in self.levels])
        if not nontrivial.any():
            raise InputError("no nontrivial elements within the word cap")
        gs = [g for E in self.levels for g in space.unbatch(E)]
        profiles = [isometry.classify(g, space) if keep else None
                    for g, keep in zip(gs, nontrivial)]
        elliptic = [i for i, p in enumerate(profiles)
                    if p and p.kind == "elliptic"]
        finite_order = np.zeros(len(gs), dtype=bool)
        finite_order[elliptic] = _finite_order(
            space, [gs[i] for i in elliptic], 24)
        # the trivial elements' columns go to inf, past every radius
        table = space.displacement_table(sample, self.levels)
        table[:, ~nontrivial] = math.inf
        return zip(table.min(axis=1).tolist(),
                   table.min(axis=1, where=~finite_order,
                             initial=math.inf).tolist(),
                   _nilradii(space, table, radii_grid, profiles))


def _finite_order(space, gs, k: int):
    """Whether g^j = compose(g^(j-1), g) is the identity at some j <= k,
    for each g of gs: the walk over the one letter g, with its elements,
    checks and budget error, for all g at once up to their identities."""
    import numpy as np
    found, at = np.zeros(len(gs), dtype=bool), np.arange(len(gs))
    G = H = space.batch(gs)
    for j in range(k):
        if not at.size:
            break
        if j >= pingpong.WORD_BUDGET:
            raise BudgetError("word budget exhausted")
        hit = space.is_identity_batch(H)
        found[at[hit]] = True
        at = at[~hit]
        H = space.compose_level(H, np.flatnonzero(~hit), G, at)
    return found


def _nilradii(space, table, radii_grid, profiles):
    """The nilradius at each point, a row of the table of displacements
    of the elements of the profiles: the last radius r of the ascending
    grid (or 0.0) at which every pair of elements displacing the point
    by at most r is non-elliptic with meeting fixed sets.  A point walks
    its elements within the last radius in displacement order up to the
    first, at t, that fails with one before it: r is the last radius
    below t.  The points walk together, a place in their orders at a
    time, and each pair is tested once for the whole table."""
    import numpy as np
    n = table.shape[1]
    within = np.count_nonzero(table <= radii_grid[-1], axis=1)
    # the orders' first within.max() places, sorted in blocks of rows of
    # about _SORT_BLOCK entries, which bound the temporary arrays
    order = np.empty((len(table), within.max(initial=0)),
                     dtype=np.min_scalar_type(n))
    step = max(1, _SORT_BLOCK // max(1, n))
    for s in range(0, len(table), step):
        order[s:s + step] = np.argsort(table[s:s + step], axis=1,
                                       kind="stable")[:, :order.shape[1]]
    t = np.full(len(table), math.inf)
    tested = failed = np.empty(0, dtype=np.int64)   # sorted pair codes
    walking = np.flatnonzero(within > 1)
    for j in range(1, order.shape[1]):
        walking = walking[within[walking] > j]
        if not walking.size:
            break
        # the pairs of element j of each order with the ones before it,
        # by (lower, higher) element, as one code
        b = order[walking, j].astype(np.int64)
        a = order[walking, :j].astype(np.int64)
        pairs = np.minimum(a, b[:, None]) * n + np.maximum(a, b[:, None])
        new = np.sort(pairs, axis=None)
        new = new[np.diff(new, prepend=-1) > 0]
        new = new[~_among(tested, new)].tolist()
        if new:
            tested = np.sort(np.concatenate((tested, new)))
            failed = np.sort(np.concatenate((failed, [
                k for k in new if not isometry.elementary_profiles(
                    space, profiles[k // n], profiles[k % n])])))
        fails = _among(failed, pairs).any(axis=1)
        t[walking[fails]] = table[walking[fails], b[fails]]
        walking = walking[~fails]
    grid = np.array(radii_grid)
    below = np.searchsorted(grid, t)   # the radii below t
    return np.where(below > 0, grid[below - 1], 0.0).tolist()


def _among(keys, x):
    """Whether each entry of x is one of the sorted keys."""
    import numpy as np
    at = np.minimum(np.searchsorted(keys, x), max(keys.size - 1, 0))
    return keys[at] == x if keys.size else np.zeros(np.shape(x), dtype=bool)
