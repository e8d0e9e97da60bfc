"""Constant ledger and bound verifiers: packing propagation, entropy
estimation with two-sided checks, and systole/diastole/nilradius
estimators with their closed-form floors."""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import TOL, isometry, pingpong
from .errors import InputError


@dataclass
class BoundsConfig:
    P0: int = 4
    r0: float = 0.5
    delta: float = 1.0
    eps0: float = 0.1
    N: int = 1
    tolerance: float = TOL

    def __post_init__(self):
        if self.eps0 <= 0 or self.r0 <= 0 or self.N < 1 or self.P0 < 1:
            raise InputError("need eps0 > 0, r0 > 0, N >= 1, P0 >= 1")

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
    if not (0 < r <= R):
        raise InputError("need 0 < r <= R")
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
    """Orbit-point counts |B(base, R) ∩ orbit| using words up to word_cap."""
    orbit = {_pt_key(base): base}
    letters = pingpong.group_letters(space, generators)
    for _, g in pingpong.walk_words(space, letters, word_cap):
        p = isometry.apply_isometry(space, g, base)
        orbit.setdefault(_pt_key(p), p)
    dists = sorted(space.dist_table([base], list(orbit.values()))[0].tolist())
    return [(float(R), bisect.bisect_right(dists, R + TOL)) for R in radii]


def _pt_key(p):
    if isinstance(p, complex):
        return (round(p.real, 9), round(p.imag, 9))
    return p


def entropy_estimate(counts):
    """Exponential growth rate: least-squares slope of log count vs R.

    Fits over the top half of the radius grid (at least two radii) to
    skip the small-radius transient.  Returns a report with per-radius
    counts.
    """
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
    lower_ok = (measured >= der.C0 - config.tolerance) if lower_applies else None
    upper_ok = measured <= der.E0 + config.tolerance
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


def action_stats(space, generators, sample, word_cap: int,
                 config: BoundsConfig) -> ActionStats:
    """Sampled displacement statistics of the group generated by the
    given isometries.

    Per point: minimal displacement over the enumerated nontrivial
    words (sys, and sys_free excluding detected finite-order elements),
    the largest dyadic radius whose almost-stabilizer stays pairwise
    elementary (nilrad), and the thin-part supremum of the latter.
    All values are truncations: sys over-estimates and dias
    under-estimates their true counterparts.
    """
    letters = pingpong.group_letters(space, generators)
    elems = [(pingpong.word_to_text(word), g)
             for word, g in pingpong.walk_words(space, letters, word_cap)
             if not space.is_identity(g)]
    if not elems:
        raise InputError("no nontrivial elements within the word cap")
    profiles = {w: isometry.classify(g, space) for w, g in elems}
    finite_order = {w: profiles[w].kind == "elliptic"
                    and pingpong.has_finite_order(space, g, 24)
                    for w, g in elems}

    stats = ActionStats(word_cap=word_cap, sample_size=len(sample))
    radii_grid = [config.eps0 * 2.0 ** k for k in range(-2, 7)]
    for x in sample:
        row = space.dist_table(
            [x], [isometry.apply_isometry(space, g, x) for _, g in elems])
        disp = dict(zip((w for w, _ in elems), row[0].tolist()))
        stats.sys_at[x] = min(disp.values())
        free_vals = [v for w, v in disp.items() if not finite_order[w]]
        stats.sys_free_at[x] = min(free_vals) if free_vals else math.inf
        stats.nilrad_at[x] = _nilrad_at(space, disp, radii_grid, profiles)
    stats.dias_estimate = max(stats.sys_at.values())
    thin = [x for x, v in stats.sys_at.items() if v < config.eps0]
    if thin:
        stats.nilrad_plus_estimate = max(stats.nilrad_at[x] for x in thin)
    return stats


def _nilrad_at(space, disp, radii_grid, profiles):
    """The last grid radius r at which every pair of elements displacing
    the point by at most r is non-elliptic with equal fixed sets."""
    best = 0.0
    for r in radii_grid:
        near = [profiles[w] for w, v in disp.items() if v <= r]
        if not all(isometry.elementary_profiles(space, p, q)
                   for p, q in itertools.combinations(near, 2)):
            break
        best = r
    return best


def axis_proximity_length(space, a, b, reach: float, step: float = 0.01,
                          span: float = 40.0) -> float:
    """Arclength of a's axis spent within `reach` of b's axis.

    Measured by scanning the axis parameter and counting step cells
    whose point projects within the reach; an empirical stand-in for
    the closed-form segment of the overlap bound.
    """
    pa = isometry.classify(a, space)
    pb = isometry.classify(b, space)
    if pa.kind != "hyperbolic" or pb.kind != "hyperbolic":
        raise InputError("both isometries must be hyperbolic")
    base = pa.axis.at(0.0)
    total = 0.0
    n = int(span / step)
    for k in range(-n, n + 1):
        z = pa.axis.point_along(base, k * step)
        foot = pb.axis.project(z)
        if space.dist(z, foot) <= reach:
            total += step
    return total
