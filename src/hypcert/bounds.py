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
    letters = pingpong.group_letters(space, generators)
    pingpong.check_walk_length(len(letters), word_cap)
    orbit = {_pt_key(base): base}
    for E, _ in pingpong.walk_levels(space, letters, word_cap):
        for p in space.act_batch(E, base):
            orbit.setdefault(_pt_key(p), p)
    dists = sorted(space.dist_row(base, list(orbit.values())).tolist())
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
    pingpong.check_walk_length(len(letters), word_cap)
    levels = [E for E, _ in pingpong.walk_levels(space, letters, word_cap)]
    gs = [g for E in levels for g in space.unbatch(E)]
    nontrivial = np.array([not space.is_identity(g) for g in gs])
    if not nontrivial.any():
        raise InputError("no nontrivial elements within the word cap")
    elems = [g for g, keep in zip(gs, nontrivial) if keep]
    profiles = [isometry.classify(g, space) for g in elems]
    finite_order = np.array([p.kind == "elliptic"
                             and pingpong.has_finite_order(space, g, 24)
                             for g, p in zip(elems, profiles)], dtype=bool)

    stats = ActionStats(word_cap=word_cap, sample_size=len(sample))
    radii_grid = [config.eps0 * 2.0 ** k for k in range(-2, 7)]
    for x in sample:
        images = [p for E in levels for p in space.act_batch(E, x)]
        disp = space.dist_row(x, list(itertools.compress(images, nontrivial)))
        stats.sys_at[x] = disp.min().item()
        free = disp[~finite_order]
        stats.sys_free_at[x] = free.min().item() if free.size else math.inf
        stats.nilrad_at[x] = _nilrad_at(space, disp, radii_grid, profiles)
    stats.dias_estimate = max(stats.sys_at.values())
    thin = [x for x, v in stats.sys_at.items() if v < config.eps0]
    if thin:
        stats.nilrad_plus_estimate = max(stats.nilrad_at[x] for x in thin)
    return stats


def _nilrad_at(space, disp, radii_grid, profiles):
    """The last grid radius r at which every pair of elements displacing
    the point by at most r is non-elliptic with meeting fixed sets."""
    best = 0.0
    for r in radii_grid:
        near = [profiles[i] for i in np.flatnonzero(disp <= r)]
        if not all(isometry.elementary_profiles(space, p, q)
                   for p, q in itertools.combinations(near, 2)):
            break
        best = r
    return best

