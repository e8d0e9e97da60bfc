"""Isometry profiles, translation lengths, and sampled Margulis domains
with gap bounds, over the model interface that each space implements
(dist, act, power, classify, ...)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import TOL
from .errors import InputError, PreconditionError

_ROW_BLOCK = 1 << 14   # entries of a block of the gap table's rows


@dataclass
class IsometryProfile:
    kind: str  # elliptic | parabolic | hyperbolic
    ell: float
    axis: object = None
    fixed_boundary: tuple = ()


def classify(g, space) -> IsometryProfile:
    """Type, translation length and boundary data of an isometry.

    Half-plane matrices classify by |trace|, tree words by cyclically
    reduced length.
    """
    return space.classify(g)


def elementary_profiles(space, pa: IsometryProfile,
                        pb: IsometryProfile) -> bool:
    """Whether both isometries are non-elliptic and their fixed boundary
    sets meet, compared by the space's boundary_eq: then the pair fixes
    a boundary point and generates an elementary group."""
    return "elliptic" not in (pa.kind, pb.kind) and any(
        space.boundary_eq(u, v)
        for u in pa.fixed_boundary for v in pb.fixed_boundary)


def orbit_translation_length(g) -> float:
    """Asymptotic displacement of a half-plane matrix, from the orbit of i
    under high powers.

    Uses (d(x, g^n x) - d(x, g^(n/2) x)) / (n/2) at n = 1024: the
    additive offset of the orbit from the axis cancels, so the estimate
    converges fast.
    Evaluated in extended precision since the matrix powers overflow
    doubles for translation lengths over a few tenths.
    """
    import mpmath as mp  # only this estimate needs it; no command calls it

    def orbit_dist(P):
        # for det-1 matrices, sinh(d(i, Pi)/2) = sqrt((B+C)^2 + (A-D)^2)/2,
        # which avoids the cancellation in Im(Pi) at huge powers
        s = mp.sqrt((P[0, 1] + P[1, 0]) ** 2 + (P[0, 0] - P[1, 1]) ** 2) / 2
        return 2 * mp.asinh(s)

    half = 512
    with mp.workdps(60):
        M = mp.matrix([[g.a, g.b], [g.c, g.d]])
        Ph = M ** half
        Pf = Ph * Ph
        return float((orbit_dist(Pf) - orbit_dist(Ph)) / half)


def apply_isometry(space, g, x):
    return space.act(g, x)


def isometry_power(space, g, n: int):
    return space.power(g, n)


@dataclass
class GapReport:
    eps1: float
    eps2: float
    power_cap: int
    inner_count: int
    outer_count: int
    min_gap_observed: float
    lower_bound_i: float
    lower_bound_ii: float
    upper_span_observed: float


def gap_lower_bound_ii(P0, eps1, eps2) -> float:
    """Packing-based gap floor, valid for eps2 at most the packing scale."""
    if not (0 < eps1 < 2.0):
        raise InputError("bound requires 0 < eps1 < 2")
    return math.log(2.0 / eps1 - 1.0) / (2.0 * math.log(1.0 + P0)) * eps2 - 0.5


def domain_gap_report(space, g, eps1, eps2, sample, power_cap=64,
                      P0=None, r0=None) -> GapReport:
    """Sampled gap between the level-eps1 and level-eps2 domains of g.

    Points outside the eps2 domain must sit at least (eps2 - eps1)/2
    from the eps1 domain; the second bound applies when eps2 <= r0 for
    a declared packing profile (P0, r0).
    """
    import numpy as np
    # comparisons with NaN are false, so NaN fails each of them
    if not 0 < eps1 <= eps2 < math.inf:
        raise InputError("need 0 < eps1 <= eps2 < inf")
    if power_cap < 1:
        raise InputError("need power_cap >= 1")
    if not (P0 is None or P0 >= 1) or not (r0 is None or 0 < r0 < math.inf):
        raise InputError("need P0 >= 1 and finite r0 > 0")
    # x is in the level-eps domain if d(x, g^i x) <= eps at some 0 < i <=
    # cap.  Unless g is elliptic, d(x, g^i x) grows with i, so the first
    # power decides; one scan serves both levels, as eps1 <= eps2
    cap = power_cap if classify(g, space).kind == "elliptic" else 1
    nearest_power = space.power_scan(g, sample, cap, eps1 + TOL)
    inside = np.array(nearest_power <= eps1 + TOL, dtype=bool)
    if not inside.any():
        raise PreconditionError("inner domain empty on the sample")
    beyond = ~np.array(nearest_power <= eps2 + TOL, dtype=bool)
    pts = np.fromiter(sample, object, len(sample))
    inner, within = pts[inside], pts[~inside & ~beyond]
    # the rows measure the within and outside points against the inner
    # domain, in blocks of at most _ROW_BLOCK entries; an inner point's
    # own distance, the model's 0, starts the spans
    rows = np.concatenate((inner[:1], within, pts[beyond]))
    step = max(1, _ROW_BLOCK // len(inner))
    near = np.concatenate([space.nearest_dist(rows[s:s + step], inner)
                           for s in range(0, len(rows), step)])
    spans, gaps = near[:1 + len(within)], near[1 + len(within):]
    lb2 = None
    if P0 is not None and r0 is not None and eps2 <= r0 and eps1 < 2.0:
        lb2 = gap_lower_bound_ii(P0, eps1, eps2)
    return GapReport(
        eps1=eps1, eps2=eps2, power_cap=power_cap,
        inner_count=len(inner), outer_count=int(np.count_nonzero(beyond)),
        min_gap_observed=gaps.min().item() if gaps.size else math.inf,
        lower_bound_i=(eps2 - eps1) / 2.0,
        lower_bound_ii=lb2,
        upper_span_observed=spans.max().item(),
    )
