"""Isometry profiles, translation lengths, axes, circumcenters, and
sampled Margulis domains with gap bounds, over the model interface that
each space implements (dist, act, power, classify, ...)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp

from . import sampled
from .errors import DomainError, InputError, PreconditionError

TOL = 1e-9


@dataclass
class IsometryProfile:
    kind: str  # elliptic | parabolic | hyperbolic
    ell: float
    asymptotic: float
    axis: object = None
    fixed_boundary: tuple = ()
    fixed_point: object = None


def classify(g, space=None) -> IsometryProfile:
    """Type, translation length and boundary data of an isometry.

    Half-plane matrices classify by |trace|, tree words by cyclically
    reduced length; finite-graph permutations are always elliptic.
    Without a space, g is a half-plane matrix.
    """
    if space is None:
        from .halfplane import H2 as space  # halfplane imports this module
    return space.classify(g)


def orbit_translation_length(g, n: int = 1024) -> float:
    """Asymptotic displacement of a half-plane matrix, from the orbit of i
    under high powers.

    Uses (d(x, g^n x) - d(x, g^(n/2) x)) / (n/2): the additive offset of
    the orbit from the axis cancels, so the estimate converges fast.
    Evaluated in extended precision since the matrix powers overflow
    doubles for translation lengths over a few tenths.
    """
    half = n // 2
    with mp.workdps(60):
        M = mp.matrix([[g.a, g.b], [g.c, g.d]])
        Ph = M ** half
        Pf = Ph * Ph
        d_half = _mp_orbit_dist(Ph)
        d_full = _mp_orbit_dist(Pf)
        return float((d_full - d_half) / half)


def _mp_orbit_dist(P):
    # for det-1 matrices, sinh(d(i, Pi)/2) = sqrt((B+C)^2 + (A-D)^2) / 2,
    # which avoids the cancellation in Im(Pi) at huge powers
    s = mp.sqrt((P[0, 1] + P[1, 0]) ** 2 + (P[0, 0] - P[1, 1]) ** 2) / 2
    return 2 * mp.asinh(s)


def axis(g, space=None):
    prof = classify(g, space)
    if prof.kind != "hyperbolic":
        raise DomainError(f"{prof.kind} isometry has no axis")
    return prof.axis


def apply_isometry(space, g, x):
    return space.act(g, x)


def isometry_power(space, g, n: int):
    return space.power(g, n)


def displacement(space, g, x) -> float:
    return space.dist(x, apply_isometry(space, g, x))


def power_displacement_check(space, g, x, n: int, delta: float):
    """Measured d(x, g^n x) against the logarithmic power bound."""
    if n < 1:
        raise InputError("need n >= 1")
    prof = classify(g, space)
    d = sampled.dist_oracle(space)
    gx = apply_isometry(space, g, x)
    gnx = apply_isometry(space, isometry_power(space, g, n), x)
    measured = d(x, gnx)
    bound = d(x, gx) + (n - 1) * prof.ell + 4.0 * delta * math.log2(n)
    return measured, bound


def circumcenter(space, pts):
    """The point minimizing the maximal distance to a finite set.

    In the half-plane the minimum is found by line searches; discrete
    models return the best candidate point.
    """
    pts = list(pts)
    if not pts:
        raise InputError("empty point set")
    if len(pts) == 1:
        return pts[0], 0.0
    return space.circumcenter(pts)


def margulis_membership(space, g, eps: float, x, power_cap: int):
    """Is x within the generalized Margulis domain of g at level eps?

    Tests d(x, g^i x) <= eps over 0 < i <= power_cap (negative powers
    give the same displacements).  For hyperbolic g, powers beyond
    eps / ell displace everything too far, so the scan stops there.
    """
    if eps <= 0 or power_cap < 1:
        raise InputError("need eps > 0 and power_cap >= 1")
    prof = classify(g, space)
    d = sampled.dist_oracle(space)
    cap = power_cap
    if prof.kind == "hyperbolic":
        cap = min(cap, max(1, math.ceil(eps / prof.ell)))
    y = x
    for i in range(1, cap + 1):
        y = apply_isometry(space, g, y)
        if d(x, y) <= eps + TOL:
            return True, i
    return False, None


@dataclass
class MargulisDomainSample:
    members: list = field(default_factory=list)
    outside: list = field(default_factory=list)


def margulis_domain_sample(space, g, eps, sample, power_cap=64) -> MargulisDomainSample:
    out = MargulisDomainSample()
    for x in sample:
        member, _ = margulis_membership(space, g, eps, x, power_cap)
        (out.members if member else out.outside).append(x)
    return out


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
    if not (0 < eps1 <= eps2):
        raise InputError("need 0 < eps1 <= eps2")
    d = sampled.dist_oracle(space)
    dom1 = margulis_domain_sample(space, g, eps1, sample, power_cap)
    dom2 = margulis_domain_sample(space, g, eps2, sample, power_cap)
    if not dom1.members:
        raise PreconditionError("inner domain empty on the sample")
    def to_inner(x):
        return min(d(x, y) for y in dom1.members)
    gaps = [to_inner(x) for x in dom2.outside]
    spans = [to_inner(x) for x in dom2.members]
    lb2 = None
    if P0 is not None and r0 is not None and eps2 <= r0 and eps1 < 2.0:
        lb2 = gap_lower_bound_ii(P0, eps1, eps2)
    return GapReport(
        eps1=eps1, eps2=eps2, power_cap=power_cap,
        inner_count=len(dom1.members), outer_count=len(dom2.outside),
        min_gap_observed=min(gaps) if gaps else math.inf,
        lower_bound_i=(eps2 - eps1) / 2.0,
        lower_bound_ii=lb2,
        upper_span_observed=max(spans) if spans else 0.0,
    )
