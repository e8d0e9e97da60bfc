"""Free-group and free-semigroup certification: axis endpoint
projections, explicit power thresholds, ping-pong set disjointness,
Schottky margins, and an independent brute-force word oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import isometry, sampled
from .errors import (BudgetError, DomainError, ElementaryPairError,
                     InputError, PreconditionError)

TOL = 1e-9

ORACLE_WORD_BUDGET = 10 ** 6


@dataclass
class EndpointProjections:
    x_minus: object
    x_plus: object
    M0: float
    swapped: bool


def endpoint_projections(space, alpha, beta) -> EndpointProjections:
    """Projections of the endpoints of beta on alpha, oriented forward.

    If the projection of beta's forward endpoint trails the backward
    one along alpha, the roles are swapped (equivalent to replacing the
    second generator by its inverse) and this is recorded.
    """
    if any(space.boundary_eq(u, v)
           for u in alpha.boundary() for v in beta.boundary()):
        raise ElementaryPairError("the axes share a boundary endpoint")
    bm, bp = beta.boundary()
    xm = alpha.project_boundary(bm)
    xp = alpha.project_boundary(bp)
    swapped = alpha.order_key(xp) < alpha.order_key(xm)
    if swapped:
        xm, xp = xp, xm
    d = sampled.dist_oracle(space)
    return EndpointProjections(xm, xp, float(d(xm, xp)), swapped)


def min_free_power(space, a, b, delta: float):
    """Smallest certified power: N = ceil((M0 + 77 delta) / ell).

    Both isometries must be hyperbolic with the same translation length
    (arrange this by conjugation before calling) and non-elementary.
    """
    pa, pb = isometry.classify(a, space), isometry.classify(b, space)
    if pa.kind != "hyperbolic" or pb.kind != "hyperbolic":
        raise DomainError("both isometries must be hyperbolic")
    if abs(pa.ell - pb.ell) > TOL:
        raise PreconditionError(
            f"translation lengths differ: {pa.ell} vs {pb.ell}; "
            "conjugate one generator first")
    ep = endpoint_projections(space, pa.axis, pb.axis)
    N = max(1, math.ceil((ep.M0 + 77.0 * delta) / pa.ell - TOL))
    return N, ep


@dataclass
class PingPongData:
    x_minus: object
    x_plus: object
    y_minus: object
    y_plus: object
    M0: float
    delta: float
    N: int
    swapped: bool
    alpha: object = None
    beta: object = None


def pingpong_data(space, a, b, N: int, delta: float) -> PingPongData:
    pa, pb = isometry.classify(a, space), isometry.classify(b, space)
    ep = endpoint_projections(space, pa.axis, pb.axis)
    beta = pb.axis.reversed() if ep.swapped else pb.axis
    ym = beta.project(ep.x_minus)
    yp = beta.project(ep.x_plus)
    return PingPongData(ep.x_minus, ep.x_plus, ym, yp, ep.M0, delta, N,
                        ep.swapped, alpha=pa.axis, beta=beta)


def proof_set_membership(space, a, b, data: PingPongData, z):
    """Which of the four attracting/repelling sets contain z.

    A+ holds the points closer to a^N x- than to x+, and so on; the
    second generator is read with its orientation fixed by the data.
    """
    d = sampled.dist_oracle(space)
    beff = _effective_b(space, b, data)
    aN = isometry.isometry_power(space, a, data.N)
    a_N = isometry.isometry_power(space, a, -data.N)
    bN = isometry.isometry_power(space, beff, data.N)
    b_N = isometry.isometry_power(space, beff, -data.N)
    names = []
    if d(z, isometry.apply_isometry(space, aN, data.x_minus)) <= d(z, data.x_plus):
        names.append("A+")
    if d(z, isometry.apply_isometry(space, a_N, data.x_plus)) <= d(z, data.x_minus):
        names.append("A-")
    if d(z, isometry.apply_isometry(space, bN, data.y_minus)) <= d(z, data.y_plus):
        names.append("B+")
    if d(z, isometry.apply_isometry(space, b_N, data.y_plus)) <= d(z, data.y_minus):
        names.append("B-")
    return names


def _effective_b(space, b, data: PingPongData):
    return isometry.isometry_power(space, b, -1) if data.swapped else b


def end_set_membership(space, data: PingPongData, T: float, z):
    """Membership of z in the four T-neighbourhood sets of the axis ends."""
    d = sampled.dist_oracle(space)
    alpha, beta = data.alpha, data.beta
    names = []
    if d(z, alpha.point_along(data.x_plus, T)) <= d(z, data.x_plus):
        names.append("A+")
    if d(z, alpha.point_along(data.x_minus, -T)) <= d(z, data.x_minus):
        names.append("A-")
    if d(z, beta.point_along(data.y_plus, T)) <= d(z, data.y_plus):
        names.append("B+")
    if d(z, beta.point_along(data.y_minus, -T)) <= d(z, data.y_minus):
        names.append("B-")
    return names


def end_set_disjointness(space, data: PingPongData, T: float, points):
    """Sampled pairwise-disjointness check of the four end neighbourhoods."""
    overlaps = []
    for z in points:
        names = end_set_membership(space, data, T, z)
        if len(names) > 1:
            overlaps.append((z, tuple(names)))
    return {"T": T, "checked": len(points), "overlaps": len(overlaps),
            "disjoint": not overlaps,
            "first_overlap": overlaps[0] if overlaps else None}


@dataclass
class FreeCertificate:
    kind: str  # group | semigroup
    names: tuple
    N: int
    witness_word: str
    delta: float
    M0: float = None
    swapped: bool = False
    disjoint_ok: bool = None
    nesting_ok: bool = None
    violations: list = field(default_factory=list)
    oracle_depth: int = 0
    oracle_passed: bool = False
    counterexample: str = None
    sample_size: int = 0
    evidence: object = None

    @property
    def valid(self) -> bool:
        geom = ((self.disjoint_ok is not False)
                and (self.nesting_ok is not False))
        return bool(geom and self.oracle_passed)


def pingpong_certify(space, a, b, N: int, delta: float, points,
                     oracle_depth: int = 8, names=("a", "b")) -> FreeCertificate:
    """Certify that the N-th powers generate a free group of rank two.

    Two independent legs: the four attracting/repelling sets must be
    pairwise disjoint and correctly nested on the sample (sound when
    delta really bounds the space's hyperbolicity), and the word oracle
    must find no nontrivial relation up to the given depth.
    """
    Nmin, _ = min_free_power(space, a, b, delta)
    if N < Nmin:
        raise PreconditionError(f"N = {N} below certified threshold {Nmin}")
    data = pingpong_data(space, a, b, N, delta)
    beff = _effective_b(space, b, data)
    aN = isometry.isometry_power(space, a, N)
    bN = isometry.isometry_power(space, beff, N)

    # nesting: a^N maps the complement of A- into A+, and so on.  The
    # membership of a^N z in A+ pulls back along the isometry to
    # d(z, x-) <= d(z, a^-N x+), so it is checked against the same
    # distances as the A- test; pushing z forward instead loses the
    # point's position entirely once a^N contracts it below double
    # resolution near the attracting fixed point.
    d = sampled.dist_oracle(space)
    a_Nxp = isometry.apply_isometry(
        space, isometry.isometry_power(space, a, -N), data.x_plus)
    b_Nyp = isometry.apply_isometry(
        space, isometry.isometry_power(space, beff, -N), data.y_plus)

    violations = []
    nest_ok = True
    for z in points:
        names_in = proof_set_membership(space, a, b, data, z)
        if len(names_in) > 1:
            violations.append((z, tuple(names_in)))
        if "A-" not in names_in and not d(z, data.x_minus) <= d(z, a_Nxp):
            nest_ok = False
            violations.append((z, ("nesting", "a")))
        if "B-" not in names_in and not d(z, data.y_minus) <= d(z, b_Nyp):
            nest_ok = False
            violations.append((z, ("nesting", "b")))

    passed, counter = word_oracle(space, [(names[0], aN), (names[1], bN)],
                                  oracle_depth, "group")
    return FreeCertificate(
        kind="group", names=tuple(names), N=N,
        witness_word=names[1], delta=delta, M0=data.M0, swapped=data.swapped,
        disjoint_ok=not [v for v in violations if v[1][0] != "nesting"],
        nesting_ok=nest_ok, violations=violations,
        oracle_depth=oracle_depth, oracle_passed=passed,
        counterexample=counter, sample_size=len(points), evidence=data)


@dataclass
class SchottkyMargin:
    L_hat: float
    threshold: float
    passes: bool
    power_budget: int
    grid_size: int
    candidate: object = None
    position_ok: bool = None


def schottky_margin(space, a, b, delta: float, points,
                    power_budget: int = 6) -> SchottkyMargin:
    """Sampled estimate of the pair's Margulis constant L(a, b).

    L_hat is the grid infimum of max over the two generators of the
    minimal displacement under nonzero powers; it over-estimates the
    true infimum, so a passing margin is advisory and should be paired
    with the word oracle.  Also evaluates the Schottky-position
    inequality at a candidate point between the two thick regions.
    """
    pa, pb = isometry.classify(a, space), isometry.classify(b, space)
    if pa.kind == "elliptic" or pb.kind == "elliptic":
        raise DomainError("both isometries must be non-elliptic")
    d = sampled.dist_oracle(space)

    def min_disp(g, x):
        best = math.inf
        y = x
        for _ in range(power_budget):
            y = isometry.apply_isometry(space, g, y)
            best = min(best, d(x, y))
        return best

    evals = [(max(min_disp(a, x), min_disp(b, x)), min_disp(a, x),
              min_disp(b, x), x) for x in points]
    L_hat = min(e[0] for e in evals)
    threshold = max(pa.ell, pb.ell) + 56.0 * delta
    x0 = min(evals, key=lambda e: e[1])[3]
    y0 = min(evals, key=lambda e: e[2])[3]
    candidate, pos_ok = _schottky_candidate(space, a, b, x0, y0,
                                          delta, power_budget, d)
    return SchottkyMargin(L_hat=float(L_hat), threshold=float(threshold),
                          passes=bool(L_hat > threshold + TOL),
                          power_budget=power_budget, grid_size=len(points),
                          candidate=candidate, position_ok=pos_ok)


def _schottky_candidate(space, a, b, x0, y0, delta, budget, d):
    """Sweep [x0, y0] for the point best separated from both thick parts,
    then check d(a^p x, b^q x) > max of the displacements + 2 delta."""
    span = d(x0, y0)
    best, best_score = x0, -math.inf
    steps = 32
    for k in range(steps + 1):
        z = sampled.point_on_geodesic(space, x0, y0, span * k / steps)
        da = min(d(z, isometry.apply_isometry(
            space, isometry.isometry_power(space, a, p), z))
            for p in range(1, budget + 1))
        db = min(d(z, isometry.apply_isometry(
            space, isometry.isometry_power(space, b, q), z))
            for q in range(1, budget + 1))
        score = min(da, db)
        if score > best_score:
            best, best_score = z, score
    ok = True
    for p in range(-budget, budget + 1):
        for q in range(-budget, budget + 1):
            if p == 0 or q == 0:
                continue
            az = isometry.apply_isometry(
                space, isometry.isometry_power(space, a, p), best)
            bz = isometry.apply_isometry(
                space, isometry.isometry_power(space, b, q), best)
            if not d(az, bz) > max(d(best, az), d(best, bz)) + 2.0 * delta:
                ok = False
    return best, ok


def _compose(space, g, h):
    return space.compose(g, h)


def word_oracle(space, gens, depth: int, kind: str = "group",
                budget: int = ORACLE_WORD_BUDGET):
    """Breadth-first enumeration of reduced words in the generators.

    Group kind passes when no nonempty reduced word acts as the
    identity; semigroup kind passes when all positive words act as
    pairwise distinct isometries.  Sound up to the stated depth.
    Returns (passed, counterexample word or None).
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    gens = list(gens)
    if kind == "group":
        letters = []
        for name, g in gens:
            letters.append((name, g, name))
            letters.append((name + "^-1",
                            isometry.isometry_power(space, g, -1), name))
        return _oracle_group(space, letters, depth, budget)
    if kind == "semigroup":
        return _oracle_semigroup(space, gens, depth, budget)
    raise InputError(f"unknown oracle kind {kind!r}")


def _render(word_letters) -> str:
    out = []
    for name in word_letters:
        base, exp = (name[:-3], -1) if name.endswith("^-1") else (name, 1)
        if out and out[-1][0] == base and (out[-1][1] < 0) == (exp < 0):
            out[-1][1] += exp
        else:
            out.append([base, exp])
    return " ".join(b if e == 1 else f"{b}^{e}" for b, e in out)


def _oracle_group(space, letters, depth, budget):
    # letters: (display, isometry, family); a letter may not follow its
    # own family's opposite sign, which rules out the trivial backtracks
    inv_of = {}
    for i, (disp, g, fam) in enumerate(letters):
        for j, (disp2, g2, fam2) in enumerate(letters):
            if fam == fam2 and i != j:
                inv_of[i] = j
    frontier = []
    count = 0
    for i, (disp, g, fam) in enumerate(letters):
        frontier.append(([i], g))
    for level in range(1, depth + 1):
        for word, g in frontier:
            count += 1
            if count > budget:
                raise BudgetError("word budget exhausted",
                                  reached=level)
            if space.is_identity(g):
                return False, _render(letters[i][0] for i in word)
        if level == depth:
            break
        nxt = []
        for word, g in frontier:
            for i, (disp, h, fam) in enumerate(letters):
                if inv_of.get(word[-1]) == i:
                    continue
                nxt.append((word + [i], _compose(space, g, h)))
        frontier = nxt
    return True, None


def _oracle_semigroup(space, gens, depth, budget):
    seen = {}
    frontier = [([], None)]
    count = 0
    for level in range(1, depth + 1):
        nxt = []
        for word, g in frontier:
            for name, h in gens:
                w2 = word + [name]
                g2 = h if g is None else _compose(space, g, h)
                count += 1
                if count > budget:
                    raise BudgetError("word budget exhausted", reached=level)
                key = space.iso_key(g2)
                if key in seen:
                    return False, (_render(seen[key]) + " = " + _render(w2))
                seen[key] = w2
                nxt.append((w2, g2))
        frontier = nxt
    return True, None
