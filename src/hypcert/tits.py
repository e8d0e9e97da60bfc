"""Quantitative free-subgroup search: elementary-pair detection, bounded
shortlex word enumeration, and the (N, w) witness driver."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import freetree, halfplane, isometry, pingpong
from .errors import (BudgetError, DomainError, ElementaryPairError,
                     InputError, SearchExhausted)
from .pingpong import word_to_text

TOL = 1e-9


def _boundary_sets_eq(space, s1, s2) -> bool:
    if len(s1) != len(s2):
        return False
    eq = space.boundary_eq
    return (all(any(eq(u, v) for v in s2) for u in s1)
            and all(any(eq(u, v) for v in s1) for u in s2))


def is_elementary_pair(space, a, b) -> bool:
    """True iff the two non-elliptic isometries fix the same boundary set.

    Discreteness of the generated group is the caller's responsibility;
    the comparison itself is model-exact.
    """
    pa, pb = isometry.classify(a, space), isometry.classify(b, space)
    if pa.kind == "elliptic" or pb.kind == "elliptic":
        raise DomainError("elementary detection needs non-elliptic inputs")
    return _boundary_sets_eq(space, pa.fixed_boundary, pb.fixed_boundary)


def enumerate_words(letters, max_len: int, budget: int = 10 ** 6):
    """All freely reduced words of length 1..max_len in shortlex order.

    Words are tuples of (letter name, +1 or -1); the letter order is
    each generator followed by its inverse.  This is
    pingpong.walk_words without elements.
    """
    syms = [((name, sign), None) for name in letters for sign in (1, -1)]
    try:
        for word, _ in pingpong.walk_words(None, syms, max_len, budget):
            yield word
    except BudgetError:
        raise SearchExhausted("word budget exhausted",
                              stats={"emitted": budget}) from None


def evaluate_word(space, word, table):
    """Compose the isometries named by a (name, sign) word; the per-word
    reference for the elements of pingpong.walk_words."""
    g = None
    for name, sign in word:
        h = table[name] if sign == 1 else isometry.isometry_power(
            space, table[name], -1)
        g = h if g is None else pingpong._compose(space, g, h)
    return g


@dataclass
class TitsConfig:
    delta: float = 1.0
    eps0: float = 0.1
    N_max: int = 64
    oracle_depth: int = 8
    conjugate_bound: int = 16
    sample_size: int = 400
    seed: int = 0


@dataclass
class TitsWitness:
    case_tag: str  # small_ell | large_ell_group | large_ell_semigroup
    N: int
    w: str
    certificate: pingpong.FreeCertificate
    search_stats: dict = field(default_factory=dict)


def _finite_order(space, g, k) -> bool:
    """Whether g^j is the identity for some 1 <= j <= k."""
    return any(space.is_identity(h)
               for _, h in pingpong.walk_words(space, [(("g", 1), g)], k))


def _certify_sample(space, M0, N, cfg, rng):
    if isinstance(space, halfplane.HalfPlane):
        radius = max(3.0 * (M0 + N * 2.0), 10.0)
        return halfplane.sample_ball(1j, radius, cfg.sample_size, rng)
    if isinstance(space, freetree.FreeTreeSpace):
        return space.sample_ball("", 5, cfg.sample_size, rng)
    return space.sample_ball(space.vertices[0], math.inf, cfg.sample_size, rng)


def _conjugates(space, a, b, k):
    """b^j a b^-j for j = 1..k."""
    return [pingpong._compose(
                space, pingpong._compose(
                    space, isometry.isometry_power(space, b, j), a),
                isometry.isometry_power(space, b, -j))
            for j in range(1, k + 1)]


def _oracle_witness(case, kind, names, N, text, cfg, stats, evidence=None):
    """A witness whose certificate rests on a passing word oracle alone."""
    cert = pingpong.FreeCertificate(
        kind=kind, names=tuple(names), N=N, witness_word=text,
        delta=cfg.delta, oracle_depth=cfg.oracle_depth, oracle_passed=True,
        evidence=evidence)
    return TitsWitness(case, N, text, cert, stats)


def tits_witness(space, a, b, cfg: TitsConfig = None,
                 names=("a", "b")) -> TitsWitness:
    """Search for a word w and power N with a certified free pair (a^N, w).

    Large translation lengths go through axis projections and the
    explicit power threshold; small or mixed ones through Schottky
    margins over conjugate words, with an oracle-certified shortlex
    search as the last resort.  Returned witnesses always carry a
    passing word oracle.
    """
    cfg = cfg or TitsConfig()
    rng = random.Random(cfg.seed)
    stats = {"candidates": 0, "words": 0}

    pa = isometry.classify(a, space)
    pb = isometry.classify(b, space)
    for g, prof in ((a, pa), (b, pb)):
        if prof.kind == "elliptic" and _finite_order(space, g, cfg.oracle_depth):
            raise InputError("generator has finite order; "
                             "the free-group search needs torsion-free input")

    b_eff, b_word = b, ((names[1], 1),)
    if pa.kind == "hyperbolic" and pb.kind == "hyperbolic" \
            and abs(pa.ell - pb.ell) > TOL:
        # conjugation trick: b a b^-1 translates exactly like a
        b_eff, = _conjugates(space, a, b, 1)
        b_word = ((names[1], 1), (names[0], 1), (names[1], -1))
        pb = isometry.classify(b_eff, space)

    if pa.kind != "elliptic" and pb.kind != "elliptic" and _boundary_sets_eq(
            space, pa.fixed_boundary, pb.fixed_boundary):
        raise ElementaryPairError("the pair generates an elementary group")
    if pa.kind == "hyperbolic" and pb.kind == "hyperbolic":
        if pa.ell > cfg.eps0 / 3.0:
            return _large_ell_group(space, a, b, b_eff, b_word, names,
                                    cfg, rng, stats)
        return _small_ell(space, a, b, names, cfg, rng, stats)
    if pa.kind != "elliptic" and pb.kind != "elliptic" \
            and (pa.kind == "hyperbolic") != (pb.kind == "hyperbolic"):
        return _semigroup_case(space, a, b, names, cfg, stats)
    return _small_ell(space, a, b, names, cfg, rng, stats)


def _large_ell_group(space, a, b, b_eff, b_word, names, cfg, rng, stats):
    conj = _conjugates(space, a, b, cfg.conjugate_bound)
    candidates = [(b_word, b_eff)] + [
        (_expand(((names[1], j), (names[0], 1), (names[1], -j))), bj)
        for j, bj in enumerate(conj, 1)]
    last_err = None
    for word, g in candidates:
        stats["candidates"] += 1
        try:
            if is_elementary_pair(space, a, g):
                continue
            N, ep = pingpong.min_free_power(space, a, g, cfg.delta)
            pts = _certify_sample(space, ep.M0, N, cfg, rng)
            cert = pingpong.pingpong_certify(
                space, a, g, N, cfg.delta, pts,
                oracle_depth=cfg.oracle_depth, names=(names[0], "w"))
            if cert.valid:
                cert.witness_word = word_to_text(word)
                return TitsWitness("large_ell_group", N, word_to_text(word),
                                   cert, stats)
        except (DomainError, ElementaryPairError) as e:
            last_err = e
    raise SearchExhausted(f"no certified conjugate witness ({last_err})",
                          stats=stats)


def _expand(compact):
    out = []
    for name, exp in compact:
        out.extend([(name, 1 if exp > 0 else -1)] * abs(exp))
    return tuple(out)


def _small_ell(space, a, b, names, cfg, rng, stats):
    pa = isometry.classify(a, space)
    pb = isometry.classify(b, space)
    # Schottky leg over the conjugate family, when both are hyperbolic
    if pa.kind == "hyperbolic" and pb.kind == "hyperbolic":
        sm_witness = _conjugate_schottky(space, a, b, names, cfg, rng, stats)
        if sm_witness is not None:
            return sm_witness
    # oracle-certified shortlex fallback
    letters = pingpong.group_letters(space, [(names[0], a), (names[1], b)])
    cap = 4 ** min(cfg.N_max, 9)
    # walk no level past the one where the word cap is reached
    max_len, total = 1, 4
    while total < cap:
        max_len += 1
        total += 4 * 3 ** (max_len - 1)
    for word, g in pingpong.walk_words(space, letters,
                                       min(cfg.N_max, max_len)):
        stats["words"] += 1
        if all(name == names[0] for name, _ in word):
            continue  # powers of a never make a free pair with a
        passed, _ = pingpong.word_oracle(
            space, [(names[0], a), ("w", g)], cfg.oracle_depth, "group")
        if passed:
            return _oracle_witness("small_ell", "group", (names[0], "w"), 1,
                                   word_to_text(word), cfg, stats)
        if stats["words"] >= cap:
            break
    raise SearchExhausted("no oracle-certified witness within the word budget",
                          stats=stats)


def _conjugate_schottky(space, a, b, names, cfg, rng, stats):
    pts = _certify_sample(space, 0.0, 1, cfg, rng)
    conj = list(enumerate(_conjugates(space, a, b, cfg.conjugate_bound), 1))
    for idx, (i, bi) in enumerate(conj):
        for j, bj in conj[idx + 1:]:
            stats["candidates"] += 1
            try:
                if is_elementary_pair(space, bi, bj):
                    continue
                sm = pingpong.schottky_margin(space, bi, bj, cfg.delta, pts)
            except DomainError:
                continue
            if not sm.passes:
                continue
            word = _expand(((names[1], j - i), (names[0], 1),
                            (names[1], i - j)))
            passed, _ = pingpong.word_oracle(
                space, [("u", bi), ("v", bj)], cfg.oracle_depth, "group")
            if passed:
                return _oracle_witness("small_ell", "group", ("u", "v"), 1,
                                       word_to_text(word), cfg, stats,
                                       evidence=sm)
    return None


def _semigroup_case(space, a, b, names, cfg, stats):
    last = None
    for N in range(1, cfg.N_max + 1):
        stats["candidates"] += 1
        aN = isometry.isometry_power(space, a, N)
        bN = isometry.isometry_power(space, b, N)
        passed, counter = pingpong.word_oracle(
            space, [(names[0], aN), (names[1], bN)],
            cfg.oracle_depth, "semigroup")
        if passed:
            return _oracle_witness("large_ell_semigroup", "semigroup", names,
                                   N, names[1], cfg, stats)
        last = counter
    raise SearchExhausted(
        f"semigroup oracle kept finding coincidences (last: {last})",
        stats=stats)
