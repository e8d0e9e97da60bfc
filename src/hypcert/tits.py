"""Quantitative free-subgroup search: elementary-pair detection, bounded
shortlex word enumeration, and the (N, w) witness driver."""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

from . import TOL, halfplane, isometry, pingpong
from .errors import (BudgetError, DomainError, ElementaryPairError,
                     InputError, SearchExhausted)
from .pingpong import word_to_text


def is_elementary_pair(space, a, b) -> bool:
    """True iff the two non-elliptic isometries fix the same boundary set.

    Discreteness of the generated group is the caller's responsibility;
    the comparison itself is model-exact.
    """
    pa, pb = isometry.classify(a, space), isometry.classify(b, space)
    if pa.kind == "elliptic" or pb.kind == "elliptic":
        raise DomainError("elementary detection needs non-elliptic inputs")
    return isometry.elementary_profiles(space, pa, pb)


def enumerate_words(letters, max_len: int):
    """All freely reduced words of length 1..max_len in shortlex order.

    Words are tuples of (letter name, +1 or -1); the letter order is
    each generator followed by its inverse.  This is
    pingpong.walk_words without elements, and stops with SearchExhausted
    where the walk's budget runs out.
    """
    syms = [((name, sign), None) for name in letters for sign in (1, -1)]
    try:
        for word, _ in pingpong.walk_words(None, syms, max_len):
            yield word
    except BudgetError:
        raise SearchExhausted("word budget exhausted") from None


def evaluate_word(space, word, table):
    """Compose the isometries named by a (name, sign) word; the per-word
    reference for the elements of pingpong.walk_words."""
    g = None
    for name, sign in word:
        h = table[name] if sign == 1 else isometry.isometry_power(
            space, table[name], -1)
        g = h if g is None else space.compose(g, h)
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

    def __post_init__(self):
        # comparisons with NaN are false, so NaN fails each of them
        if not (0 <= self.delta < math.inf and 0 < self.eps0 < math.inf
                and self.N_max >= 1):
            raise InputError("need finite delta >= 0, finite eps0 > 0 "
                             "and N_max >= 1")


@dataclass
class TitsWitness:
    case_tag: str  # small_ell | large_ell_group | large_ell_semigroup
    N: int
    w: str
    certificate: pingpong.FreeCertificate
    search_stats: dict = field(default_factory=dict)


def _certify_sample(space, M0, N, cfg, rng):
    # only hyperbolic pairs get here, and graph isometries are elliptic
    if isinstance(space, halfplane.HalfPlane):
        radius = max(3.0 * (M0 + N * 2.0), 10.0)
        return halfplane.sample_ball(1j, radius, cfg.sample_size, rng)
    return space.sample_ball("", 5, cfg.sample_size, rng)


def _conjugates(space, a, b, k):
    """(j, b^j a b^-j) for j = 1..k, each built when it is asked for."""
    for j in range(1, k + 1):
        yield j, space.compose(
            space.compose(isometry.isometry_power(space, b, j), a),
            isometry.isometry_power(space, b, -j))


def _oracle_witness(case, kind, N, text, cfg, stats):
    """A witness whose certificate rests on a passing word oracle alone."""
    cert = pingpong.FreeCertificate(
        kind=kind, N=N, oracle_depth=cfg.oracle_depth, oracle_passed=True)
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
        if prof.kind == "elliptic" and pingpong.has_finite_order(
                space, g, cfg.oracle_depth):
            raise InputError("generator has finite order; "
                             "the free-group search needs torsion-free input")

    if isometry.elementary_profiles(space, pa, pb):
        raise ElementaryPairError("the pair generates an elementary group")
    if pa.kind == "hyperbolic" and pb.kind == "hyperbolic":
        if pa.ell > cfg.eps0 / 3.0:
            return _large_ell_group(space, a, b, abs(pa.ell - pb.ell) <= TOL,
                                    names, cfg, rng, stats)
        return _small_ell(space, a, b, (pa, pb), names, cfg, rng, stats)
    if {pa.kind, pb.kind} == {"hyperbolic", "parabolic"}:
        return _semigroup_case(space, a, b, names, cfg, stats)
    return _small_ell(space, a, b, (pa, pb), names, cfg, rng, stats)


def _large_ell_group(space, a, b, same_ell, names, cfg, rng, stats):
    """Try b itself when it translates like a, then the conjugates
    b^j a b^-j, which always do; a candidate sharing an axis endpoint
    with a is passed over."""
    candidates = (
        (_expand(((names[1], j), (names[0], 1), (names[1], -j))), bj)
        for j, bj in _conjugates(space, a, b, cfg.conjugate_bound))
    if same_ell:
        candidates = itertools.chain([(((names[1], 1),), b)], candidates)
    last_err = None
    for word, g in candidates:
        stats["candidates"] += 1
        try:
            data = pingpong.min_free_power(space, a, g, cfg.delta)
            pts = _certify_sample(space, data.M0, data.N, cfg, rng)
            cert = pingpong.pingpong_certify(
                space, data, pts, oracle_depth=cfg.oracle_depth)
            if cert.valid:
                return TitsWitness("large_ell_group", data.N,
                                   word_to_text(word), cert, stats)
        except DomainError as e:
            last_err = e
    raise SearchExhausted(f"no certified conjugate witness ({last_err})")


def _expand(compact):
    out = []
    for name, exp in compact:
        out.extend([(name, 1 if exp > 0 else -1)] * abs(exp))
    return tuple(out)


def _small_ell(space, a, b, profiles, names, cfg, rng, stats):
    # Schottky leg over the conjugate family, when both are hyperbolic
    if all(p.kind == "hyperbolic" for p in profiles):
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
            return _oracle_witness("small_ell", "group", 1,
                                   word_to_text(word), cfg, stats)
        if stats["words"] >= cap:
            break
    raise SearchExhausted("no oracle-certified witness within the word budget")


def _conjugate_schottky(space, a, b, names, cfg, rng, stats):
    pts = _certify_sample(space, 0.0, 1, cfg, rng)
    conj = list(_conjugates(space, a, b, cfg.conjugate_bound))
    # each conjugate is classified once, by the first pair that needs it
    profile = functools.cache(lambda k: isometry.classify(conj[k][1], space))
    for p, q in itertools.combinations(range(len(conj)), 2):
        (i, bi), (j, bj) = conj[p], conj[q]
        stats["candidates"] += 1
        try:
            if isometry.elementary_profiles(space, profile(p), profile(q)):
                continue
            sm = pingpong.schottky_margin(space, bi, bj, cfg.delta, pts,
                                          (profile(p), profile(q)))
        except DomainError:
            continue
        if not sm.passes:
            continue
        word = _expand(((names[1], j - i), (names[0], 1), (names[1], i - j)))
        passed, _ = pingpong.word_oracle(
            space, [("u", bi), ("v", bj)], cfg.oracle_depth, "group")
        if passed:
            return _oracle_witness("small_ell", "group", 1,
                                   word_to_text(word), cfg, stats)
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
            return _oracle_witness("large_ell_semigroup", "semigroup", N,
                                   names[1], cfg, stats)
        last = counter
    raise SearchExhausted(
        f"semigroup oracle kept finding coincidences (last: {last})")
