"""Quantitative free-subgroup search: elementary-pair detection, bounded
shortlex word enumeration, and the (N, w) witness driver."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from . import freetree, halfplane, isometry, pingpong
from .errors import (BudgetError, DomainError, ElementaryPairError,
                     InputError, SearchExhausted)

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
    each generator followed by its inverse.
    """
    if max_len < 1:
        raise InputError("max_len must be >= 1")
    syms = []
    for name in letters:
        syms.append((name, 1))
        syms.append((name, -1))
    count = 0
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for s in syms:
                if w and w[-1][0] == s[0] and w[-1][1] == -s[1]:
                    continue
                w2 = w + (s,)
                count += 1
                if count > budget:
                    raise SearchExhausted("word budget exhausted",
                                          stats={"emitted": count - 1})
                yield w2
                nxt.append(w2)
        frontier = nxt


def word_to_text(word) -> str:
    out = []
    for name, sign in word:
        out.append(name if sign == 1 else f"{name}^-1")
    return pingpong._render(iter(out))


def evaluate_word(space, word, table):
    """Compose the isometries named by a (name, sign) word."""
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


def _finite_order(space, g, depth) -> bool:
    try:
        passed, _ = pingpong.word_oracle(space, [("g", g)], depth, "group")
    except BudgetError:
        return False
    return not passed


def _certify_sample(space, data, cfg, rng):
    if isinstance(space, halfplane.HalfPlane):
        radius = max(3.0 * (data.M0 + data.N * 2.0), 10.0)
        return halfplane.sample_ball(1j, radius, cfg.sample_size, rng)
    if isinstance(space, freetree.FreeTreeSpace):
        return space.sample_ball("", 5, cfg.sample_size, rng)
    return space.sample_ball(space.vertices[0], math.inf, cfg.sample_size, rng)


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
    t_start = time.monotonic()
    stats = {"candidates": 0, "words": 0}
    table = {names[0]: a, names[1]: b}

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
        b_eff = pingpong._compose(
            space, pingpong._compose(space, b, a),
            isometry.isometry_power(space, b, -1))
        b_word = ((names[1], 1), (names[0], 1), (names[1], -1))
        pb = isometry.classify(b_eff, space)

    if pa.kind == "hyperbolic" and pb.kind == "hyperbolic":
        if is_elementary_pair(space, a, b_eff):
            raise ElementaryPairError("the pair generates an elementary group")
        if pa.ell > cfg.eps0 / 3.0:
            return _large_ell_group(space, a, b_eff, b_word, table, names,
                                    cfg, rng, stats, t_start)
        return _small_ell(space, a, b, table, names, cfg, rng, stats, t_start)
    if pa.kind != "elliptic" and pb.kind != "elliptic" \
            and (pa.kind == "hyperbolic") != (pb.kind == "hyperbolic"):
        return _semigroup_case(space, a, b, table, names, cfg, stats, t_start)
    return _small_ell(space, a, b, table, names, cfg, rng, stats, t_start)


def _finish(stats, t_start):
    stats["time"] = round(time.monotonic() - t_start, 6)
    return stats


def _large_ell_group(space, a, b_eff, b_word, table, names, cfg, rng,
                     stats, t_start):
    candidates = [(b_word, b_eff)]
    for j in range(1, cfg.conjugate_bound + 1):
        bj = pingpong._compose(
            space, pingpong._compose(
                space, isometry.isometry_power(space, table[names[1]], j), a),
            isometry.isometry_power(space, table[names[1]], -j))
        wj = ((names[1], j), (names[0], 1), (names[1], -j))
        candidates.append((_expand(wj), bj))
    last_err = None
    for word, g in candidates:
        stats["candidates"] += 1
        try:
            if is_elementary_pair(space, a, g):
                continue
            N, _ = pingpong.min_free_power(space, a, g, cfg.delta)
            data = pingpong.pingpong_data(space, a, g, N, cfg.delta)
            pts = _certify_sample(space, data, cfg, rng)
            cert = pingpong.pingpong_certify(
                space, a, g, N, cfg.delta, pts,
                oracle_depth=cfg.oracle_depth, names=(names[0], "w"))
            if cert.valid:
                cert.witness_word = word_to_text(word)
                return TitsWitness("large_ell_group", N, word_to_text(word),
                                   cert, _finish(stats, t_start))
        except (DomainError, ElementaryPairError) as e:
            last_err = e
    raise SearchExhausted(f"no certified conjugate witness ({last_err})",
                          stats=_finish(stats, t_start))


def _expand(compact):
    out = []
    for name, exp in compact:
        out.extend([(name, 1 if exp > 0 else -1)] * abs(exp))
    return tuple(out)


def _small_ell(space, a, b, table, names, cfg, rng, stats, t_start):
    pa = isometry.classify(a, space)
    pb = isometry.classify(b, space)
    # Schottky leg over the conjugate family, when both are hyperbolic
    if pa.kind == "hyperbolic" and pb.kind == "hyperbolic":
        sm_witness = _conjugate_schottky(space, a, b, table, names, cfg,
                                         rng, stats, t_start)
        if sm_witness is not None:
            return sm_witness
    # oracle-certified shortlex fallback
    for word in enumerate_words(names, cfg.N_max):
        stats["words"] += 1
        if len(word) == 1 and word[0] == (names[0], 1):
            continue
        if all(name == names[0] for name, _ in word):
            continue  # powers of a never make a free pair with a
        g = evaluate_word(space, word, table)
        passed, _ = pingpong.word_oracle(
            space, [(names[0], a), ("w", g)], cfg.oracle_depth, "group")
        if passed:
            cert = pingpong.FreeCertificate(
                kind="group", names=(names[0], "w"), N=1,
                witness_word=word_to_text(word), delta=cfg.delta,
                oracle_depth=cfg.oracle_depth, oracle_passed=True)
            return TitsWitness("small_ell", 1, word_to_text(word), cert,
                               _finish(stats, t_start))
        if stats["words"] >= 4 ** min(cfg.N_max, 9):
            break
    raise SearchExhausted("no oracle-certified witness within the word budget",
                          stats=_finish(stats, t_start))


def _conjugate_schottky(space, a, b, table, names, cfg, rng, stats, t_start):
    pts = _certify_sample(
        space, pingpong.PingPongData(None, None, None, None, 0.0,
                                     cfg.delta, 1, False), cfg, rng)
    conj = []
    for i in range(1, cfg.conjugate_bound + 1):
        bi = pingpong._compose(
            space, pingpong._compose(
                space, isometry.isometry_power(space, b, i), a),
            isometry.isometry_power(space, b, -i))
        conj.append((i, bi))
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
                cert = pingpong.FreeCertificate(
                    kind="group", names=("u", "v"), N=1,
                    witness_word=word_to_text(word), delta=cfg.delta,
                    oracle_depth=cfg.oracle_depth, oracle_passed=True,
                    evidence=sm)
                return TitsWitness("small_ell", 1, word_to_text(word), cert,
                                   _finish(stats, t_start))
    return None


def _semigroup_case(space, a, b, table, names, cfg, stats, t_start):
    last = None
    for N in range(1, cfg.N_max + 1):
        stats["candidates"] += 1
        aN = isometry.isometry_power(space, a, N)
        bN = isometry.isometry_power(space, b, N)
        passed, counter = pingpong.word_oracle(
            space, [(names[0], aN), (names[1], bN)],
            cfg.oracle_depth, "semigroup")
        if passed:
            cert = pingpong.FreeCertificate(
                kind="semigroup", names=tuple(names), N=N,
                witness_word=names[1], delta=cfg.delta,
                oracle_depth=cfg.oracle_depth, oracle_passed=True)
            return TitsWitness("large_ell_semigroup", N, names[1], cert,
                               _finish(stats, t_start))
        last = counter
    raise SearchExhausted(
        f"semigroup oracle kept finding coincidences (last: {last})",
        stats=_finish(stats, t_start))
