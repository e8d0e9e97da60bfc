"""Quantitative free-subgroup search: bounded shortlex word
enumeration and the search for a free pair (a^N, w)."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

from . import TOL, isometry, pingpong
from .errors import (DomainError, ElementaryPairError, InputError,
                     PreconditionError, SearchExhausted)
from .pingpong import word_to_text

# conjugates b^j a b^-j the large-translation search tries; read at
# each call, so tests can lower it
CONJUGATE_BOUND = 16


def enumerate_words(letters, max_len: int):
    """All freely reduced words of length 1..max_len in shortlex order.

    Words are tuples of (letter name, +1 or -1); the letter order is
    each generator followed by its inverse.  These are the words of
    pingpong.walk_words, built here a word at a time; past the first
    pingpong.WORD_BUDGET of them the search stops with SearchExhausted.
    """
    if max_len < 1:
        raise InputError("max_len must be >= 1")
    syms = [(name, sign) for name in letters for sign in (1, -1)]
    budget, level = pingpong.WORD_BUDGET, [()]
    for _ in range(max_len):
        level = [w + (s,) for w in level for s in syms
                 if not w or w[-1] != (s[0], -s[1])]
        for word in level:
            if not budget:
                raise SearchExhausted("word budget exhausted")
            budget -= 1
            yield word


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

    def __post_init__(self):
        # comparisons with NaN are false, so NaN fails each of them
        if not (0 <= self.delta < math.inf and 0 < self.eps0 < math.inf
                and self.N_max >= 1):
            raise InputError("need finite delta >= 0, finite eps0 > 0 "
                             "and N_max >= 1")


def _conjugates(space, a, b, k):
    """(j, b^j a b^-j) for j = 1..k, each built when it is asked for."""
    for j in range(1, k + 1):
        yield j, space.compose(
            space.compose(isometry.isometry_power(space, b, j), a),
            isometry.isometry_power(space, b, -j))


def tits_witness(space, a, b, cfg: TitsConfig = None,
                 names=("a", "b")) -> pingpong.FreeCertificate:
    """Search for a word w and power N with a certified free pair (a^N, w).

    Large translation lengths go through axis projections, the explicit
    power threshold and exactly disjoint proof sets, a hyperbolic and a
    parabolic generator through the semigroup oracle, and the other
    pairs through an oracle-certified shortlex search.  Returned
    certificates always carry a passing word oracle.  An elliptic generator
    (torsion, or a non-discrete group) is refused, as is a delta below
    ``space.delta``, where the power threshold would prove nothing.
    """
    cfg = cfg or TitsConfig()
    stats = {"candidates": 0, "words": 0}

    pa = isometry.classify(a, space)
    pb = isometry.classify(b, space)
    if "elliptic" in (pa.kind, pb.kind):
        raise InputError("an elliptic generator means torsion or a "
                         "non-discrete group; there is no free pair to find")
    if cfg.delta < space.delta:
        raise InputError(f"delta {cfg.delta} is below the model's "
                         f"four-point constant {space.delta}")

    if isometry.elementary_profiles(space, pa, pb):
        raise ElementaryPairError("the pair generates an elementary group")
    if {pa.kind, pb.kind} == {"hyperbolic", "parabolic"}:
        return _semigroup_case(space, a, b, names, cfg, stats)
    # no generator is elliptic, so b is hyperbolic when a is
    if pa.kind == "hyperbolic" and pa.ell > cfg.eps0 / 3.0:
        return _large_ell_group(space, a, b, abs(pa.ell - pb.ell) <= TOL,
                                names, cfg, stats)
    return _small_ell(space, a, b, names, cfg, stats)


def _large_ell_group(space, a, b, same_ell, names, cfg, stats):
    """Try b itself when it translates like a, then the conjugates
    b^j a b^-j, which always do.  A candidate sharing an axis endpoint
    with a, or one that the floats cannot hold, is passed over."""
    candidates = (
        ([(names[1], 1)] * j + [(names[0], 1)] + [(names[1], -1)] * j, bj)
        for j, bj in _conjugates(space, a, b, CONJUGATE_BOUND))
    if same_ell:
        candidates = itertools.chain([([(names[1], 1)], b)], candidates)
    last_err = None
    for word, g in candidates:
        stats["candidates"] += 1
        try:
            data = pingpong.min_free_power(space, a, g, cfg.delta)
            cert = pingpong.pingpong_certify(
                space, data, oracle_depth=cfg.oracle_depth)
            if cert.valid:
                return replace(
                    cert, case="large_ell_group",
                    witness_word=word_to_text(word), search_stats=stats)
        except (DomainError, PreconditionError) as e:
            last_err = e
    raise SearchExhausted(f"no certified conjugate witness ({last_err})")


def _small_ell(space, a, b, names, cfg, stats):
    """The first shortlex word w among the first 4^min(N_max, 9), not a
    power of a, for which the group oracle finds no relation between a
    and w."""
    letters = pingpong.group_letters(space, [(names[0], a), (names[1], b)])
    for word, g in itertools.islice(pingpong.walk_words(
            space, letters, cfg.N_max), 4 ** min(cfg.N_max, 9)):
        stats["words"] += 1
        if all(name == names[0] for name, _ in word):
            continue  # powers of a never make a free pair with a
        passed, _ = pingpong.word_oracle(
            space, [(names[0], a), ("w", g)], cfg.oracle_depth, "group")
        if passed:
            return pingpong.FreeCertificate(
                case="small_ell", N=1, witness_word=word_to_text(word),
                kind="group", oracle_depth=cfg.oracle_depth,
                oracle_passed=True, search_stats=stats)
    raise SearchExhausted("no oracle-certified witness within the word budget")


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
            return pingpong.FreeCertificate(
                case="large_ell_semigroup", N=N,
                witness_word=word_to_text([(names[1], 1)] * N),
                kind="semigroup", oracle_depth=cfg.oracle_depth,
                oracle_passed=True, search_stats=stats)
        last = counter
    raise SearchExhausted(
        f"semigroup oracle kept finding coincidences (last: {last})")
