"""Free-group and free-semigroup certification: axis endpoint
projections, explicit power thresholds, ping-pong set disjointness, and
the shortlex walk over reduced words that the independent word oracle
runs on."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import TOL, isometry
from .errors import (BudgetError, DomainError, ElementaryPairError,
                     InputError, PreconditionError)

# words one walk may visit, and the largest power N that certify builds;
# read at each call, so tests can lower it
WORD_BUDGET = 10 ** 6


@dataclass(frozen=True)
class PingPongData:
    """The ping-pong record of two hyperbolic generators a, b at power
    N: b in the record's orientation (its inverse when swapped), the
    spread M0 = d(x-, x+), the projections x-, x+ of b's axis ends on
    a's axis and their projections y-, y+ back on b's axis."""
    a: object
    b: object
    N: int
    M0: float
    swapped: bool
    x_minus: object
    x_plus: object
    y_minus: object
    y_plus: object


def min_free_power(space, a, b, delta: float) -> PingPongData:
    """The pair's ping-pong record at the smallest certified power,
    N = ceil((M0 + 77 delta) / ell).

    Both isometries must be hyperbolic with the same translation length
    (arrange this by conjugation before calling) and non-elementary.
    If the projection of b's forward end trails the backward one along
    a's axis, b is replaced by its inverse and the record is swapped.
    """
    pa, pb = isometry.classify(a, space), isometry.classify(b, space)
    if pa.kind != "hyperbolic" or pb.kind != "hyperbolic":
        raise DomainError("both isometries must be hyperbolic")
    if abs(pa.ell - pb.ell) > TOL:
        raise PreconditionError(
            f"translation lengths differ: {pa.ell} vs {pb.ell}; "
            "conjugate one generator first")
    if isometry.elementary_profiles(space, pa, pb):
        raise ElementaryPairError("the axes share a boundary endpoint")
    alpha, beta = pa.axis, pb.axis
    xm, xp = (alpha.project(end) for end in pb.fixed_boundary)
    swapped = alpha.order_key(xp) < alpha.order_key(xm)
    if swapped:
        xm, xp = xp, xm
        b = isometry.isometry_power(space, b, -1)
    M0 = float(space.dist(xm, xp))
    threshold = (M0 + 77.0 * delta) / pa.ell
    # refused before any power is built: a tree's a^N is N letters long
    if not threshold <= WORD_BUDGET:
        raise InputError(f"delta {delta}: the power threshold N = "
                         f"(M0 + 77 delta) / ell = {threshold:.6g} is above "
                         f"the word budget {WORD_BUDGET}")
    # a projection onto a line does not depend on its orientation
    return PingPongData(a, b, max(1, math.ceil(threshold - TOL)), M0, swapped,
                        xm, xp, beta.project(xm), beta.project(xp))


def pingpong_data(space, a, b, N: int, delta: float) -> PingPongData:
    """The ping-pong record at power N, which must reach the certified
    threshold."""
    data = min_free_power(space, a, b, delta)
    if N < data.N:
        raise PreconditionError(f"N = {N} below certified threshold {data.N}")
    return replace(data, N=N)


def proof_set_membership(space, data: PingPongData, z):
    """Which of the four attracting/repelling sets contain z.

    A+ holds the points closer to a^N x- than to x+, and so on.
    """
    d = space.dist
    return [name for name, centre, anchor
            in _proof_sides(space, data, _powers(space, data))
            if d(z, centre) <= d(z, anchor)]


def _powers(space, data: PingPongData):
    """a^N, a^-N, b^N and b^-N of the record's generators.  Each
    negative power is taken as such, not as the inverse of the positive
    one, whose floats would differ."""
    return [isometry.isometry_power(space, g, n)
            for g in (data.a, data.b) for n in (data.N, -data.N)]


def _proof_sides(space, data: PingPongData, powers):
    """(name, centre, anchor) of the four proof sets: A+ holds the points
    at least as close to a^N x- as to x+, and so on."""
    aN, a_N, bN, b_N = powers
    return list(zip(("A+", "A-", "B+", "B-"), [
        isometry.apply_isometry(space, g, x) for g, x in (
            (aN, data.x_minus), (a_N, data.x_plus),
            (bN, data.y_minus), (b_N, data.y_plus))],
        (data.x_plus, data.x_minus, data.y_plus, data.y_minus)))


@dataclass
class FreeCertificate:
    """A free pair (a^N, w) and what certifies it.  The fields but
    ``violations``, in declaration order, are the certify report."""
    case: str = None  # small_ell | large_ell_group | large_ell_semigroup
    N: int = None
    witness_word: str = None
    kind: str = None  # group | semigroup
    valid: bool = field(init=False)
    M0: float = None
    swapped: bool = False
    disjoint_ok: bool = None
    oracle_depth: int = 0
    oracle_passed: bool = False
    search_stats: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    def __post_init__(self):
        self.valid = bool(self.disjoint_ok is not False and self.oracle_passed)


def pingpong_certify(space, data: PingPongData,
                     oracle_depth: int = 8) -> FreeCertificate:
    """Certify that the record's a^N and b^N generate a free group.

    Both legs must pass for ``valid``: the model's meeting_sides finds
    the four sets pairwise disjoint for every point (``violations`` names
    the pairs that meet), and the word oracle finds no relation up to
    the given depth.  Nesting holds by the sets' definition, but the
    centres are float images: the leg decides the float-built sets.
    The caller fills in the case, the witness word and the search stats.
    """
    powers = _powers(space, data)
    aN, _, bN, _ = powers
    try:
        violations = space.meeting_sides(_proof_sides(space, data, powers))
    except InputError as e:
        # the centres are images under powers the program built, so a
        # point the model refuses is lost to rounding, not given
        raise DomainError(f"a proof-set centre is lost to rounding ({e})") \
            from None
    passed, _ = word_oracle(space, [("a", aN), ("b", bN)], oracle_depth,
                            "group")
    return FreeCertificate(
        kind="group", N=data.N, M0=data.M0, swapped=data.swapped,
        disjoint_ok=not violations, violations=violations,
        oracle_depth=oracle_depth, oracle_passed=passed)


def _compose(space, g, h):
    return space.compose(g, h)


def group_letters(space, gens):
    """Walk letters of the group generated by (name, isometry) pairs:
    each generator followed by its inverse, computed once."""
    return [letter for name, g in gens
            for letter in (((name, 1), g),
                           ((name, -1), isometry.isometry_power(space, g, -1)))]


def _inverses(letters):
    """Each letter's inverse's position (-1 for none), and the number of
    letters that may follow a word: k - 1 of k that hold their inverses."""
    position = {sym: j for j, (sym, _) in enumerate(letters)}
    inverse = np.array([position.get((name, -sign), -1)
                        for (name, sign), _ in letters], dtype=np.intp)
    paired = np.count_nonzero(inverse >= 0)
    if 0 < paired < len(inverse):
        raise InputError("walk letters hold every inverse or none")
    return inverse, len(inverse) - (paired > 0)


def walk_levels(space, letters, max_len: int):
    """Each level of the shortlex walk over freely reduced words of
    length 1..max_len: its words' elements, as the model's batch, and
    their last letters' positions in ``letters``, which are ((name,
    sign), element) pairs in walk order, one name per generator.

    A word's children append each letter but its last one's inverse, in
    order, so word i of a level past the first extends word i // c of
    the one before, for c letters that may follow a word.  The model
    composes each child's parent with its letter, a level at a time.
    The levels hold the first WORD_BUDGET words, as it is at the call;
    asking for more raises BudgetError."""
    if max_len < 1:
        raise InputError("max_len must be >= 1")
    inverse, c = _inverses(letters)
    gs = [g for _, g in letters]
    L = space.batch(gs)
    ix = np.arange(len(letters), dtype=np.min_scalar_type(len(letters)))
    budget, count, E, last = WORD_BUDGET, 0, None, None
    for _ in range(max_len):
        size = len(inverse) if last is None else len(last) * c
        take = min(size, budget - count)
        if not size:
            return
        if not take:
            raise BudgetError("word budget exhausted")
        if last is None:
            E, last = space.batch(gs[:take]), ix[:take]
        else:
            last = _child_letters(last[:-(-take // c)], inverse, ix)[:take]
            E = space.compose_level(E, np.arange(take) // c, L, last)
        count += take
        yield E, last
        if take < size:
            raise BudgetError("word budget exhausted")


def _child_letters(last, inverse, ix):
    """The last letters of the children of words whose last letters are
    ``last``, in walk order: each letter but the inverse of the parent's."""
    keep = np.ones((len(last), len(inverse)), dtype=bool)
    inv = inverse[last]
    keep[np.flatnonzero(inv >= 0), inv[inv >= 0]] = False
    return np.broadcast_to(ix, keep.shape)[keep]


def walk_words(space, letters, max_len: int):
    """The (word, element) pairs of walk_levels one at a time, a word
    being a tuple of (name, sign) letters."""
    _, c = _inverses(letters)
    syms = [sym for sym, _ in letters]
    words = None
    for E, last in walk_levels(space, letters, max_len):
        words = [(words[i // c] if words else ()) + (syms[j],)
                 for i, j in enumerate(last.tolist())]
        yield from zip(words, space.unbatch(E))


def has_finite_order(space, g, k: int) -> bool:
    """Whether g^j is the identity for some 1 <= j <= k, with g^j =
    compose(g^(j-1), g): the elements, checks and budget of the walk
    over the one letter g."""
    if k < 1:
        raise InputError("max_len must be >= 1")
    h = g
    for j in range(k):
        if j >= WORD_BUDGET:
            raise BudgetError("word budget exhausted")
        if j:
            h = _compose(space, h, g)
        if space.is_identity(h):
            return True
    return False


def word_to_text(word) -> str:
    """A (name, sign) word as text, with runs of one letter as powers:
    a a b^-1 reads "a^2 b^-1"."""
    runs = []
    for name, sign in word:
        if runs and runs[-1][0] == name and (runs[-1][1] < 0) == (sign < 0):
            runs[-1][1] += sign
        else:
            runs.append([name, sign])
    return " ".join(f"{n}" if e == 1 else f"{n}^{e}" for n, e in runs)


def word_oracle(space, gens, depth: int, kind: str = "group"):
    """Walk the reduced words in the generators up to the given depth.

    Group kind passes when no nonempty reduced word acts as the
    identity; semigroup kind passes when all positive words act as
    pairwise distinct isometries.  Sound up to the stated depth.
    Returns (passed, counterexample word or None).  The walk names each
    generator by its position, so generators that share a name are
    still told apart when letters cancel.

    The group kind decides as walk_words would, with its words, order
    and budget, but tests each level of walk_levels at once, without an
    isometry object per word.  For two elements of a model that can
    tell whether they commute, two that do not are a free basis, so no
    word is the identity and only the walk's length is checked against
    the budget.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    names = [name for name, _ in gens]

    def text(word):
        return word_to_text([(names[i], sign) for i, sign in word])

    indexed = [(i, g) for i, (_, g) in enumerate(gens)]
    if kind == "group":
        if (len(gens) == 2 and hasattr(space, "commute")
                and not space.commute(gens[0][1], gens[1][1])):
            check_walk_length(2 * len(gens), depth)
            return True, None
        word = _first_identity(space, group_letters(space, indexed), depth)
        return word is None, None if word is None else text(word)
    if kind != "semigroup":
        raise InputError(f"unknown oracle kind {kind!r}")
    seen = {}
    for word, g in walk_words(space, [((i, 1), g) for i, g in indexed],
                              depth):
        key = space.iso_key(g)
        if key in seen:
            return False, text(seen[key]) + " = " + text(word)
        seen[key] = word
    return True, None


def check_walk_length(k, depth):
    """Raise BudgetError where the walk over k group letters would pass
    WORD_BUDGET before the depth, before a word is built."""
    budget, total, level = WORD_BUDGET, 0, k
    for _ in range(depth):
        total += level
        if total > budget:
            raise BudgetError("word budget exhausted")
        level *= k - 1


def _first_identity(space, letters, depth):
    """The first word of walk_words(space, letters, depth) whose element
    is the identity, or None, rebuilt from the last letters of the
    levels of walk_levels by the parent rule i // (k - 1)."""
    lasts = []
    for E, last in walk_levels(space, letters, depth):
        lasts.append(last)
        hits = np.flatnonzero(space.is_identity_batch(E))
        if hits.size:
            i, word = hits[0], []
            for prev in reversed(lasts):
                word.append(prev[i])
                i //= len(letters) - 1
            return [letters[j][0] for j in reversed(word)]
    return None
