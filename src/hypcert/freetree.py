"""Cayley trees of free groups: reduced-word arithmetic, medians, ends, lines.

Group elements and tree vertices are freely reduced words over
a..z (generators) and A..Z (their inverses); the empty string is the
identity vertex.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .isometry import IsometryProfile
from .stallings import Stallings

_WORD_TOKEN = re.compile(r"\s*([a-zA-Z])(?:\^(-?\d+))?")


def reduce_word(w: str) -> str:
    out = []
    for ch in w:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def invert(w: str) -> str:
    return w[::-1].swapcase()


def parse_word(text: str) -> str:
    """Parse generator syntax like "ab^-1" or "a^3 b^-2" to a reduced word."""
    pos = 0
    out = []
    while pos < len(text):
        m = _WORD_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"bad word syntax at {text[pos:]!r}")
            break
        letter, exp = m.group(1), int(m.group(2) or 1)
        if exp < 0:
            letter, exp = letter.swapcase(), -exp
        out.append(letter * exp)
        pos = m.end()
    return reduce_word("".join(out))


def common_prefix(u: str, v: str) -> str:
    n = min(len(u), len(v))
    i = 0
    while i < n and u[i] == v[i]:
        i += 1
    return u[:i]


def _seam_mul(u: str, v: str) -> str:
    """The product of two reduced words: only letters where u ends and v
    begins can cancel, so nothing else is scanned."""
    if not (u and v) or u[-1] != v[0].swapcase():
        return u + v
    k, n = 1, min(len(u), len(v))
    while k < n and u[-1 - k] == v[k].swapcase():
        k += 1
    return u[:len(u) - k] + v[k:]


def _lcp(X, Y):
    """Common prefix lengths of the words in the rows of two letter
    arrays, broadcast against each other, over their common columns."""
    k = np.zeros(np.broadcast_shapes(X.shape[:-1], Y.shape[:-1]), dtype=np.intp)
    live = np.ones(k.shape, dtype=bool)
    for j in range(min(X.shape[-1], Y.shape[-1])):
        live &= (X[..., j] == Y[..., j]) & (X[..., j] != 0)
        k += live
    return k


def median(u: str, v: str, w: str) -> str:
    """The tree median of three reduced words, the unique common point of
    the three geodesics: the longest of their pairwise common prefixes."""
    return max(common_prefix(u, v), common_prefix(u, w), common_prefix(v, w),
               key=len)


def _conjugator_length(w: str) -> int:
    """len(c) for a reduced word w = c u c^-1 with u cyclically reduced."""
    k = 0
    while len(w) - 2 * k >= 2 and w[k] == w[-1 - k].swapcase():
        k += 1
    return k


def cyclic_reduce(w: str) -> tuple:
    """(conjugator c, core u) with w = c u c^-1 and u cyclically reduced,
    for a reduced word w."""
    k = _conjugator_length(w)
    return w[:k], w[k:len(w) - k]


def primitive_root(u: str) -> str:
    """Shortest v with u = v^k (cyclic words are handled by the caller)."""
    n = len(u)
    for d in range(1, n + 1):
        if n % d == 0 and u == u[:d] * (n // d):
            return u[:d]
    return u


@dataclass(frozen=True)
class TreeEnd:
    """End of the tree: the eventually periodic ray prefix . period^infinity.

    Canonical form: primitive period, and the shortest prefix (trailing
    letters shared with the period end are absorbed by rotating it), so
    equality of ends is string equality.  The ray must be reduced and
    the period non-empty, as in the axis ends ``classify`` builds from
    ``cyclic_reduce``.
    """

    prefix: str
    period: str

    def __post_init__(self):
        p, q = self.prefix, primitive_root(self.period)
        while p and p[-1] == q[-1]:
            p = p[:-1]
            q = q[-1] + q[:-1]
        object.__setattr__(self, "prefix", p)
        object.__setattr__(self, "period", q)

    def ray_word(self, length: int) -> str:
        reps = -(-max(0, length - len(self.prefix)) // len(self.period)) + 1
        return (self.prefix + self.period * reps)[:length]


def _depth(*ends) -> int:
    """A word length that reaches past the junctions of the given ends."""
    return 8 + sum(len(e.prefix) + 2 * len(e.period) for e in ends)


class TreeLine(tuple):
    """Bi-infinite line of the tree, oriented from end ``self[0]`` to end
    ``self[1]``.  It is the pair of its ends, so it unpacks, compares and
    serializes as that pair."""

    __slots__ = ()

    def __new__(cls, neg: TreeEnd, pos: TreeEnd):
        return super().__new__(cls, (neg, pos))

    def project(self, x) -> str:
        """Nearest vertex of the line to a vertex, or the limit of those
        along a ray into an end."""
        em, ep = self
        if em == ep:
            raise InputError("coincident line endpoints")
        if isinstance(x, TreeEnd):
            if x == em or x == ep:
                raise InputError("boundary point is an endpoint of the line")
            depth = _depth(em, ep, x)
            return median(em.ray_word(depth), ep.ray_word(depth),
                          x.ray_word(depth))
        depth = _depth(em, ep) + len(x)
        return median(em.ray_word(depth), ep.ray_word(depth), x)

    def order_key(self, p: str) -> int:
        """Position of a vertex of the line: its distance from a vertex far
        toward the first end."""
        far = self[0].ray_word(len(p) + _depth(*self))
        return len(_seam_mul(invert(far), p))


def _whole_radius(R) -> int:
    """The whole part of a finite radius: a tree ball holds the vertices
    at whole distances up to it."""
    if not 0 <= R < math.inf:
        raise InputError(f"radius must be finite and >= 0, got {R}")
    return int(R)


class FreeTreeSpace:
    """The Cayley tree of the free group of the given rank; its vertices
    and isometries are both reduced words.  A word is checked once, where
    it enters (``parse_point``, ``ball`` centres, ``dist_table``); ``act``,
    ``dist``, ``compose`` and ``power`` take them as they are.  A batch
    of words is a letter batch: the words' ASCII bytes as zero-padded
    uint8 rows, and their lengths."""

    delta = 0.0   # the four-point constant: a tree is 0-hyperbolic

    def __init__(self, rank: int = 2):
        if not 2 <= rank <= 26:
            raise InputError("rank must be between 2 and 26")
        self.rank = rank
        self.letters = [chr(ord("a") + i) for i in range(rank)]
        self.alphabet = set("".join(self.letters) + "".join(self.letters).upper())
        # a reduced word: letters of the alphabet, none before its inverse
        self._reduced_word = re.compile("(?:%s)*" % "|".join(
            f"{ch}(?!{ch.swapcase()})" for ch in sorted(self.alphabet))).fullmatch

    def check_point(self, w: str) -> str:
        if isinstance(w, str) and self._reduced_word(w):
            return w
        if not isinstance(w, str) or not set(w) <= self.alphabet:
            raise InputError(f"not a word over rank-{self.rank} alphabet: {w!r}")
        raise InputError(f"word not freely reduced: {w!r}")

    def dist(self, u: str, v: str) -> int:
        return len(_seam_mul(invert(u), v))

    def dist_table(self, xs, ys) -> np.ndarray:
        """``dist`` over xs by ys, as ints, from common prefixes: d(u, v)
        = |u| + |v| - 2 lcp(u, v).  Each word is checked once."""
        (X, m), (Y, n) = (self.batch([self.check_point(w) for w in ws])
                          for ws in (xs, ys))
        return m[:, None] + n - 2 * _lcp(X[:, None], Y)

    def nearest_dist(self, xs, ys) -> np.ndarray:
        """``dist_table(xs, ys).min(axis=1)``."""
        return self.dist_table(xs, ys).min(axis=1)

    def displacement_table(self, xs, levels) -> np.ndarray:
        """d(x, g x) for each point x of xs, a row each, and each element
        g of the letter batches in levels, in order."""
        gs = [g for E in levels for g in self.unbatch(E)]
        return np.array([[self.dist(x, _seam_mul(g, x)) for g in gs]
                         for x in xs], dtype=int).reshape(len(xs), len(gs))

    def power_scan(self, g: str, xs, power_cap: int, eps) -> np.ndarray:
        """The least d(x, g^i x) over 0 < i <= power_cap for each point x
        of xs: the first power's, since d(x, g^i x) = i |u| + 2 d(x, axis)
        grows with i for g = c u c^-1 with u not empty, and the identity
        moves no point."""
        return self.displacement_table(xs, [self.batch([g])])[:, 0]

    def orbit(self, generators, word_cap=None) -> "Stallings":
        """The orbit of the group of the (name, word) generators, exact:
        the tree reads it off its Stallings graph, at any word cap."""
        return Stallings([g for _, g in generators])

    def parse_point(self, text: str) -> str:
        """A word in generator syntax, or "e" for the identity."""
        return self.check_point(parse_word(text)) if text != "e" else ""

    def ball(self, center: str, R: int) -> list:
        """All vertices within distance R of center, BFS order."""
        center = self.check_point(center)
        shells = [[""]]
        for _ in range(_whole_radius(R)):
            shells.append(sorted(
                w + ch
                for w in shells[-1]
                for ch in self.alphabet
                if not w or ch != w[-1].swapcase()
            ))
        return [_seam_mul(center, w) for shell in shells for w in shell]

    def sample_ball(self, center: str, R, n: int, rng) -> list:
        """The whole ball when it has at most n points, else n seeded
        picks of its BFS order that keep the center, drawn as indices and
        each unranked into its word without building the ball."""
        if n < 1:
            raise InputError("need n >= 1")
        center = self.check_point(center)
        sizes = self.sphere_sizes(_whole_radius(R))
        size = sum(sizes)
        if size <= n:
            return self.ball(center, R)
        if size > sys.maxsize:
            raise InputError(f"radius {R}: a ball of {size} points is past "
                             "what a draw can index")
        # ball("", R) lists shells by length, each sorted: in a shell, a
        # word is a block of (k - 1)^(L - 1) words per first letter, for k
        # letters, then of (k - 1)^(L - 2) per next letter, and so on
        letters = sorted(self.alphabet)
        after = {"": letters, **{ch: [c for c in letters if c != ch.swapcase()]
                                 for ch in letters}}
        out = []
        for i in sorted(rng.sample(range(size), n)):
            length = 0
            while i >= sizes[length]:
                i -= sizes[length]
                length += 1
            w = ""
            for left in range(length - 1, -1, -1):
                q, i = divmod(i, (len(letters) - 1) ** left)
                w += after[w[-1:]][q]
            out.append(_seam_mul(center, w))
        if center not in out:
            out[0] = center
        return out

    def sphere_sizes(self, R: int) -> list:
        """Vertex counts of the spheres S(e, 0..R)."""
        k = 2 * self.rank
        sizes = [1]
        if R >= 1:
            sizes.append(k)
        for _ in range(2, R + 1):
            sizes.append(sizes[-1] * (k - 1))
        return sizes[: R + 1]

    def ball_size(self, center: str, R) -> int:
        """Closed form; the tree looks the same from every vertex."""
        return sum(self.sphere_sizes(_whole_radius(R)))

    def act(self, g: str, x: str) -> str:
        return _seam_mul(g, x)

    def batch(self, gs) -> tuple:
        """The letter batch of a list of words."""
        n = np.fromiter(map(len, gs), dtype=np.intp, count=len(gs))
        A = np.zeros((len(gs), max(1, n.max(initial=0))), dtype=np.uint8)
        A[np.arange(A.shape[1]) < n[:, None]] = np.frombuffer(
            "".join(gs).encode(), dtype=np.uint8)
        return A, n

    def unbatch(self, E) -> list:
        """The words of a letter batch."""
        return [w.decode() for w in
                E[0].view(f"S{E[0].shape[1]}")[:, 0].tolist()]

    def compose(self, g: str, h: str) -> str:
        """g h for reduced words g and h."""
        return _seam_mul(g, h)

    def power(self, g: str, n: int) -> str:
        """g^n for a reduced word g: with g (or g^-1 for n < 0) written
        c u c^-1, u cyclically reduced, the copies of u do not cancel."""
        if n == 0:
            return ""
        w = g if n > 0 else invert(g)
        k = _conjugator_length(w)
        return w[:k] + w[k:len(w) - k] * abs(n) + w[len(w) - k:]

    def boundary_eq(self, u: TreeEnd, v: TreeEnd) -> bool:
        return u == v

    def commute(self, g: str, h: str) -> bool:
        """Whether g h = h g.  Two words that do not commute are a free
        basis of the group they generate (Nielsen-Schreier and Hopf)."""
        return _seam_mul(g, h) == _seam_mul(h, g)

    def meeting_sides(self, sides) -> list:
        """The name pairs, in order, of the (name, centre, anchor) sides
        whose sets {z : d(z, centre) <= d(z, anchor)} meet.  For m the
        vertex of [c, p] at floor(d(c, p) / 2) from c and m' the next, a
        set is the side of the edge (m, m') that holds m, or the tree when
        c = p; two are disjoint exactly when neither holds the other's m."""
        edges, d = [], self.dist
        for name, c, p in sides:
            w = _seam_mul(invert(c), p)
            k = len(w) // 2
            edges.append((name, _seam_mul(c, w[:k]), _seam_mul(c, w[:k + 1])))
        return [(n1, n2) for (n1, m1, e1), (n2, m2, e2)
                in itertools.combinations(edges, 2)
                if m1 == e1 or m2 == e2 or d(m2, m1) < d(m2, e1)
                or d(m1, m2) < d(m1, e2)]

    def classify(self, g: str) -> IsometryProfile:
        """Elliptic for the identity, else hyperbolic with the cyclically
        reduced length as translation length."""
        c, core = cyclic_reduce(g)
        if not core:
            return IsometryProfile("elliptic", 0.0)
        ends = TreeLine(TreeEnd(c, invert(core)), TreeEnd(c, core))
        return IsometryProfile("hyperbolic", float(len(core)), axis=ends,
                               fixed_boundary=ends)
