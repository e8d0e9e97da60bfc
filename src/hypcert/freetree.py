"""Cayley trees of free groups: reduced-word arithmetic, geodesics, ends, lines.

Group elements and tree vertices are freely reduced words over
a..z (generators) and A..Z (their inverses); the empty string is the
identity vertex.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import InputError
from .isometry import IsometryProfile
from .sampled import DiscreteSpace

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


def is_reduced(w: str) -> bool:
    return all(w[i] != w[i + 1].swapcase() for i in range(len(w) - 1))


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


def format_word(w: str) -> str:
    """Render a reduced word back into the a^n b^-m syntax."""
    if not w:
        return "e"
    out = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        n = j - i
        ch = w[i]
        base, exp = (ch, n) if ch.islower() else (ch.lower(), -n)
        out.append(base if exp == 1 else f"{base}^{exp}")
        i = j
    return "".join(out)


def common_prefix(u: str, v: str) -> str:
    n = min(len(u), len(v))
    i = 0
    while i < n and u[i] == v[i]:
        i += 1
    return u[:i]


def mul(u: str, v: str) -> str:
    return reduce_word(u + v)


def word_dist(u: str, v: str) -> int:
    return len(mul(invert(u), v))


def median(u: str, v: str, w: str) -> str:
    """The tree median: the unique common point of the three geodesics."""
    p = common_prefix(mul(invert(u), v), mul(invert(u), w))
    return mul(u, p)


def geodesic_path(u: str, v: str) -> list:
    """All vertices on [u, v], endpoints included, in order."""
    p = common_prefix(u, v)
    down = [u[:k] for k in range(len(u), len(p), -1)]
    up = [v[:k] for k in range(len(p), len(v) + 1)]
    return down + up


def cyclic_reduce(w: str) -> tuple:
    """Returns (conjugator c, core u) with w = c u c^-1 and u cyclically reduced."""
    w = reduce_word(w)
    c = []
    while len(w) >= 2 and w[0] == w[-1].swapcase():
        c.append(w[0])
        w = w[1:-1]
    return "".join(c), w


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
    equality of ends is string equality.
    """

    prefix: str
    period: str

    def __post_init__(self):
        if not self.period:
            raise InputError("empty period")
        p, q = self.prefix, primitive_root(self.period)
        while p and p[-1] == q[-1]:
            p = p[:-1]
            q = q[-1] + q[:-1]
        if not is_reduced(p + q + q):
            raise InputError(f"non-reduced ray {p!r}.{q!r}")
        object.__setattr__(self, "prefix", p)
        object.__setattr__(self, "period", q)

    def ray_word(self, length: int) -> str:
        reps = -(-max(0, length - len(self.prefix)) // len(self.period)) + 1
        return (self.prefix + self.period * reps)[:length]

    def translate(self, g: str) -> "TreeEnd":
        # g may cancel through the prefix into the periodic part; absorb
        # periods until the junction is reduced (g is finite, so this stops)
        p, q = reduce_word(g + self.prefix), self.period
        while not is_reduced(p + q):
            p = reduce_word(p + q)
        return TreeEnd(p, q)


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

    def boundary(self) -> tuple:
        return tuple(self)

    def reversed(self) -> "TreeLine":
        return TreeLine(self[1], self[0])

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

    project_boundary = project

    def point_along(self, base: str, T: float) -> str:
        """The vertex at signed distance round(T) from a vertex of the line."""
        steps = int(round(abs(T)))
        target = self[1] if T >= 0 else self[0]
        deep = target.ray_word(len(base) + steps + _depth(target))
        path = geodesic_path(base, deep)
        return path[min(steps, len(path) - 1)]

    def at(self, t: float) -> str:
        """Arclength parametrization, from the attracting end's junction."""
        return self.point_along(self[1].prefix, t)

    def order_key(self, p: str) -> int:
        """Position of a vertex of the line: its distance from a vertex far
        toward the first end."""
        return word_dist(self[0].ray_word(len(p) + _depth(*self)), p)


def axis_ends(w: str) -> TreeLine:
    """The axis of a hyperbolic element, from its repelling to its
    attracting end."""
    c, u = cyclic_reduce(w)
    if not u:
        raise InputError("elliptic word has no axis")
    return TreeLine(TreeEnd(c, invert(u)), TreeEnd(c, u))


class FreeTreeSpace(DiscreteSpace):
    """The Cayley tree of the free group of the given rank; its vertices
    and isometries are both reduced words."""

    def __init__(self, rank: int = 2):
        if not 2 <= rank <= 26:
            raise InputError("rank must be between 2 and 26")
        self.rank = rank
        self.letters = [chr(ord("a") + i) for i in range(rank)]
        self.alphabet = set("".join(self.letters) + "".join(self.letters).upper())

    def check_point(self, w: str) -> str:
        if not isinstance(w, str) or not set(w) <= self.alphabet:
            raise InputError(f"not a word over rank-{self.rank} alphabet: {w!r}")
        if not is_reduced(w):
            raise InputError(f"word not freely reduced: {w!r}")
        return w

    def dist(self, u: str, v: str) -> int:
        return word_dist(self.check_point(u), self.check_point(v))

    def parse_point(self, text: str) -> str:
        """A word in generator syntax, or "e" for the identity."""
        return parse_word(text) if text != "e" else ""

    def ball(self, center: str, R: int) -> list:
        """All vertices within distance R of center, BFS order."""
        center = self.check_point(center)
        shells = [[""]]
        for _ in range(int(R)):
            shells.append(sorted(
                w + ch
                for w in shells[-1]
                for ch in self.alphabet
                if not w or ch != w[-1].swapcase()
            ))
        return [mul(center, w) for shell in shells for w in shell]

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
        return sum(self.sphere_sizes(int(R)))

    def candidates(self, pts) -> list:
        """The vertices of the geodesics between the points."""
        out = set()
        for p in pts:
            for q in pts:
                out.update(geodesic_path(p, q))
        return sorted(out)

    def point_on_geodesic(self, p: str, q: str, t: float) -> str:
        t = min(max(t, 0.0), self.dist(p, q))
        path = geodesic_path(p, q)
        return path[min(int(round(t)), len(path) - 1)]

    def act(self, g: str, x: str) -> str:
        return mul(self.check_point(g), self.check_point(x))

    def compose(self, g: str, h: str) -> str:
        return reduce_word(g + h)

    def power(self, g: str, n: int) -> str:
        base = g if n >= 0 else invert(g)
        return reduce_word(base * abs(n))

    def is_identity(self, g: str) -> bool:
        return g == ""

    def classify(self, g: str) -> IsometryProfile:
        """Elliptic for the identity, else hyperbolic with the cyclically
        reduced length as translation length."""
        w = reduce_word(g)
        if not w:
            return IsometryProfile("elliptic", 0.0, 0.0, fixed_point="")
        _, core = cyclic_reduce(w)
        ends = axis_ends(w)
        return IsometryProfile("hyperbolic", float(len(core)), float(len(core)),
                               axis=ends, fixed_boundary=ends)
