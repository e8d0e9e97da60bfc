"""Stallings graphs: a finitely generated subgroup of a free group read
off a finite graph, and the orbits of the subgroup on the free group's
Cayley tree counted and measured from it, exactly.

See J. R. Stallings, "Topology of finite graphs", Invent. Math. 71
(1983), and I. Kapovich & A. Myasnikov, "Stallings foldings and
subgroups of free groups", J. Algebra 248 (2002).
"""

from __future__ import annotations

import itertools
import math
import sys

from . import TOL, pingpong
from .errors import BudgetError, InputError


class Stallings:
    """The Stallings graph of the subgroup H that reduced words generate:
    one loop per word at the base vertex 0, folded until no vertex has
    two darts with one label (J. R. Stallings, "Topology of finite
    graphs", Invent. Math. 71 (1983)).  ``out[v]`` maps the label of each
    dart from v to its end, and the words of H are the labels of the
    reduced closed walks at 0.  Reading a word x from 0 stops at a vertex
    v with a suffix s unread, and H moves x by 2|s| + |l| for the loops
    l at v, the reduced closed walks there, none of which cancels with s:
    the elements s^-1 l s of x^-1 H x."""

    note = ("sys values are exact, read off the Stallings graph; dias, "
            "their sample maximum, under-estimates the true supremum")

    def __init__(self, words):
        out, alias, todo = [{}], [0], []
        for w in words:
            path = [0, *range(len(out), len(out) + len(w) - 1), 0]
            out += [{} for _ in w[1:]]
            alias += path[1:-1]
            todo += zip(path, w, path[1:])
        while todo:   # add each edge; where a label repeats, fold
            v, ch, u = todo.pop()
            while alias[v] != v:
                v = alias[v]
            while alias[u] != u:
                u = alias[u]
            t, s = out[v].get(ch), out[u].get(ch.swapcase())
            if t is None and s is None:
                out[v][ch], out[u][ch.swapcase()] = u, v
            elif t != u:   # merge into the lower vertex, so 0 stays 0
                keep, drop = sorted((t, u) if t is not None else (s, v))
                alias[drop], darts, out[drop] = keep, out[drop], {}
                for c, z in darts.items():
                    out[z].pop(c.swapcase(), None)
                todo += [(v, ch, u)] + [(drop, c, z) for c, z in darts.items()]
        ids = {v: i for i, v in enumerate(
            v for v in range(len(out)) if alias[v] == v)}
        self.out = [{c: ids[z] for c, z in out[v].items()} for v in ids]
        self.rank = sum(map(len, self.out)) // 2 - len(self.out) + 1

    def _read(self, x):
        """(v, |s|): reading x from 0 stops at v with a suffix s unread."""
        v = 0
        for i, ch in enumerate(x):
            if ch not in self.out[v]:
                return v, len(x) - i
            v = self.out[v][ch]
        return v, 0

    def _loops(self, v):
        """The numbers of loops at v of length 1, 2, ...: the walks from v
        are counted by their last dart, (u, label)."""
        out, n = self.out, {(v, c): 1 for c in self.out[v]}
        while True:
            into = [0] * len(out)
            for (u, c), k in n.items():
                into[out[u][c]] += k
            yield into[v]
            n = {(w, c): into[w] - n.get((z, c.swapcase()), 0)
                 for w, darts in enumerate(out) for c, z in darts.items()}

    def _shortest_loop(self, v) -> str:
        """The word of a shortest loop at v, by a search over darts."""
        out, seen, level = self.out, set(), {(v, c): c for c in self.out[v]}
        while level:
            for (u, c), w in level.items():
                if out[u][c] == v:
                    return w
            seen |= level.keys()
            level = {(z, d): w + d for (u, c), w in level.items()
                     for z in [out[u][c]] for d in out[z]
                     if d != c.swapcase() and (z, d) not in seen}
        return ""

    def counts(self, x, radii) -> list:
        """(R, |Hx ∩ B(x, R)|) for each radius: x, and a point for each
        loop at v of length at most R - 2|s|, counted over at most
        WORD_BUDGET dart steps, while the counts have the digits that
        Python prints."""
        v, s = self._read(x)
        top = [math.floor(R + TOL) - 2 * s for R in radii]
        steps = max([0, *top])
        if steps * max(1, sum(map(len, self.out))) > pingpong.WORD_BUDGET:
            raise BudgetError("word budget exhausted")
        digits, total = sys.get_int_max_str_digits(), [1]
        printable = 10 ** digits if digits else math.inf
        for n in itertools.islice(self._loops(v), steps):
            total.append(total[-1] + n)
            if total[-1] >= printable:
                raise InputError(
                    f"more than 10^{digits} orbit points lie within "
                    f"{2 * s + len(total) - 1} of the base: past the "
                    "integers a report prints")
        return [(float(R), total[max(t, 0)] if R + TOL >= 0 else 0)
                for R, t in zip(radii, top)]

    def displacement_stats(self, sample, radii_grid):
        """(sys, sys_free, nilrad) at each point x, exact.  Every element
        has infinite order, and sys is 2|s| plus a shortest loop l at v.
        Elements commute exactly when they share an axis, so a pair of
        elements moving x by at most t fails to be elementary from the
        first t at which the loops outnumber the powers of l, two of each
        length 2|c| + n|u| for l = c u c^-1; with H cyclic, none does."""
        if not self.rank:
            raise InputError("the generators make the trivial group")
        at = {}
        for x in sample:
            v, s = self._read(x)
            if v not in at:
                loop = self._shortest_loop(v)
                a = 2 * next(k for k, ch in enumerate(loop)
                             if ch != loop[-1 - k].swapcase())
                at[v] = len(loop), math.inf if self.rank == 1 else next(
                    k for k, n in enumerate(self._loops(v), 1)
                    if n > 2 * (k > a and (k - a) % (len(loop) - a) == 0))
            short, apart = at[v]
            yield 2 * s + short, 2 * s + short, max(
                (r for r in radii_grid if r < 2 * s + apart), default=0.0)
