"""Builders and walks that only tests need: an elliptic generator,
points along the model lines of hyperbolic axes, a reference ball
sampler, the sampled four-point delta in one draw per 2^16 quadruples,
an exact word walk over integer matrices and a tree the walk runs on."""

import math

import numpy as np

from hypcert import freetree, halfplane, sampled


def rotation_about_i(theta: float) -> halfplane.Moebius:
    """Elliptic rotation by angle theta around the point i."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return halfplane.Moebius(c, -s, s, c)


class WalkedTree(freetree.FreeTreeSpace):
    """The tree with the walk and action interface that H² offers, on
    letter batches: the words' ASCII bytes as zero-padded uint8 rows, and
    their lengths.  The package's tree reads its orbits off their
    Stallings graphs and walks no words; the tests still run the walk on
    reduced words, where every element is its own word, a seam product
    and a distance per word."""

    def batch(self, gs):
        return freetree._batch(gs)

    def unbatch(self, E):
        return [w.decode() for w in
                E[0].view(f"S{E[0].shape[1]}")[:, 0].tolist()]

    def compose_level(self, E, parents, L, letters):
        ws, ls = self.unbatch(E), self.unbatch(L)
        return self.batch([freetree._seam_mul(ws[i], ls[j]) for i, j
                           in zip(parents.tolist(), letters.tolist())])

    def is_identity_batch(self, E):
        return E[1] == 0

    def identity_products(self, E, L, keep):
        parents, letters = np.nonzero(keep)
        out = np.zeros(keep.shape, dtype=bool)
        out[keep] = self.is_identity_batch(
            self.compose_level(E, parents, L, letters))
        return out

    def displacement_table(self, xs, levels):
        gs = [g for E in levels for g in self.unbatch(E)]
        return np.array([[self.dist(x, self.act(g, x)) for g in gs]
                         for x in xs], dtype=int).reshape(len(xs), len(gs))


def point_along(axis, base, T: float):
    """The point at signed distance T from a point of a model line,
    toward its second end for T >= 0: by arclength on an H² geodesic,
    and round(T) steps on a tree line, along the geodesic from the
    vertex toward a word deep in the end."""
    if isinstance(axis, halfplane.HGeodesic):
        return axis.at(axis.param(base) + T)
    steps = int(round(abs(T)))
    end = axis[1] if T >= 0 else axis[0]
    deep = end.ray_word(len(base) + steps + freetree._depth(end))
    # the geodesic [base, deep] runs back to their common prefix, then on
    k = len(freetree.common_prefix(base, deep))
    path = ([base[:j] for j in range(len(base), k, -1)]
            + [deep[:j] for j in range(k, len(deep) + 1)])
    return path[min(steps, len(path) - 1)]


def sample_ball_reference(space, center, R, n: int, rng) -> list:
    """The whole of ``space.ball(center, R)`` when it has at most n
    points, else n seeded picks of it that keep the center."""
    pts = space.ball(center, R)
    if len(pts) <= n:
        return pts
    keep = sorted(rng.sample(range(len(pts)), n))
    out = [pts[i] for i in keep]
    if center not in out:
        out[0] = center
    return out


def delta_sampled_reference(space, n_quadruples: int, seed: int):
    """(delta_hat, worst_quadruple, quadruples_checked) of the sampled
    four-point delta drawn as one (65536, 4) array per batch, which the
    package's smaller draws must reproduce bit for bit."""
    D, n = space.dist, len(space)
    rng = np.random.default_rng(seed)
    best = 0.0
    worst = (space.points[0],) * 4
    checked = 0
    while checked < n_quadruples:
        batch = min(1 << 16, n_quadruples - checked)
        Q = rng.integers(0, n, size=(batch, 4))
        ok = ((Q[:, 0] != Q[:, 1]) & (Q[:, 0] != Q[:, 2]) & (Q[:, 0] != Q[:, 3])
              & (Q[:, 1] != Q[:, 2]) & (Q[:, 1] != Q[:, 3]) & (Q[:, 2] != Q[:, 3]))
        Q = Q[ok]
        checked += batch
        if Q.size == 0:
            continue
        i, j, k, l = Q.T
        vals = sampled._pairing_defects(D[i, j] + D[k, l], D[i, k] + D[j, l],
                                        D[i, l] + D[j, k])
        t = int(np.argmax(vals))
        if vals[t] > best:
            best = float(vals[t])
            worst = tuple(space.points[v] for v in Q[t])
    return best, worst, checked


def int_mul(m, n):
    """The product of two integer matrices given as (a, b, c, d)."""
    (a, b, c, d), (e, f, g, h) = m, n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _psl_key(m):
    """An integer matrix's entry vector up to sign: its element of
    PSL(2, Z), with the first nonzero entry positive."""
    return m if next(x for x in m if x) > 0 else tuple(-x for x in m)


def exact_relation(gens, length: int, positive: bool = False):
    """Two distinct words of at most ``length`` letters in the integer
    matrices ``gens``, each an entry tuple (a, b, c, d) of determinant
    1, that are one element of PSL(2, Z), as a pair of tuples of
    (generator index, +1 or -1); or None when there are none.

    The walk is exact, in Python ints.  Group words are freely reduced,
    so a pair u, v gives the relation u v^-1 of at most 2 length
    letters (meet in the middle); positive words give the positive
    relation u = v.  The empty word takes part, as the identity."""
    letters = [((i, 1), g) for i, g in enumerate(gens)]
    if not positive:
        letters += [((i, -1), (d, -b, -c, a))
                    for i, (a, b, c, d) in enumerate(gens)]
    level = [((), (1, 0, 0, 1))]
    seen = {_psl_key(level[0][1]): ()}
    for _ in range(length):
        nxt = []
        for word, m in level:
            for (i, sign), g in letters:
                if word and word[-1] == (i, -sign):
                    continue
                w, p = word + ((i, sign),), int_mul(m, g)
                key = _psl_key(p)
                if key in seen:
                    return seen[key], w
                seen[key] = w
                nxt.append((w, p))
        level = nxt
    return None


_SANOV = {"a": (1, 2, 0, 1), "A": (1, -2, 0, 1),
          "b": (1, 0, 2, 1), "B": (1, 0, -2, 1)}


def sanov(word: str):
    """The exact integer image (a, b, c, d) of a tree word over a, b and
    their inverses A, B under Sanov's faithful representation of F2 in
    SL(2, Z): a -> [[1, 2], [0, 1]], b -> [[1, 0], [2, 1]] (I. N. Sanov,
    Doklady Akad. Nauk SSSR 57, 1947)."""
    m = (1, 0, 0, 1)
    for letter in word:
        m = int_mul(m, _SANOV[letter])
    return m
