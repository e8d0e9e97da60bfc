"""Builders and walks that only tests need: an elliptic generator,
points along the model lines of hyperbolic axes, a reference ball
sampler and an exact word walk over integer matrices."""

import math

from hypcert import freetree, halfplane


def rotation_about_i(theta: float) -> halfplane.Moebius:
    """Elliptic rotation by angle theta around the point i."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return halfplane.Moebius(c, -s, s, c)


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
