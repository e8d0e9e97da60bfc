"""Seeded input generators for the benchmark workloads.

Pure Python with no hypcert import, so the tests can check every
generated input in closed form.  Each generator takes a
``random.Random`` and returns plain data: a JSON-ready group spec or a
space description that the workload turns into hypcert objects.
"""

from __future__ import annotations

import math

ENDPOINT_RANGE = 3.0
ENDPOINT_GAP = 0.3
ELL_RANGE = (0.8, 2.5)


def hyperbolic_matrix(u: float, v: float, ell: float):
    """g diag(e^{ell/2}, e^{-ell/2}) g^-1 for g = [[v, u], [1, 1]].

    g sends 0 to u and inf to v, so the product is a determinant-one
    hyperbolic Moebius map with repelling fixed point u, attracting fixed
    point v and translation length ell.
    """
    lam = math.exp(ell / 2.0)
    inv = 1.0 / lam
    s = v - u
    return [[(v * lam - u * inv) / s, u * v * (inv - lam) / s],
            [(lam - inv) / s, (v * inv - u * lam) / s]]


def h2_pair(rng, orient, ell_u):
    """Two hyperbolic generators whose four axis endpoints are pairwise
    at least ENDPOINT_GAP apart in [-3, 3].  ``orient[k]`` says whether
    generator k's repelling endpoint is the smaller one; ``ell_u[k]`` in
    [0, 1) places its translation length in ELL_RANGE.  Returns (spec,
    [(u, v, ell), ...])."""
    while True:
        ends = [rng.uniform(-ENDPOINT_RANGE, ENDPOINT_RANGE) for _ in range(4)]
        if all(abs(x - y) >= ENDPOINT_GAP
               for i, x in enumerate(ends) for y in ends[i + 1:]):
            break
    built = []
    for k, up in enumerate(orient):
        lo, hi = sorted(ends[2 * k:2 * k + 2])
        u, v = (lo, hi) if up else (hi, lo)
        lo, hi = ELL_RANGE
        built.append((u, v, lo + ell_u[k] * (hi - lo)))
    spec = {"model": "h2", "generators": [
        {"name": name, "matrix": hyperbolic_matrix(u, v, ell)}
        for name, (u, v, ell) in zip("ab", built)]}
    return spec, built


def _reduced_append(w: str, ch: str) -> bool:
    return not w or w[-1] != ch.swapcase()


def is_cyclically_reduced(w: str) -> bool:
    return (bool(w) and all(_reduced_append(w[:i], w[i]) for i in range(len(w)))
            and w[0] != w[-1].swapcase())


def primitive_root(w: str) -> str:
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and w == w[:d] * (n // d):
            return w[:d]
    return w


def same_axis(u: str, w: str) -> bool:
    """Cyclically reduced words share an axis iff their primitive roots
    agree up to inversion (their axes both pass through the identity)."""
    ru, rw = primitive_root(u), primitive_root(w)
    return ru == rw or ru == rw[::-1].swapcase()


def cyclically_reduced_word(rng, rank: int, length: int) -> str:
    """Uniform among the cyclically reduced words of this length."""
    letters = [chr(ord("a") + i) for i in range(rank)]
    alphabet = letters + [c.upper() for c in letters]
    while True:
        w = ""
        for _ in range(length):
            w += rng.choice([c for c in alphabet if _reduced_append(w, c)])
        if is_cyclically_reduced(w):
            return w


def tree_pair(rng, rank, lengths):
    """Free-tree pair of the given rank and word lengths: cyclically
    reduced words with distinct axes.  Returns (spec, [(word, ell),
    ...])."""
    while True:
        u = cyclically_reduced_word(rng, rank, lengths[0])
        w = cyclically_reduced_word(rng, rank, lengths[1])
        if not same_axis(u, w):
            break
    spec = {"model": "free_tree", "params": {"rank": rank}, "generators": [
        {"name": "a", "word": u}, {"name": "b", "word": w}]}
    return spec, [(u, float(len(u))), (w, float(len(w)))]


def spread(rng, k):
    """The midpoints of k equal strata of [0, 1), in random order."""
    u = [(i + 0.5) / k for i in range(k)]
    rng.shuffle(u)
    return u


class Strata:
    """Draws per parameter name over a run of k jobs of one slot.

    Sizes and translation lengths decide most of a job's cost, so a run
    takes them evenly spaced over their ranges and the seed only shuffles
    their order and draws the rest of the content (points, chords,
    endpoints, letters).  The work in a run then varies little from seed
    to seed, while every value still comes from the stated range."""

    def __init__(self, rng, k):
        self.rng, self.k, self.left = rng, k, {}

    def u(self, name):
        if name not in self.left:
            self.left[name] = spread(self.rng, self.k)
        return self.left[name].pop()

    def integer(self, name, lo, hi):
        return lo + min(int(self.u(name) * (hi - lo + 1)), hi - lo)

    def uniform(self, name, lo, hi):
        return lo + self.u(name) * (hi - lo)


# A group-workload cycle holds four H2 pairs, one for each orientation
# of the two axes, each followed by `trees` tree pairs of alternating
# rank 2 and 3.  At the seed commit the orientation decides most certify
# failures, so the design keeps a run's failure share close to its mean.
ORIENTATIONS = ((True, True), (True, False), (False, True), (False, False))


def group_jobs(rng, cycles, trees=1):
    """cycles * 4 * (1 + trees) generator pairs; ell and word lengths
    are spread evenly over the run."""
    n_h2 = cycles * len(ORIENTATIONS)
    h2, tree = Strata(rng, n_h2), Strata(rng, n_h2 * trees)
    jobs = []
    for k in range(n_h2):
        spec, built = h2_pair(rng, ORIENTATIONS[k % len(ORIENTATIONS)],
                              (h2.u("ell_a"), h2.u("ell_b")))
        jobs.append({"spec": spec, "built": built})
        for t in range(trees):
            spec, built = tree_pair(rng, 2 + (k * trees + t) % 2,
                                    (tree.integer("len_a", 1, 3),
                                     tree.integer("len_b", 1, 3)))
            jobs.append({"spec": spec, "built": built})
    return jobs


# metric workload: one space per job, cycling through eight slots so that
# a quarter of the spaces are large (H2 samples or grids, n 400-800) and
# each family has the same share; sizes are spread evenly per slot
METRIC_SLOTS = ("h2", "grid", "graph", "tree2", "h2_large", "grid_large",
                "graph", "tree3")
METRIC_CYCLE = len(METRIC_SLOTS)


def metric_jobs(rng, cycles):
    strata = {slot: Strata(rng, cycles * METRIC_SLOTS.count(slot))
              for slot in set(METRIC_SLOTS)}
    jobs = []
    for i in range(cycles * METRIC_CYCLE):
        slot = METRIC_SLOTS[i % METRIC_CYCLE]
        st = strata[slot]
        if slot in ("h2", "h2_large"):
            lo, hi = (120, 200) if slot == "h2" else (400, 800)
            job = {"family": "h2", "n": st.integer("n", lo, hi),
                   "radius": st.uniform("radius", 2.0, 8.0),
                   "seed": rng.getrandbits(32)}
        elif slot in ("grid", "grid_large"):
            lo, hi = (8, 14) if slot == "grid" else (20, 28)
            job = {"family": "grid", "side": st.integer("side", lo, hi)}
        elif slot == "graph":
            n = st.integer("n", 80, 200)
            job = {"family": "graph", "n": n, "chords": n // 4,
                   "seed": rng.getrandbits(32)}
        else:
            rank = 2 if slot == "tree2" else 3
            job = {"family": "tree", "rank": rank, "radius": 5 - rank}
        jobs.append(job)
    return jobs
