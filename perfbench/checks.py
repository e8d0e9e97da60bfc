"""Correctness checks on every job's result.

Each check takes plain data (numpy arrays, numbers and report dicts)
and returns a list of problems; an empty list means the result passed.
None of them calls hypcert, so a planted wrong result exercises only
the check.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-9
LOG2 = math.log(2.0)  # optimal four-point constant of H^2 (Nica-Spakula)


def _defect(D, q):
    i, j, k, l = q
    s = sorted((D[i, j] + D[k, l], D[i, k] + D[j, l], D[i, l] + D[j, k]))
    return (s[2] - s[1]) / 2.0


def check_delta(family, D, delta, exhaustive, side=None):
    """Four-point delta against what is known for the family."""
    out = []
    diam = float(D.max())
    if not 0.0 <= delta <= diam / 2.0 + TOL:
        out.append(f"delta {delta} outside [0, diam/2 = {diam / 2.0}]")
    if family == "tree" and delta != 0.0:
        out.append(f"tree delta {delta} != 0")
    if family == "h2" and delta > LOG2 + TOL:
        out.append(f"H2 delta {delta} > log 2")
    if family == "grid":
        m = side
        corners = (0, m - 1, m * (m - 1), m * m - 1)
        if _defect(D, corners) != m - 1:
            out.append(f"grid corner defect {_defect(D, corners)} != {m - 1}")
        if exhaustive and delta != m - 1:
            out.append(f"grid delta {delta} != {m - 1}")
        if not exhaustive and delta > m - 1:
            out.append(f"sampled grid delta {delta} > {m - 1}")
    return out


def check_pack(D, center, R, r, greedy, exact, witness):
    """pack_greedy <= pack_exact <= |B(c, R)|, with a witness of exact
    size inside the ball and pairwise more than 2r apart."""
    out = []
    ball = np.flatnonzero(D[center] <= R + TOL)
    if not greedy <= exact <= ball.size:
        out.append(f"pack order violated: {greedy} <= {exact} <= {ball.size}")
    w = np.asarray(witness, dtype=int)
    if w.size != exact:
        out.append(f"witness has {w.size} points, pack_exact {exact}")
    if w.size and not np.isin(w, ball).all():
        out.append("witness leaves the ball")
    if w.size > 1:
        sub = D[np.ix_(w, w)] + np.diag(np.full(w.size, np.inf))
        if not (sub > 2.0 * r + TOL).all():
            out.append("witness points within 2r")
    return out


def separated_set(D, r):
    """Greedy set of points pairwise more than 2r apart, in index order;
    no r-ball contains two of them, so its size bounds any cover."""
    far = D > 2.0 * r + TOL
    alive = np.ones(len(D), dtype=bool)
    chosen = []
    for i in range(len(D)):
        if alive[i]:
            chosen.append(i)
            alive &= far[i]
    return chosen


def check_cover(D, r, count):
    lower = len(separated_set(D, r))
    if not lower <= count <= len(D):
        return [f"cover {count} outside [{lower}, {len(D)}]"]
    return []


def check_classify(report, built, family):
    """Kind and translation length of each generator as built."""
    out = []
    gens = report["result"]["generators"]
    if len(gens) != len(built):
        return [f"{len(gens)} generators classified, {len(built)} built"]
    for g, b in zip(gens, built):
        ell = b[-1]
        if g["kind"] != "hyperbolic":
            out.append(f"{g['name']} classified {g['kind']}")
        elif family == "h2" and not abs(g["ell"] - ell) <= TOL * max(1.0, ell):
            out.append(f"{g['name']} ell {g['ell']} != built {ell}")
        elif family == "free_tree" and g["ell"] != ell:
            out.append(f"{g['name']} ell {g['ell']} != word length {ell}")
    return out


def check_certify(report, ell):
    """A valid certificate whose N is the certified power for its M0."""
    res = report["result"]
    if not res["valid"]:
        return ["certificate not valid"]
    delta = report["manifest"]["config"]["delta"]
    N = max(1, math.ceil((res["M0"] + 77.0 * delta) / ell - TOL))
    if res["N"] != N:
        return [f"N {res['N']} != ceil((M0 + 77 delta) / ell) = {N}"]
    return []


def check_margulis(report):
    res = report["result"]
    size = report["manifest"]["config"]["sample_size"]
    if res["inner_count"] + res["outer_count"] > size:
        return [f"inner {res['inner_count']} + outer {res['outer_count']}"
                f" > sample {size}"]
    return []


def check_stats(report):
    res = report["result"]
    out = []
    if not float(res["sys_free_min"]) >= float(res["sys_min"]):
        out.append(f"sys_free_min {res['sys_free_min']} < sys_min {res['sys_min']}")
    eps0 = report["manifest"]["config"]["eps0"]
    if not res["systole_floor"] <= eps0:
        out.append(f"systole_floor {res['systole_floor']} > eps0 {eps0}")
    return out


def check_entropy(report):
    res = report["result"]
    out = []
    counts = [c for _, c in res["counts"]]
    if any(b < a for a, b in zip(counts, counts[1:])):
        out.append(f"counts decrease in R: {counts}")
    est = res["estimate"]
    if not (isinstance(est, (int, float)) and math.isfinite(est) and est >= 0):
        out.append(f"estimate {est!r} not finite and >= 0")
    return out
