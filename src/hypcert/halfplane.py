"""Upper half-plane model: float distances, Moebius isometries, geodesics.

Points are complex numbers with positive imaginary part.  Boundary points
are reals, with ``math.inf`` standing for the point at infinity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import TOL
from .errors import DomainError, InputError
from .isometry import IsometryProfile

INF = math.inf

PARABOLIC_BAND = 1e-9
_LOG_MAX = 709.78  # just below the log of the largest double
_LEVEL_BLOCK = 1 << 14   # columns of compose_level, entries of a table


def check_point(p) -> complex:
    p = complex(p)
    if not (p.imag > 0.0) or not (math.isfinite(p.real) and math.isfinite(p.imag)):
        raise InputError(f"not an upper half-plane point: {p}")
    return p


def dist(p, q) -> float:
    """Hyperbolic distance, via sinh(d/2) = |p-q| / (2 sqrt(Im p Im q)).

    The asinh form stays accurate for very distant points, where the
    cosh identity would overflow.  Halving the operands (exact) instead
    of doubling the denominator keeps the quotient from being inf/inf.
    """
    return float(_paired(check_point(p), check_point(q)))


def dist_table(xs, ys) -> np.ndarray:
    """``dist`` over xs by ys, bit for bit, in blocks of rows of about
    _LEVEL_BLOCK entries, which bound the temporary arrays.  Each point
    is checked once, the shorter side's first."""
    pts = [xs, ys]
    for k in (0, 1) if len(xs) <= len(ys) else (1, 0):
        pts[k] = np.array([check_point(p) for p in pts[k]], dtype=complex)
    zx, zy = pts
    out = np.empty((len(zx), len(zy)))
    step = max(1, _LEVEL_BLOCK // max(1, len(zy)))
    for s in range(0, len(zx), step):
        out[s:s + step] = _paired(zx[s:s + step, None], zy)
    return out


@np.errstate(over="ignore")   # a decorator: set up once, not per call
def _paired(zx, zy):
    """The H² distance kernel: ``dist(zx[k], zy[k])`` for every k of two
    checked points, or arrays of them that broadcast against each other,
    by numpy's hypot and arcsinh.  A quotient that overflows is inf,
    without a warning."""
    dx, dy = zx.real / 2 - zy.real / 2, zx.imag / 2 - zy.imag / 2
    return 2.0 * np.arcsinh(
        np.hypot(dx, dy) / (np.sqrt(zx.imag) * np.sqrt(zy.imag)))


def _round9(t) -> np.ndarray:
    """``round(v, 9)`` of every float v of the array t, bit for bit:
    rint(t 1e9) / 1e9 where that rounds the exact product, as it does
    wherever y = t 1e9 is below 2^51 and more than |y| 2^-50 from a
    half-integer; ``round`` itself elsewhere."""
    with np.errstate(all="ignore"):
        y = t * 1e9
        r = np.rint(y)
        out = r / 1e9
        sure = (np.abs(y) < 2.0 ** 51) & (
            np.abs(np.abs(y - r) - 0.5) > np.abs(y) * 2.0 ** -50)
    at = np.flatnonzero(~sure)
    out[at] = [round(v, 9) for v in t[at].tolist()]
    return out


def _check_points(zs):
    """check_point's error for the first entry of the complex array zs
    that is no upper half-plane point, if one is not."""
    ok = (zs.imag > 0) & np.isfinite(zs)
    if not ok.all():
        check_point(zs[~ok][0])


dist.dist_table = dist_table


def boundary_eq(x, y) -> bool:
    if math.isinf(x) or math.isinf(y):
        return math.isinf(x) and math.isinf(y)
    return abs(x - y) <= TOL


class Moebius:
    """Real Moebius transformation acting on the upper half-plane.

    Stored with determinant one.  +M and -M act identically, and as
    negation is exact in floats, images, distances, |trace|, fixed points
    and identity tests read the same bits from either; only
    ``HalfPlane.iso_key`` tells which of the two a matrix is.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        det = a * d - b * c
        # finite only when every entry is, and when no product overflows
        if not math.isfinite(det):
            raise InputError(
                f"matrix {[a, b, c, d]} has a non-finite entry or determinant")
        if det <= 0:
            raise InputError(f"matrix with nonpositive determinant {det}")
        s = math.sqrt(det)
        self.a, self.b, self.c, self.d = a / s, b / s, c / s, d / s

    @classmethod
    def _unit(cls, a, b, c, d):
        # for products of already det-1 matrices, where recomputing the
        # determinant would lose to cancellation at large entries
        m = cls.__new__(cls)
        m.a, m.b, m.c, m.d = a, b, c, d
        return m

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    def trace(self) -> float:
        return self.a + self.d

    def inverse(self) -> "Moebius":
        return Moebius._unit(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "Moebius") -> "Moebius":
        return Moebius._unit(*_product(self.entries(), other.entries()))

    def __pow__(self, n: int) -> "Moebius":
        if n == 0:
            return Moebius.identity()
        base = self if n > 0 else self.inverse()
        n = abs(n)
        out = Moebius.identity()
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
        return out

    def __call__(self, z: complex) -> complex:
        num, m2 = _image(self.entries(), z.real, z.imag)
        if not m2:
            raise InputError(f"the image of {z} under {self!r} is not "
                             "representable: |cz + d|^2 underflows to 0")
        # Im(gz) = Im(z) / |cz + d|^2 for det 1: exact positivity,
        # where the plain complex division cancels to zero
        return complex(num / m2, z.imag / m2)

    def is_identity(self) -> bool:
        return _is_identity(*self.entries())

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"Moebius({self.a:.6g}, {self.b:.6g}, {self.c:.6g}, {self.d:.6g})"


# Below, the entries a, b, c, d of a matrix are floats or arrays that
# broadcast, so that one matrix and a batch share each formula.

def _product(p, q) -> tuple:
    """The entries of the product of the matrices of entries p and q."""
    pa, pb, pc, pd = p
    qa, qb, qc, qd = q
    return (pa * qa + pb * qc, pa * qb + pb * qd,
            pc * qa + pd * qc, pc * qb + pd * qd)


def _is_identity(a, b, c, d):
    """Whether the matrix is +-1 up to TOL in each entry."""
    return ((abs(b) <= TOL) & (abs(c) <= TOL) & (abs(a - d) <= TOL)
            & (abs(abs(a) - 1.0) <= TOL))


def _image(entries, x, y) -> tuple:
    """Re(g z) |cz + d|^2 and |cz + d|^2, for the entries a, b, c, d of g
    and z = x + iy."""
    a, b, c, d = entries
    dr, di = c * x + d, c * y
    return (a * x + b) * dr + a * y * di, dr * dr + di * di


@dataclass(frozen=True)
class HGeodesic:
    """Oriented complete geodesic with unit-speed parameterization.

    ``neg``/``pos`` are the boundary endpoints (reals or inf).  Vertical
    lines are parameterized as x + i e^{+-t}; circles via the Moebius map
    sending (0, inf) to (neg, pos), so t = 0 sits at the apex.
    """

    neg: float
    pos: float

    def __post_init__(self):
        if boundary_eq(self.neg, self.pos):
            raise InputError("coincident boundary endpoints")

    def at(self, t: float) -> complex:
        if math.isinf(self.pos):
            return complex(self.neg, math.exp(t))
        if math.isinf(self.neg):
            return complex(self.pos, math.exp(-t))
        u, v = self.neg, self.pos
        if t >= 0:
            s2 = math.exp(-2.0 * t)
            return complex((u * s2 + v) / (s2 + 1.0),
                           math.exp(-t) * abs(v - u) / (s2 + 1.0))
        s2 = math.exp(2.0 * t)
        return complex((u + s2 * v) / (1.0 + s2),
                       math.exp(t) * abs(v - u) / (1.0 + s2))

    def param(self, z) -> float:
        """Arclength parameter of the nearest-point projection of z; also
        the order key of the line's points."""
        z = check_point(z)
        if math.isinf(self.pos):
            return math.log(abs(z - self.neg))
        if math.isinf(self.neg):
            return -math.log(abs(z - self.pos))
        return math.log(abs(z - self.neg)) - math.log(abs(self.pos - z))

    def param_boundary(self, xi: float) -> float:
        """Parameter of the projection of a boundary point (limit of feet)."""
        if boundary_eq(xi, self.neg) or boundary_eq(xi, self.pos):
            raise InputError("boundary point is an endpoint of the geodesic")
        if math.isinf(self.pos):
            return math.log(abs(xi - self.neg)) if not math.isinf(xi) else INF
        if math.isinf(self.neg):
            return -math.log(abs(xi - self.pos)) if not math.isinf(xi) else -INF
        if math.isinf(xi):
            return 0.0
        return math.log(abs(xi - self.neg)) - math.log(abs(self.pos - xi))

    order_key = param

    def project(self, z) -> complex:
        """Nearest point of an interior point, or the limit of those for
        a boundary point."""
        if not isinstance(z, complex):
            return self.at(self.param_boundary(float(z)))
        return self.at(self.param(z))


def point_at(origin: complex, theta: float, rho: float) -> complex:
    """Point at hyperbolic distance rho from ``origin``, direction theta.

    theta = pi/2 points straight up.  Evaluated in closed form so that
    very large rho stays representable: where e^(2 rho) overflows, the
    formula is divided through by it and Im is carried as a logarithm.
    A point that doubles cannot hold is an input error.
    """
    origin = check_point(origin)
    # geodesic polar formula around i, then translate i -> origin
    c = math.cos((math.pi / 2.0 - theta) / 2.0)
    s = math.sin((math.pi / 2.0 - theta) / 2.0)
    y0 = origin.imag
    e = math.exp(min(rho, 709.0))  # e * e overflows long before the clamp
    if math.isfinite(e * e):
        den = c * c + s * s * e * e
        zx = c * s * (e * e - 1.0) / den
        zy = y0 * (e / den)
    else:  # s = 0 is straight up, where c = 1 and den = e^-2rho may underflow
        t2 = math.exp(-2.0 * rho)
        den = c * c * t2 + s * s
        zx = c * s * (1.0 - t2) / den if s else 0.0
        log_y = math.log(y0) - rho - (math.log(den) if den else -2.0 * rho)
        zy = math.exp(log_y) if log_y < _LOG_MAX else math.inf
    p = complex(y0 * zx + origin.real, zy)
    if not (p.imag > 0.0 and math.isfinite(p.real) and math.isfinite(p.imag)):
        raise InputError(f"the point at distance {rho} from {origin} "
                         "cannot be held in doubles")
    return p


class HalfPlane:
    """The half-plane as a model space: points are complex numbers,
    isometries Moebius matrices, boundary points reals or inf."""

    # the four-point constant, half the gap between the largest and the
    # middle pairing sum, of CAT(-1) spaces: four points at distance 20
    # from i in the four axis directions come within 2e-15 of it
    delta = math.log(2.0)

    def dist(self, p, q) -> float:
        return dist(p, q)

    def dist_table(self, xs, ys) -> np.ndarray:
        return dist_table(xs, ys)

    def parse_point(self, text: str) -> complex:
        """'x,y' for the point x + iy."""
        try:
            x, y = text.split(",")
            return check_point(complex(float(x), float(y)))
        except ValueError:
            raise InputError(
                f"expected a half-plane point 'x,y', got {text!r}") from None

    def sample_ball(self, center, R, n, rng) -> list:
        return sample_ball(center, R, n, rng)

    def ball_size(self, center, R):
        raise InputError("half-plane balls are not finite; "
                         "count orbit points instead (entropy --orbit)")

    def act(self, g: Moebius, x):
        return g(x)

    def compose(self, g: Moebius, h: Moebius) -> Moebius:
        return g @ h

    def power(self, g: Moebius, n: int) -> Moebius:
        return g ** n

    def is_identity(self, g: Moebius) -> bool:
        return g.is_identity()

    # Batch arithmetic: many matrices as a (4, n) array of their a, b, c
    # and d entries, computed as the Moebius methods compute them, so the
    # entries and verdicts match theirs bit for bit.  Entries that
    # overflow become inf or NaN, as in the scalar product, silently.

    def batch(self, gs) -> np.ndarray:
        """The entries of the given matrices, one column each."""
        return np.array([g.entries() for g in gs], dtype=float).T.reshape(
            4, len(gs))

    def compose_level(self, E, parents, L, letters) -> np.ndarray:
        """``compose`` of column parents[i] of E with column letters[i]
        of L, for each i, by the product of ``Moebius.__matmul__``, on
        _LEVEL_BLOCK columns at a time, which bounds the temporary arrays."""
        out = np.empty((4, len(parents)))
        with np.errstate(all="ignore"):
            for s in range(0, len(parents), _LEVEL_BLOCK):
                c = slice(s, s + _LEVEL_BLOCK)
                out[:, c] = _product(E[:, parents[c]], L[:, letters[c]])
        return out

    def unbatch(self, E) -> list:
        """The matrices of the columns of E."""
        return [Moebius._unit(*col) for col in E.T.tolist()]

    def act_batch(self, E, zs) -> np.ndarray:
        """``act`` of every column of E on a point, or on each point of a
        column of them, a row each, as a complex array, by the image
        formula of ``Moebius.__call__``.  For the first point with an
        image that is no point, it raises the call's error at the first
        column whose |cz + d|^2 underflows, if there is one."""
        y = np.imag(zs)
        with np.errstate(all="ignore"):
            num, m2 = _image(E, np.real(zs), y)
            out = np.empty(m2.shape, dtype=complex)
            out.real, out.imag = num / m2, y / m2
        ok = (out.imag > 0) & np.isfinite(out)
        if not ok.all():   # an image whose |cz + d|^2 is 0 is not finite
            ok = ok.reshape(-1, ok.shape[-1])
            row = int(np.argmin(ok.all(axis=1)))
            for g in self.unbatch(E[:, ~ok[row]]):
                g(complex(np.reshape(zs, -1)[row]))
        return out

    def displacement_table(self, xs, levels) -> np.ndarray:
        """d(x, g x) for each point x of xs, a row each, and each element
        g of the batches in levels, in order; _LEVEL_BLOCK entries at a
        time, so only the table grows with xs.  The first point with an
        image that is no point raises what ``act`` then ``dist`` raise."""
        E = np.concatenate(levels, axis=1)
        zx = np.array(xs, dtype=complex)[:, None]
        out = np.empty((len(zx), E.shape[1]))
        step = max(1, _LEVEL_BLOCK // max(1, E.shape[1]))
        for s in range(0, len(zx), step):
            P = self.act_batch(E, zx[s:s + step])
            _check_points(P)
            out[s:s + step] = _paired(zx[s:s + step], P)
        return out

    def orbit_dists(self, x, levels) -> np.ndarray:
        """``dist`` from x to x and to its checked images under the
        elements of the batches in levels, each point once: the first of
        each key, its two coordinates rounded to 9 decimals, is kept."""
        P = np.concatenate([[x]] + [self.act_batch(E, x) for E in levels])
        kr, ki = _round9(P.real), _round9(P.imag)
        order = np.lexsort((ki, kr))   # stable: equal keys in walk order
        kr, ki = kr[order], ki[order]
        first = np.ones(len(P), dtype=bool)
        first[1:] = (kr[1:] != kr[:-1]) | (ki[1:] != ki[:-1])
        P = P[np.sort(order[first])]
        _check_points(P)   # x, first, is checked first
        return _paired(P[0], P)

    def is_identity_batch(self, E) -> np.ndarray:
        """``Moebius.is_identity`` of every column of E."""
        with np.errstate(all="ignore"):
            return _is_identity(*E)

    def iso_key(self, g: Moebius) -> tuple:
        """The entries, rounded to 9 decimals, of the one of g and -g
        whose trace is not negative, or, at trace 0, whose first nonzero
        entry is positive: the one place where +-g is told apart."""
        e = g.entries()
        tr = e[0] + e[3]
        if tr < 0 or tr == 0 and next((v for v in e if v), 0.0) < 0:
            e = [-v for v in e]
        return tuple(round(v, 9) for v in e)

    def boundary_eq(self, x, y) -> bool:
        return boundary_eq(x, y)

    def meeting_sides(self, sides) -> list:
        """The name pairs, in order, of the (name, centre, anchor) sides
        whose sets {z : d(z, centre) <= d(z, anchor)} meet, decided
        exactly for the float points: on the hyperboloid, where
        cosh d(z, w) = -<Z, W>, a set is {X : <X, C - P> >= 0}.  Sets that
        touch only at an ideal point count as meeting."""
        normals = [(name, _side_normal(check_point(c), check_point(p)))
                   for name, c, p in sides]
        return [(n1, n2) for (n1, u), (n2, v)
                in itertools.combinations(normals, 2) if not _apart(u, v)]

    def classify(self, g: Moebius) -> IsometryProfile:
        """Classify by |trace| alone: within PARABOLIC_BAND of 2 is
        parabolic, unless the identity; above hyperbolic, below elliptic."""
        tr = abs(g.trace())
        if tr > 2.0 + PARABOLIC_BAND:
            ell = 2.0 * math.acosh(tr / 2.0)
            rep, att = _fixed_boundary_pair(g)
            return IsometryProfile("hyperbolic", ell, axis=HGeodesic(rep, att),
                                   fixed_boundary=(rep, att))
        if tr >= 2.0 - PARABOLIC_BAND and not g.is_identity():
            fx = _parabolic_fixed_point(g)
            return IsometryProfile("parabolic", 0.0, fixed_boundary=(fx,))
        return IsometryProfile("elliptic", 0.0)


def _fixed_boundary_pair(g):
    """(repelling, attracting) boundary fixed points of a hyperbolic matrix."""
    a, b, c, d = g.entries()
    if abs(c) < 1e-300:
        # fixed points are inf and b/(d-a)
        other = b / (d - a) if abs(d - a) > 0 else 0.0
        roots = [INF, other]
    else:
        # tr^2 - 4 det is positive for a hyperbolic matrix, but rounding,
        # as in a long product, can take it to 0 or below
        disc = math.sqrt(max((d - a) * (d - a) + 4.0 * b * c, 0.0))
        roots = [((a - d) + disc) / (2.0 * c), ((a - d) - disc) / (2.0 * c)]
    if boundary_eq(*roots):
        raise DomainError("the fixed points of a hyperbolic matrix are "
                          "lost to rounding")
    # derivative at a fixed x is (cx + d)^-2; attracting iff |cx + d| > 1
    def mult(x):
        if math.isinf(x):
            return abs(a)  # |derivative|^(-1/2) at infinity in the chart 1/z
        return abs(c * x + d)
    roots.sort(key=mult)
    return roots[0], roots[1]


def _parabolic_fixed_point(g):
    a, b, c, d = g.entries()
    if abs(c) < 1e-12:
        return INF
    return (a - d) / (2.0 * c)


def _side_normal(c, p):
    """C - P for the lift Z = (|z|^2 + 1, |z|^2 - 1, 2 Re z) / (2 Im z),
    times 2 s^3 Im c Im p for s the least power of two that makes c and
    p integral: integers, all 0 when c = p."""
    ratios = [v.as_integer_ratio() for v in (c.real, c.imag, p.real, p.imag)]
    s = max(den for _, den in ratios)
    cx, cy, px, py = (num * (s // den) for num, den in ratios)
    c2, p2, s2 = cx * cx + cy * cy, px * px + py * py, s * s
    return (py * (c2 + s2) - cy * (p2 + s2), py * (c2 - s2) - cy * (p2 - s2),
            2 * s * (cx * py - px * cy))


def _apart(u, v):
    """Whether {X : <X, u> >= 0} and {X : <X, v> >= 0} are disjoint, for
    <u, v> = -u0 v0 + u1 v1 + u2 v2: when <u, v> < -|u| |v| their edges
    neither cross nor touch, and then no X is in both exactly when
    u / |u| + v / |v| points to the future, q2 u0 |u0| + q1 v0 |v0| > 0."""
    (u0, u1, u2), (v0, v1, v2) = u, v
    q1, q2 = u1 * u1 + u2 * u2 - u0 * u0, v1 * v1 + v2 * v2 - v0 * v0
    b = u1 * v1 + u2 * v2 - u0 * v0
    return (b < 0 and b * b > q1 * q2
            and q2 * u0 * abs(u0) + q1 * v0 * abs(v0) > 0)


H2 = HalfPlane()


def sample_ball(center: complex, R: float, n: int, rng) -> list[complex]:
    """n points uniform in hyperbolic area on the closed ball B(center, R).

    Radius is drawn by inverting the area CDF (density sinh), angle
    uniform; equivalent in law to disk-model rejection sampling but with
    no rejections and no precision loss at large R.  Any R > 0 is taken;
    a drawn point that doubles cannot hold is an input error (from the
    center i, that is most points past distance about 745).
    """
    center = check_point(center)
    if R <= 0 or n < 1:
        raise InputError("need R > 0 and n >= 1")
    pts = []
    # cosh R - 1 computed stably for tiny R, and while it stays finite
    cap = 2.0 * math.sinh(R / 2.0) ** 2 if R < _LOG_MAX else math.inf
    for _ in range(n):
        u = rng.random()
        if cap < math.inf:
            rho = 2.0 * math.asinh(math.sqrt(u * cap / 2.0))
        else:  # 2 asinh(sqrt(u) sinh(R/2)) to rounding, as u >= 2^-53
            rho = R + math.log(u) if u else 0.0
        theta = rng.random() * 2.0 * math.pi
        pts.append(point_at(center, theta, rho))
    return pts
