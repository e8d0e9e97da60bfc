"""Upper half-plane model: float distances, Moebius isometries, geodesics.

Points are complex numbers with positive imaginary part.  Boundary points
are reals, with ``math.inf`` standing for the point at infinity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import TOL, bounds
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
    zx, zy = _checked(xs, ys)
    out = np.empty((len(zx), len(zy)))
    step = max(1, _LEVEL_BLOCK // max(1, len(zy)))
    for s in range(0, len(zx), step):
        out[s:s + step] = _paired(zx[s:s + step, None], zy)
    return out


def _lift(z) -> tuple:
    """The hyperboloid lifts (|z|^2 + 1, |z|^2 - 1, 2 Re z) / (2 Im z) of
    the points z, where cosh d(z, w) = -<Z, W> = Z0 W0 - Z1 W1 - Z2 W2."""
    with np.errstate(all="ignore"):
        s, h = z.real * z.real + z.imag * z.imag, 2.0 * z.imag
        return (s + 1.0) / h, (s - 1.0) / h, z.real / z.imag


def _candidates(lx, ly) -> tuple:
    """(rows, columns), row-major, of the pairs of the lifts lx by ly
    whose distance may be their row's least, as a float ``_paired``
    measures it: every pair whose cosh d is not above (1 + 2^-20) times
    the row's least, up to the rounding bound e = 2^-46 X0 max(Y0)."""
    # With u = 2^-53 and the products below 2^1000: each lifted
    # coordinate is within 5 u X0 of the exact one (|X1|, |X2| <= X0), so
    # the three exact products of the float lifts are within 10 u X0 Y0
    # each of the true ones, and forming C rounds by at most 8 u X0 Y0
    # more: C is within 38 u X0 Y0 of cosh d, which e = 128 u X0 max(Y0)
    # covers with room for the roundings of the bound T below.  The
    # column of the least cosh d* of a row has C <= T; a column left out
    # has cosh d > (1 + 2^-20)(1 - 2u) cosh d*, so d > d* + 2^-21 (acosh
    # grows by more than eta / (1 + eta) from v to v (1 + eta)).
    # ``_paired`` is within 2^-48 d + 2^-500 of d (hypot, two sqrt, a
    # product, a quotient and arcsinh, at most 2 ulp each; the products
    # bound Im z Im w below by 2^-1002, which keeps a subnormal
    # difference's error far below 2^-500), and d < 2^10: it measures
    # every column left out above the row's least.
    (x0, x1, x2), (y0, y1, y2) = lx, ly
    C = np.multiply.outer(x0, y0)
    C -= np.multiply.outer(x1, y1)
    C -= np.multiply.outer(x2, y2)
    e = 2.0 ** -46 * x0 * y0.max()
    T = (C.min(axis=1) + e) * (1.0 + 2.0 ** -20) + e
    return np.divmod(np.flatnonzero(C <= T[:, None]), len(y0))


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


def _first_of_each_key(kr, ki) -> np.ndarray:
    """The ascending positions of the first of each key (kr[k], ki[k]):
    one stable sort by kr, then only the runs of equal kr are sorted
    again, stably, by ki.  A key with a NaN equals no other."""
    order = np.argsort(kr, kind="stable")
    kr, ki = kr[order], ki[order]
    tie = kr[1:] == kr[:-1]
    if tie.any():
        run = np.flatnonzero(np.r_[tie, False] | np.r_[False, tie])
        again = np.lexsort((ki[run], kr[run]))   # kr[run] ascends already
        order[run], ki[run] = order[run][again], ki[run][again]
    first = np.ones(len(kr), dtype=bool)
    first[1:] = (kr[1:] != kr[:-1]) | (ki[1:] != ki[:-1])
    return np.sort(order[first])


def _check_points(zs):
    """check_point's error for the first entry of the complex array zs
    that is no upper half-plane point, if one is not."""
    ok = (zs.imag > 0) & np.isfinite(zs)
    if not ok.all():
        check_point(zs[~ok][0])


def _points(ps) -> np.ndarray:
    """The points ps as a complex array, each checked as check_point
    checks it: the first that is no point raises its error."""
    try:
        zs = np.fromiter(map(complex, ps), complex, len(ps))
    except (TypeError, ValueError):   # check_point's error, in order
        zs = np.array([check_point(p) for p in ps], dtype=complex)
    _check_points(zs)
    return zs


def _checked(xs, ys) -> list:
    """xs and ys as complex arrays, each point checked once, the shorter
    side's first, xs on a tie."""
    pts = [xs, ys]
    for k in (0, 1) if len(xs) <= len(ys) else (1, 0):
        pts[k] = _points(pts[k])
    return pts


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


def point_at(origin: complex, theta, rho):
    """The points at hyperbolic distances rho from ``origin``, in the
    directions theta, which are floats, for one point, or arrays that
    broadcast, for an array of them.

    theta = pi/2 points straight up.  Evaluated in closed form so that
    very large rho stays representable: where e^(2 rho) overflows, the
    formula is divided through by it and Im is carried as a logarithm.
    A point that doubles cannot hold is an input error.
    """
    origin = check_point(origin)
    theta, rho = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(rho, dtype=float))
    shape, theta, rho = theta.shape, theta.ravel(), rho.ravel()
    y0 = origin.imag
    # geodesic polar formula around i, then translate i -> origin
    with np.errstate(all="ignore"):
        c = np.cos((math.pi / 2.0 - theta) / 2.0)
        s = np.sin((math.pi / 2.0 - theta) / 2.0)
        e = np.exp(np.minimum(rho, 709.0))  # e * e overflows long before
        den = c * c + s * s * e * e
        zx = c * s * (e * e - 1.0) / den
        zy = y0 * (e / den)
        far = np.flatnonzero(~np.isfinite(e * e))
        if far.size:
            # s = 0 is straight up, where c = 1 and den = e^-2rho may
            # underflow
            c, s, r = c[far], s[far], rho[far]
            t2 = np.exp(-2.0 * r)
            den = c * c * t2 + s * s
            zx[far] = np.where(s != 0, c * s * (1.0 - t2) / den, 0.0)
            log_y = math.log(y0) - r - np.where(den != 0, np.log(den),
                                                -2.0 * r)
            zy[far] = np.where(log_y < _LOG_MAX, np.exp(log_y), math.inf)
        p = np.empty(len(zx), dtype=complex)
        p.real, p.imag = y0 * zx + origin.real, zy
    bad = np.flatnonzero(~((p.imag > 0.0) & np.isfinite(p)))
    if bad.size:
        raise InputError(f"the point at distance {float(rho[bad[0]])} from "
                         f"{origin} cannot be held in doubles")
    return p.reshape(shape) if shape else complex(p[0])


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

    def nearest_dist(self, xs, ys) -> np.ndarray:
        """``dist_table(xs, ys).min(axis=1)``, bit for bit, with the
        points checked as there.  In the same row blocks, the paired
        kernel measures only each row's candidates, the columns that a
        screen by cosh d on the hyperboloid lifts cannot rule out; where
        a lift product could overflow, the table is measured whole."""
        zx, zy = _checked(xs, ys)
        lx, ly = _lift(zx), _lift(zy)
        with np.errstate(all="ignore"):
            if not (len(zx) and len(zy)
                    and lx[0].max() * ly[0].max() < 2.0 ** 1000):
                return self.dist_table(zx, zy).min(axis=1)
        out = np.empty(len(zx))
        step = max(1, _LEVEL_BLOCK // len(zy))
        for s in range(0, len(zx), step):
            rows, cols = _candidates([X[s:s + step] for X in lx], ly)
            d = _paired(zx[s + rows], zy[cols])
            # rows ascend and each row has a candidate: its run is a block
            out[s:s + step] = np.minimum.reduceat(
                d, np.flatnonzero(np.diff(rows, prepend=-1)))
        return out

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

    def power_scan(self, g: Moebius, xs, power_cap: int,
                   eps: float) -> np.ndarray:
        """The least d(x, g^i x) over 0 < i <= power_cap for each point x
        of xs, a point's scan ending at the first power within eps.  The
        points still scanned step together, y -> g(y) by ``act_batch``
        and d(x, y) by the paired kernel, bit for bit ``g(y)`` and
        ``dist``; the first point, then the first image of a step, that
        is no point raises what those raise."""
        zx = _points(xs)
        E, at, y = self.batch([g]), np.arange(len(zx)), zx
        least = np.full(len(zx), math.inf)
        for _ in range(power_cap):
            if not at.size:
                break
            y = self.act_batch(E, y[:, None])[:, 0]
            _check_points(y)
            least[at] = np.minimum(least[at], _paired(zx[at], y))
            going = ~(least[at] <= eps)
            at, y = at[going], y[going]
        return least

    def orbit_dists(self, x, levels) -> np.ndarray:
        """``dist`` from x to x and to its checked images under the
        elements of the batches in levels, each point once: the first of
        each key, its two coordinates rounded to 9 decimals, is kept."""
        P = np.concatenate([[x]] + [self.act_batch(E, x) for E in levels])
        P = P[_first_of_each_key(_round9(P.real), _round9(P.imag))]
        _check_points(P)   # x, first, is checked first
        return _paired(P[0], P)

    def orbit(self, generators, word_cap: int) -> bounds.WordWalk:
        """The orbit of the group of the (name, matrix) generators, as far
        as the walk over the words up to word_cap reaches."""
        return bounds.WordWalk(self, generators, word_cap)

    def is_identity_batch(self, E) -> np.ndarray:
        """``Moebius.is_identity`` of every column of E, screened on |b|."""
        with np.errstate(all="ignore"):
            out = abs(E[1]) <= TOL
            out[out] = _is_identity(*E[:, out])
        return out

    def identity_products(self, E, L, keep) -> np.ndarray:
        """``is_identity_batch`` of the ``compose_level`` product of
        column i of E with column j of L at each [i, j] where keep holds,
        False elsewhere, without forming them: the b entries pa qb + pb qd
        rule out all but those with |b| <= TOL, which alone are composed."""
        out = np.zeros(keep.shape, dtype=bool)
        with np.errstate(all="ignore"):
            # a row per column of L, each along E; x y is y x bit for bit
            near = abs(L[1][:, None] * E[0] + L[3][:, None] * E[1]) <= TOL
            j, i = np.divmod(np.flatnonzero(near & keep.T), E.shape[1])
            out[i, j] = _is_identity(*_product(E[:, i], L[:, j]))
        return out

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
    center i, that is most points past distance about 745).  The n
    pairs (u, angle) are drawn from rng in order, then the radii and
    points come from one array formula each.
    """
    center = check_point(center)
    if R <= 0 or n < 1:
        raise InputError("need R > 0 and n >= 1")
    draws = np.array([rng.random() for _ in range(2 * n)])
    u, theta = draws[0::2], draws[1::2] * 2.0 * math.pi
    # cosh R - 1 computed stably for tiny R, and while it stays finite
    cap = 2.0 * math.sinh(R / 2.0) ** 2 if R < _LOG_MAX else math.inf
    if cap < math.inf:
        rho = 2.0 * np.arcsinh(np.sqrt(u * cap / 2.0))
    else:  # 2 asinh(sqrt(u) sinh(R/2)) to rounding, as u >= 2^-53
        with np.errstate(divide="ignore"):
            rho = np.where(u > 0, R + np.log(u), 0.0)
    return point_at(center, theta, rho).tolist()
