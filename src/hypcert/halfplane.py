"""Upper half-plane model: exact distances, Moebius isometries, geodesics.

Points are complex numbers with positive imaginary part.  Boundary points
are reals, with ``math.inf`` standing for the point at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import isometry
from .errors import AmbiguityError, InputError
from .isometry import IsometryProfile

INF = math.inf

TOL = 1e-9

PARABOLIC_BAND = 1e-9
CROSS_CHECK_BAND = 1e-3
# the orbit estimator carries an O(log n / n) residual near the parabolic
# border, so the cross-check only flags gross contradictions
AMBIGUITY_TOL = 1e-2


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
    p, q = check_point(p), check_point(q)
    num = math.hypot(p.real / 2 - q.real / 2, p.imag / 2 - q.imag / 2)
    return 2.0 * math.asinh(num / (math.sqrt(p.imag) * math.sqrt(q.imag)))


def boundary_eq(x, y, tol=TOL) -> bool:
    if math.isinf(x) or math.isinf(y):
        return math.isinf(x) and math.isinf(y)
    return abs(x - y) <= tol


class Moebius:
    """Real Moebius transformation acting on the upper half-plane.

    Stored with determinant one; the sign ambiguity (+M and -M act
    identically) is resolved by normalizing to nonnegative trace, with the
    first nonzero entry positive as tiebreaker.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        det = a * d - b * c
        if det <= 0:
            raise InputError(f"matrix with nonpositive determinant {det}")
        s = math.sqrt(det)
        self._set(a / s, b / s, c / s, d / s)

    def _set(self, a, b, c, d):
        tr = a + d
        if tr < 0 or (tr == 0 and _first_nonzero(a, b, c, d) < 0):
            a, b, c, d = -a, -b, -c, -d
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def _unit(cls, a, b, c, d):
        # for products of already det-1 matrices, where recomputing the
        # determinant would lose to cancellation at large entries
        m = cls.__new__(cls)
        m._set(a, b, c, d)
        return m

    @classmethod
    def identity(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    def trace(self) -> float:
        return self.a + self.d

    def inverse(self) -> "Moebius":
        return Moebius._unit(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "Moebius") -> "Moebius":
        return Moebius._unit(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

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

    def __call__(self, z):
        if isinstance(z, complex):
            den = self.c * z + self.d
            m2 = den.real * den.real + den.imag * den.imag
            num = (self.a * z + self.b) * den.conjugate()
            # Im(gz) = Im(z) / |cz + d|^2 for det 1: exact positivity,
            # where the plain complex division cancels to zero
            return complex(num.real / m2, z.imag / m2)
        return self.apply_boundary(z)

    def apply_boundary(self, x: float) -> float:
        if math.isinf(x):
            return self.a / self.c if self.c != 0 else INF
        den = self.c * x + self.d
        if den == 0:
            return INF
        return (self.a * x + self.b) / den

    def is_identity(self, tol=TOL) -> bool:
        return (
            abs(self.b) <= tol
            and abs(self.c) <= tol
            and abs(self.a - self.d) <= tol
            and abs(abs(self.a) - 1.0) <= tol
        )

    def max_entry_gap(self, other: "Moebius") -> float:
        """Max entrywise distance, modulo the projective sign."""
        g1 = max(
            abs(self.a - other.a), abs(self.b - other.b),
            abs(self.c - other.c), abs(self.d - other.d),
        )
        g2 = max(
            abs(self.a + other.a), abs(self.b + other.b),
            abs(self.c + other.c), abs(self.d + other.d),
        )
        return min(g1, g2)

    def entries(self):
        return (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return f"Moebius({self.a:.6g}, {self.b:.6g}, {self.c:.6g}, {self.d:.6g})"


def _first_nonzero(*vals):
    for v in vals:
        if v != 0:
            return v
    return 0.0


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

    @classmethod
    def through(cls, p, q) -> "HGeodesic":
        """The geodesic through two interior points, oriented p -> q."""
        p, q = check_point(p), check_point(q)
        if abs(p.real - q.real) <= 1e-14 * max(1.0, abs(p.real)):
            x0 = p.real
            return cls(x0, INF) if q.imag > p.imag else cls(INF, x0)
        c = (abs(p) ** 2 - abs(q) ** 2) / (2.0 * (p.real - q.real))
        r = abs(p - c)
        u, v = c - r, c + r
        # orient so q lies forward of p
        g = cls(u, v)
        return g if g.param(q) > g.param(p) else cls(v, u)

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
            return self.project_boundary(float(z))
        return self.at(self.param(z))

    def project_boundary(self, xi: float) -> complex:
        return self.at(self.param_boundary(xi))

    def point_along(self, base, T: float) -> complex:
        """The point at signed arclength T from a point of the line."""
        return self.at(self.param(base) + T)

    def reversed(self) -> "HGeodesic":
        return HGeodesic(self.pos, self.neg)

    def boundary(self):
        return (self.neg, self.pos)


def rotation_about_i(theta: float) -> Moebius:
    """Elliptic rotation by angle theta around the point i."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return Moebius(c, -s, s, c)


def point_at(origin: complex, theta: float, rho: float) -> complex:
    """Point at hyperbolic distance rho from ``origin``, direction theta.

    theta = pi/2 points straight up.  Evaluated in closed form so that
    very large rho stays representable.
    """
    origin = check_point(origin)
    # geodesic polar formula around i, then translate i -> origin
    c = math.cos((math.pi / 2.0 - theta) / 2.0)
    s = math.sin((math.pi / 2.0 - theta) / 2.0)
    e = math.exp(rho)
    den = c * c + s * s * e * e
    zx = c * s * (e * e - 1.0) / den
    zy = e / den
    y0 = origin.imag
    return complex(y0 * zx + origin.real, y0 * zy)


class HalfPlane:
    """The half-plane as a model space: points are complex numbers,
    isometries Moebius matrices, boundary points reals or inf."""

    def dist(self, p, q) -> float:
        return dist(p, q)

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

    def point_on_geodesic(self, p, q, t: float) -> complex:
        t = min(max(t, 0.0), dist(p, q))
        return HGeodesic.through(p, q).point_along(p, t)

    def circumcenter(self, pts):
        """Line searches toward the current farthest point: the maximal
        distance is convex along geodesics."""
        def radius(z):
            return max(dist(z, p) for p in pts)

        center = pts[0]
        rad = radius(center)
        for _ in range(400):
            far = max(pts, key=lambda p: dist(center, p))
            span = dist(center, far)
            if span < 1e-15:
                break
            geo = HGeodesic.through(center, far)
            t0 = geo.param(center)
            lo, hi = 0.0, span
            for _ in range(90):
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                if radius(geo.at(t0 + m1)) <= radius(geo.at(t0 + m2)):
                    hi = m2
                else:
                    lo = m1
            new_center = geo.at(t0 + (lo + hi) / 2.0)
            new_rad = radius(new_center)
            if rad - new_rad < 1e-12:
                if new_rad < rad:
                    center, rad = new_center, new_rad
                break
            center, rad = new_center, new_rad
        return center, rad

    def geodesic_from_boundary(self, neg: float, pos: float) -> HGeodesic:
        return HGeodesic(neg, pos)

    def act(self, g: Moebius, x):
        return g(x)

    def compose(self, g: Moebius, h: Moebius) -> Moebius:
        return g @ h

    def power(self, g: Moebius, n: int) -> Moebius:
        return g ** n

    def is_identity(self, g: Moebius) -> bool:
        return g.is_identity()

    def iso_key(self, g: Moebius) -> tuple:
        return tuple(round(v, 9) for v in g.entries())

    def boundary_eq(self, x, y) -> bool:
        return boundary_eq(x, y)

    def classify(self, g: Moebius) -> IsometryProfile:
        """Classify by |trace|; near the parabolic border the orbit growth
        rate is consulted as an independent tiebreaker."""
        tr = abs(g.trace())
        if abs(tr - 2.0) <= CROSS_CHECK_BAND:
            orbit = isometry.orbit_translation_length(g)
            trace_par = abs(tr - 2.0) <= PARABOLIC_BAND
            if trace_par and orbit > AMBIGUITY_TOL:
                raise AmbiguityError(
                    "trace says parabolic but the orbit translates",
                    trace_diag=tr, orbit_diag=orbit)
            if not trace_par:
                ell_tr = 2.0 * math.acosh(tr / 2.0) if tr > 2.0 else 0.0
                if abs(ell_tr - orbit) > AMBIGUITY_TOL:
                    raise AmbiguityError(
                        "trace and orbit translation lengths disagree",
                        trace_diag=ell_tr, orbit_diag=orbit)
        if tr > 2.0 + PARABOLIC_BAND:
            ell = 2.0 * math.acosh(tr / 2.0)
            rep, att = _fixed_boundary_pair(g)
            return IsometryProfile("hyperbolic", ell, ell,
                                   axis=HGeodesic(rep, att),
                                   fixed_boundary=(rep, att))
        if tr >= 2.0 - PARABOLIC_BAND:
            if g.is_identity():
                return IsometryProfile("elliptic", 0.0, 0.0, fixed_point=1j)
            fx = _parabolic_fixed_point(g)
            return IsometryProfile("parabolic", 0.0, 0.0, fixed_boundary=(fx,))
        return IsometryProfile("elliptic", 0.0, 0.0,
                               fixed_point=_elliptic_fixed_point(g))


def _fixed_boundary_pair(g):
    """(repelling, attracting) boundary fixed points of a hyperbolic matrix."""
    a, b, c, d = g.entries()
    if abs(c) < 1e-300:
        # fixed points are inf and b/(d-a)
        other = b / (d - a) if abs(d - a) > 0 else 0.0
        roots = [INF, other]
    else:
        disc = math.sqrt((d - a) * (d - a) + 4.0 * b * c)
        roots = [((a - d) + disc) / (2.0 * c), ((a - d) - disc) / (2.0 * c)]
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


def _elliptic_fixed_point(g):
    a, b, c, d = g.entries()
    disc = complex((d - a) * (d - a) + 4.0 * b * c) ** 0.5
    z1 = ((a - d) + disc) / (2.0 * c)
    z2 = ((a - d) - disc) / (2.0 * c)
    return z1 if z1.imag > 0 else z2


H2 = HalfPlane()


def sample_ball(center: complex, R: float, n: int, rng) -> list[complex]:
    """n points uniform in hyperbolic area on the closed ball B(center, R).

    Radius is drawn by inverting the area CDF (density sinh), angle
    uniform; equivalent in law to disk-model rejection sampling but with
    no rejections and no precision loss at large R.
    """
    center = check_point(center)
    if R <= 0 or n < 1:
        raise InputError("need R > 0 and n >= 1")
    pts = []
    # cosh R - 1 computed stably for both tiny and huge R
    cap = 2.0 * math.sinh(R / 2.0) ** 2
    for _ in range(n):
        u = rng.random()
        rho = 2.0 * math.asinh(math.sqrt(u * cap / 2.0))
        theta = rng.random() * 2.0 * math.pi
        pts.append(point_at(center, theta, rho))
    return pts
