"""Segmental paths, the domains between adjacent paths, angular measures,
and the harmonic-measure/growth bound formulas attached to them.

All geometry stays on polyline data.  Angular measures are read off the
directions in which the two bounding paths cross a circle.  Between two
consecutive critical radii, or radii where the two paths meet, the
crossings keep their order, so the measure is a sum of arguments of the
crossings' segment parameters in closed form; the Carleman integral
integrates that form on each such interval.  Point membership closes the
two bounding paths with a far circular arc and takes a winding number.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .logcx import wrap_angle
from .quadrature import integrate_segment

TWO_PI = 2.0 * math.pi
# circle_crossing_angles raises exactly within _DEGEN_EPS * max(t, 1) of a
# critical radius
_DEGEN_EPS = 1e-12


def _check_radius(name: str, t: float) -> None:
    """ValueError naming t unless t > 0 and 2 t^2 is finite: a terminal ray's
    crossing quadratic holds |d|^2 t^2, and |d|^2 may round an ulp above 1."""
    if not (t > 0.0 and math.isfinite(2.0 * t * t)):
        raise ValueError("%s %g is out of range: need t > 0 and 2 t^2 finite" % (name, t))


class DegenerateRadiusError(RuntimeError):
    """Circle of this radius is tangent to a segment or hits a vertex."""


class LabelConflictError(ValueError):
    """Two paths meet beyond the disk but carry different labels."""


class EmptySliceError(ValueError):
    """Requested domain does not meet the circle of this radius."""


@dataclass(frozen=True)
class SegmentalPath:
    """Polyline from 0 plus a terminal ray from the last vertex.

    vertices[0] must be 0; the path continues from vertices[-1] in
    direction terminal_direction forever.
    """

    vertices: tuple
    terminal_direction: complex

    def __init__(self, vertices, terminal_direction):
        vs = tuple(complex(v) for v in vertices)
        if not vs or vs[0] != 0:
            raise ValueError("path must start at the origin")
        u = complex(terminal_direction)
        if u == 0:
            raise ValueError("terminal direction must be nonzero")
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "terminal_direction", u / abs(u))

    @staticmethod
    def ray(angle: float) -> "SegmentalPath":
        return SegmentalPath((0j,), cmath.exp(1j * angle))

    @property
    def terminal_angle(self) -> float:
        return wrap_angle(cmath.phase(self.terminal_direction))

    @cached_property
    def _elements(self) -> tuple:
        """The path as (a, d, s_max) triples, the points a + s d with
        0 <= s <= s_max: each segment (v_i, v_{i+1} - v_i, 1.0), then the
        terminal ray (v_last, unit direction, inf)."""
        vs = self.vertices
        segments = tuple((a, b - a, 1.0) for a, b in zip(vs, vs[1:]))
        return segments + ((vs[-1], self.terminal_direction, math.inf),)

    def exit_point(self, radius: float) -> complex:
        """Point where the terminal ray crosses |z| = radius (requires the
        ray origin inside that circle)."""
        a, u, _ = self._elements[-1]
        if abs(a) >= radius:
            raise ValueError("radius must exceed the last vertex radius")
        b = (a * u.conjugate()).real
        # s = -b + sqrt(b^2 + radius^2 - |a|^2), with no square of radius to overflow
        s = -b + math.hypot(b, math.sqrt(radius - abs(a)) * math.sqrt(radius + abs(a)))
        return a + s * u

    def critical_radii(self) -> list:
        """Sorted radii where the crossings with |z| = t appear, vanish or
        turn non-smooth: vertex moduli, and each element's closest approach
        to 0 when it lies inside that segment or the terminal ray."""
        radii = {abs(v) for v in self.vertices[1:]}
        for a, d, s_max in self._elements:
            s = -(a * d.conjugate()).real / abs(d) ** 2
            if 0.0 < s < s_max:
                radii.add(abs(a + s * d))
        return sorted(radii)

    @cached_property
    def _critical(self) -> tuple:
        return tuple(self.critical_radii())

    @cached_property
    def _crossing_table(self) -> tuple:
        """Per element (a, d, s_max, qa, hb, aa), the radius-free parts of
        the crossing quadratic |a + s d|^2 = t^2, that is
        qa s^2 + 2 hb s + (aa - t^2) = 0."""
        return tuple(
            (a, d, s_max, abs(d) ** 2, (a * d.conjugate()).real, abs(a) ** 2)
            for a, d, s_max in self._elements
        )

    def circle_crossing_angles(self, t: float) -> list:
        """Intersections of the path with |z| = t as (angle, outward)
        pairs, outward being True where |z| increases along the path;
        raises DegenerateRadiusError exactly when t is within
        _DEGEN_EPS * max(t, 1) of one of critical_radii, where the circle
        passes a vertex or touches the path, and ValueError where
        _check_radius does."""
        _check_radius("radius", t)
        return self._crossings(t)

    def _crossings(self, t: float) -> list:
        """circle_crossing_angles at a radius _check_radius has passed."""
        window = _DEGEN_EPS * max(t, 1.0)
        for c in self._critical:
            if abs(c - t) < window:
                raise DegenerateRadiusError(
                    "circle of radius %g passes a vertex of the path or touches it" % t
                )
        tt = t * t
        angles = []
        for a, d, s_max, qa, hb, aa in self._crossing_table:
            disc = hb * hb - qa * (aa - tt)
            if disc <= 0.0:
                continue
            root = math.sqrt(disc)
            # the smaller root enters the disk, the larger one leaves it
            s = (-hb - root) / qa
            if 0.0 < s < s_max:
                angles.append((wrap_angle(cmath.phase(a + s * d)), False))
            s = (-hb + root) / qa
            if 0.0 < s < s_max:
                angles.append((wrap_angle(cmath.phase(a + s * d)), True))
        return angles


@dataclass(frozen=True)
class PathSystem:
    """n segmental paths in counterclockwise order; domain j sits between
    path j and path j+1 (1-indexed, cyclic)."""

    paths: tuple
    labels: tuple

    def __init__(self, paths, labels=None):
        paths = tuple(paths)
        if not paths:
            raise ValueError("need at least one path")
        if labels is None:
            labels = tuple("a%d" % i for i in range(1, len(paths) + 1))
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(paths):
            raise ValueError("one label per path")
        if len(paths) > 1:
            # counterclockwise = terminal angles strictly increasing when
            # the cycle is rotated to start at its smallest angle
            args = [p.terminal_angle for p in paths]
            k0 = min(range(len(args)), key=lambda i: args[i])
            rot = args[k0:] + args[:k0]
            if any(a >= b for a, b in zip(rot, rot[1:])):
                raise ValueError("paths must be in counterclockwise order")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return len(self.paths)

    def domain_boundary(self, j: int) -> tuple:
        """The two paths bounding domain j (1-indexed)."""
        if not 1 <= j <= self.n:
            raise ValueError("domain index out of range")
        return self.paths[j - 1], self.paths[j % self.n]

    @property
    def max_vertex_radius(self) -> float:
        return max(abs(v) for p in self.paths for v in p.vertices)

    def to_json_dict(self) -> dict:
        paths = [
            {"vertices": [[v.real, v.imag] for v in p.vertices],
             "terminal_direction": p.terminal_angle, "label": lab}
            for p, lab in zip(self.paths, self.labels)
        ]
        return {"format": "pathsystem/1", "paths": paths}

    @staticmethod
    def from_json_dict(d: dict) -> "PathSystem":
        if d.get("format") != "pathsystem/1":
            raise ValueError("not a pathsystem/1 document")
        paths, labels = [], []
        for entry in d["paths"]:
            vs = [complex(re, im) for re, im in entry["vertices"]]
            paths.append(SegmentalPath(vs, cmath.exp(1j * float(entry["terminal_direction"]))))
            labels.append(entry.get("label", "a%d" % (len(labels) + 1)))
        return PathSystem(tuple(paths), tuple(labels))

    @staticmethod
    def equally_spaced_rays(n: int) -> "PathSystem":
        """Rays at angles 2 pi k / n, k = 1..n, labelled a1..an."""
        return PathSystem(SegmentalPath.ray(wrap_angle(TWO_PI / n + TWO_PI * k / n)) for k in range(n))


@dataclass(frozen=True)
class AngularSlice:
    """Arcs of a circle of radius t inside one domain; phi is the total
    angular measure (radians)."""

    t: float
    arcs: tuple
    phi: float

    def __post_init__(self):
        if not -1e-12 <= self.phi <= TWO_PI + 1e-12:
            raise ValueError("phi out of [0, 2 pi]")


@dataclass(frozen=True)
class CarlemanReport:
    R1: float
    R: float
    integral_I: float
    omega_bound: float
    logM_lower: float
    # exponents rho < kappa1 < kappa2 < kappa of the growth hypothesis
    kappa: float = 0.5
    kappa1: float = 0.25
    kappa2: float = 0.4


# ---------------------------------------------------------------------------
# membership

def point_in_domain(sys: PathSystem, j: int, p: complex) -> bool:
    """Membership in domain j: the winding number about p of the loop out
    along path j to the circle of radius 4 * max(|p|, vertex reach, 1),
    counterclockwise along that circle, and back along path j+1.  Each leg
    turns by the change in argument of its points as seen from p, wrapped
    into [-π, π) along a segment and into [0, 2π) along the arc, which p
    lies inside (a full turn when the arc's ends coincide).  Arguments of
    differences neither overflow nor underflow where their products would.
    Raises ValueError where that radius is not finite."""
    p = complex(p)
    g1, g2 = sys.domain_boundary(j)
    r_big = 4.0 * max(abs(p), sys.max_vertex_radius, 1.0)
    if not math.isfinite(r_big):
        raise ValueError("point %r is too far out for a membership test" % p)
    e1, e2 = g1.exit_point(r_big), g2.exit_point(r_big)
    steps = np.diff(np.angle(np.array(g1.vertices + (e1, e2) + g2.vertices[::-1]) - p))
    turns = (steps + math.pi) % TWO_PI - math.pi
    arc = len(g1.vertices)  # the step from e1 to e2
    turns[arc] = steps[arc] % TWO_PI if e1 != e2 else TWO_PI
    return round(float(turns.sum()) / TWO_PI) != 0


# ---------------------------------------------------------------------------
# angular measure and the growth-bound formulas

def angular_measure(sys: PathSystem, j: int, t: float) -> AngularSlice:
    """Arcs of |z| = t lying in domain j, read off the boundary crossings.

    Domain j lies left of path j and right of path j+1, both traversed
    outward, so a counterclockwise arc between consecutive crossings is
    inside exactly when it starts at an outward crossing of path j or an
    inward crossing of path j+1; for a single path every arc is inside.
    Phi_j(t) is defined where the two bounding paths do not meet outside
    radius t, which normalize_collection guarantees beyond its disk.
    Raises DegenerateRadiusError where circle_crossing_angles does: when
    |z| = t passes through a vertex of either path or touches one, and
    ValueError where _check_radius does.
    """
    _check_radius("radius", t)
    g1, g2 = sys.domain_boundary(j)
    return AngularSlice(t, *_arcs(g1._crossings(t), None if g2 is g1 else g2._crossings(t)))


def _arcs(left: list, right: list | None) -> tuple:
    """(arcs, phi) of the domain left of the path with crossings `left` and
    right of the one with crossings `right` (None where the domain is
    bounded by one path, whose every arc is inside).  Sorted by angle, the
    counterclockwise arc from each crossing to the next (the last one wraps
    to the first) is inside where it starts inside; arcs shorter than 1e-15
    are skipped, and phi is capped at 2 pi."""
    if right is None:
        crossings = [(th, True) for th, _ in left]
    else:
        crossings = left + [(th, not out) for th, out in right]
    crossings.sort()
    arcs = []
    total = 0.0
    last = len(crossings) - 1
    for i, (th, starts_inside) in enumerate(crossings):
        th_next = crossings[i + 1][0] if i < last else crossings[0][0] + TWO_PI
        if th_next - th < 1e-15:
            continue
        if starts_inside:
            arcs.append((th, th_next))
            total += th_next - th
    return tuple(arcs), min(total, TWO_PI)


def _domain_arcs(sys: PathSystem, t: float):
    """angular_measure's (arcs, phi) for j = 1..n in turn, each path's
    crossings with |z| = t found once, when the first domain it bounds
    needs them, so a failure comes where angular_measure over j = 1..n
    would raise first."""
    _check_radius("radius", t)
    first = left = sys.paths[0]._crossings(t)
    for path in sys.paths[1:]:
        right = path._crossings(t)
        yield _arcs(left, right)
        left = right
    yield _arcs(left, None if sys.n == 1 else first)


def _phi_near(sys: PathSystem, j: int, t0: float):
    """Phi_j(t0), and the change of Phi_j from t0 as a function on arrays of
    radii, exact while the crossings with |z| = t keep their order at t0: a
    crossing on the element a + s d lies at angle arg d + arg(a/d + s), with
    s(t) a root of |a + s d| = t (clamped at a tangency), and s is real, so
    the second term never wraps.  An inside arc adds its end angle and
    subtracts its start angle."""
    phi0 = angular_measure(sys, j, t0).phi
    g1, g2 = sys.domain_boundary(j)
    if g2 is g1:
        return phi0, lambda ts: 0.0 * np.asarray(ts)
    # every element once per root; a crossing starts an inside arc where it
    # leaves the disk along path j or enters it along path j+1, as in
    # angular_measure
    roles = ((g1, -1.0, False), (g1, 1.0, True), (g2, -1.0, True), (g2, 1.0, False))
    rows = [(*e, sign, start) for g, sign, start in roles for e in g._elements]
    a, d, s_max, sign, starts = (np.array(x) for x in zip(*rows))
    qa, hb, aa = (d * d.conj()).real, (a * d.conj()).real, (a * a.conj()).real

    def roots(t):  # reads the arrays of the crossings kept below
        disc = hb * hb - qa * (aa - t * t)
        return (-hb + sign * np.sqrt(np.maximum(disc, 0.0))) / qa, disc

    s0, disc0 = roots(t0)
    live = np.flatnonzero((disc0 > 0.0) & (s0 > 0.0) & (s0 < s_max))
    live = live[np.argsort(np.angle(a + s0 * d)[live])]
    sigma = np.roll(starts[live], 1).astype(float) - starts[live]
    p, sign, qa, hb, aa, s0 = (x[live] for x in (a / d, sign, qa, hb, aa, s0))
    arg0 = np.angle(p + s0)
    return phi0, lambda ts: (np.angle(p + roots(np.asarray(ts, float)[..., None])[0]) - arg0) @ sigma


def _smooth_intervals(sys: PathSystem, j: int, R: float) -> list:
    """[lo, hi, t0] triples covering [0, R], cut at the critical radii of the
    paths bounding domain j and at the moduli of their meeting points, where
    the crossings with |z| = t change order.  An interval no longer than four
    windows _DEGEN_EPS * max(t, 1) joins the one before it, whose midpoint
    t0 is kept, so no t0 is a degenerate radius."""
    g1, g2 = sys.domain_boundary(j)
    pairs = ((e1, e2) for e1 in g1._elements for e2 in g2._elements)
    radii = {*g1._critical, *g2._critical}
    radii.update(abs(z) for e1, e2 in pairs for z in _intersect_elements(e1, e2))
    knots = sorted({0.0, R, *(r for r in radii if 0.0 < r < R)})
    out = []
    for lo, hi in zip(knots, knots[1:]):
        if not out or hi - lo > 4.0 * _DEGEN_EPS * max(hi, 1.0):
            out.append([lo, hi, 0.5 * (lo + hi)])
        else:
            out[-1][1] = hi
    return out


def carleman_integral(
    sys: PathSystem, j: int, R1: float, R: float, tol: float = 1e-10
) -> float:
    """Integral of 1/(t * Phi_j(t)) over [R1, R].

    On each of the _smooth_intervals, Phi_j is in closed form from one
    angular_measure call at t0 (_phi_near).  In x = ln t the integrand is
    1/Phi_j, so the interval's part [a, b] of [R1, R] gives ln(b/a)/Phi_j(t0)
    plus the integral of 1/Phi_j - 1/Phi_j(t0), exactly 0 where Phi_j is
    constant.  That is taken in u, x = ln lo + ln(hi/lo) u^2 (3 - 2u) on
    u(a) <= u <= u(b), anchored at the interval's ends (at a where lo = 0)
    to smooth the square-root behaviour of Phi_j at a tangency there even
    for a part that starts just past it, with tol prorated by
    ln(b/a) / ln(R/R1).  Raises EmptySliceError where Phi_j is within
    _DEGEN_EPS of 0 at an end of a part, as where the two paths meet and
    close the domain, so the integral diverges.
    """
    if not 0 < R1 <= R:
        raise ValueError("need 0 < R1 <= R")
    _check_radius("R =", R)
    if R1 == R:
        return 0.0
    total = 0.0
    tol_per_log = tol / math.log(R / R1)
    for lo, hi, t0 in _smooth_intervals(sys, j, R):
        a, b = max(lo, R1), min(hi, R)
        if a >= b:
            continue
        phi0, change = _phi_near(sys, j, t0)
        ends = phi0 + change(np.array([a, b]))
        if ends.min() <= _DEGEN_EPS:
            raise EmptySliceError("domain %d misses the circle at t=%g" % (j, (a, b)[ends.argmin()]))
        x0 = math.log(lo if lo > 0.0 else a)
        span = math.log(hi) - x0
        # u(t) solves u^2 (3 - 2u) = (ln t - x0) / span on [0, 1]
        ua, ub = (0.5 + math.sin(math.asin(2.0 * (math.log(t) - x0) / span - 1.0) / 3.0) for t in (a, b))

        def piece(us):
            u = us.real
            dphi = change(np.exp(x0 + span * u * u * (3.0 - 2.0 * u)))
            return -span * 6.0 * u * (1.0 - u) * dphi / (phi0 * (phi0 + dphi))

        part = math.log(b / a)
        total += part / phi0 + integrate_segment(piece, ua, ub, tol_per_log * part).value.real
    return float(total)


def carleman_report(
    sys: PathSystem,
    j: int,
    R1: float,
    R: float,
    tol: float = 1e-10,
) -> CarlemanReport:
    """Harmonic-measure upper bound and max-modulus lower bound for domain
    j between radii R1 and R; the two are exact reciprocals."""
    integral = carleman_integral(sys, j, R1, R, tol)
    om0 = (8.0 / math.pi) * math.exp(-math.pi * integral)
    # the two bounds are exact reciprocals; nudge within one ulp so the
    # stored floats multiply to exactly 1
    def near(x):
        return x, math.nextafter(x, math.inf), math.nextafter(x, 0.0)

    omega_bound, logm_lower = next(
        ((om, lm) for om in near(om0) for lm in near(1.0 / om) if om * lm == 1.0),
        (om0, 1.0 / om0),  # not reached in practice
    )
    return CarlemanReport(R1=R1, R=R, integral_I=integral, omega_bound=omega_bound,
                          logM_lower=logm_lower)


def check_sector_inequality(sys: PathSystem, t: float):
    """Cauchy-Schwarz bound sum_j 1/Phi_j(t) >= n^2 / (2 pi); returns
    (lhs, rhs, holds).  Phi_j(t) is angular_measure's, from _domain_arcs'
    one pass over the paths' crossings with |z| = t; raises what
    angular_measure over j = 1..n would raise first, or EmptySliceError
    for the first j whose Phi_j(t) is 0."""
    return _sector_pass(sys, t)[0]


def _sector_pass(sys: PathSystem, t: float):
    """check_sector_inequality's (lhs, rhs, holds), and the (arcs, phi) of
    j = 1..n that it read from _domain_arcs, for a caller that writes the
    slices as well; raises as check_sector_inequality does."""
    slices = []
    lhs = 0.0
    for j, sl in enumerate(_domain_arcs(sys, t), 1):
        if sl[1] <= 0:
            raise EmptySliceError("domain %d misses the circle at t=%g" % (j, t))
        lhs += 1.0 / sl[1]
        slices.append(sl)
    rhs = sys.n * sys.n / TWO_PI
    return (lhs, rhs, lhs >= rhs * (1.0 - 1e-9)), slices


def a0_constant(kappa1: float) -> float:
    """Constant in the closed-form bound for the harmonic majorant of
    t^{kappa1}: 20 / ((1/2 - kappa1) 4^{1/2 - kappa1})."""
    if not 0.0 < kappa1 < 0.5:
        raise ValueError("kappa1 must lie in (0, 1/2)")
    e = 0.5 - kappa1
    return 20.0 / (e * 4.0**e)


# ---------------------------------------------------------------------------
# collection normalization

def _intersect_elements(e1, e2, eps: float = 1e-12) -> list:
    """Intersection points of two path elements (a, d, s_max), each the
    points a + s d with 0 <= s <= s_max: a segment (s_max = 1) or a ray
    (s_max = inf).  Collinear overlaps report both overlap endpoints; the
    far end of an overlap along two rays is the point at infinity,
    complex(inf).  Elements that are not collinear meet where their lines
    do, if that point is within the reach of both, however far out: two
    rays 1e-13 rad apart meet near 1e13."""
    a, r, m1 = e1
    c, s, m2 = e2
    denom = (r.conjugate() * s).imag  # cross(r, s)
    qp = c - a
    off_line = (qp.conjugate() * r).imag  # cross(qp, r)
    near_parallel = abs(denom) < eps * max(abs(r) * abs(s), 1e-30)
    if near_parallel and abs(off_line) <= eps * max(abs(qp) * abs(r), 1e-30):
        # collinear: project onto r
        rr = (r.conjugate() * r).real
        t0 = (qp.conjugate() * r).real / rr
        t1 = t0 + m2 * (s.conjugate() * r).real / rr
        lo, hi = max(0.0, min(t0, t1)), min(m1, max(t0, t1))
        if lo > hi:
            return []
        return [a + lo * r, a + hi * r if hi < math.inf else complex(math.inf)]
    if denom == 0.0:
        return []  # parallel, not collinear
    # nearly parallel lines meet far out: the reaches decide
    t = (qp.conjugate() * s).imag / denom
    u = off_line / denom
    if -eps <= t <= m1 + eps and -eps <= u <= m2 + eps:
        return [a + t * r]
    return []


def paths_intersect_beyond(p1: SegmentalPath, p2: SegmentalPath, disk_radius: float) -> bool:
    """True when the two paths share a point strictly outside the disk,
    however far out: terminal rays are intersected as true rays, and two
    that overlap collinearly share the point at infinity."""
    pairs = ((e1, e2) for e1 in p1._elements for e2 in p2._elements)
    far = disk_radius * (1.0 + 1e-12)
    return any(abs(pt) > far for e1, e2 in pairs for pt in _intersect_elements(e1, e2))


def normalize_collection(paths, labels, disk_radius: float) -> PathSystem:
    """Prune a labelled path collection to one with pairwise crossings only
    inside the disk and distinct labels on cyclically adjacent paths.

    Paths crossing beyond the disk must share a label (else
    LabelConflictError); one of each such pair is deleted, then one of each
    adjacent equal-label pair, repeated to a fixpoint.
    """
    paths = list(paths)
    labels = [str(s) for s in labels]
    if len(paths) != len(labels):
        raise ValueError("one label per path")
    # stage 1: far crossings, the first crossing pair each time
    while True:
        n = len(paths)
        i, k = next(((i, k) for i in range(n) for k in range(i + 1, n)
                     if paths_intersect_beyond(paths[i], paths[k], disk_radius)), (None, None))
        if i is None:
            break
        if labels[i] != labels[k]:
            raise LabelConflictError(
                "paths %d and %d cross beyond the disk with labels "
                "%r vs %r" % (i, k, labels[i], labels[k])
            )
        del paths[k], labels[k]
    # counterclockwise order
    order = sorted(range(len(paths)), key=lambda i: paths[i].terminal_angle)
    paths = [paths[i] for i in order]
    labels = [labels[i] for i in order]
    # stage 2: adjacent equal labels (cyclically), the first pair each time
    while len(paths) > 1:
        n = len(paths)
        i = next((i for i in range(n) if labels[i] == labels[(i + 1) % n]), None)
        if i is None:
            break
        del paths[(i + 1) % n], labels[(i + 1) % n]
    return PathSystem(tuple(paths), tuple(labels))
