"""Max-modulus scans, order fitting, ray residual traces, and the
growth-theorem verification harness.

All modulus bookkeeping is done on log|f| so constructed functions of
order n can be scanned far past double-precision overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, get_args

import numpy as np

from .classic import ClassicDCA, log_dca_polar
from .construct import ConstructedF, log_f_polar, log_residual_polar
from .geometry import (
    TWO_PI,
    EmptySliceError,
    PathSystem,
    _domain_arcs,
    angular_measure,
    carleman_report,
)
from .logcx import wrap_angle
from .specs import Polynomial, Series, from_kind_table, target_from_json_dict

_REFINE_TOL = 1e-6  # angular resolution of the grid polish at an arc end
_VERTEX_WIDTH = 1e-3  # bracket width at which a parabolic vertex ends the polish
_GRID = 32  # polish probes per bracket and grid step
_MAX_COARSE = 10**6  # largest coarse probe count of a circle
# most points one evaluation call of a scan holds: the evaluators'
# temporaries then stay under about 1 MB however many circles a scan takes,
# while the calls are long enough that numpy's per-call cost is small
_MAX_PROBES = 1024


class InsufficientDynamicRangeError(ValueError):
    """Samples span too little growth to fit an order."""


@dataclass(frozen=True)
class Constructed:
    """EntireSpec variant wrapping a contour-integral construction."""

    kind = "constructed"
    cf: ConstructedF

    @property
    def declared_order(self) -> float:
        return float(self.cf.n)

    def log_abs(self, r, theta):
        return log_f_polar(r, theta, self.cf).real

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "n": self.cf.n,
                "targets": [t.to_json_dict() for t in self.cf.a_list]}

    @classmethod
    def from_json_dict(cls, d: dict) -> Constructed:
        return cls(ConstructedF(d["n"], tuple(map(target_from_json_dict, d["targets"]))))


@dataclass(frozen=True)
class Classic:
    """EntireSpec variant wrapping the order-n/2 integral example."""

    kind = "classic"
    cfg: ClassicDCA

    @property
    def declared_order(self) -> float:
        return self.cfg.n / 2.0

    def log_abs(self, r, theta):
        return log_dca_polar(r, theta, self.cfg.n).real

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "n": self.cfg.n}

    @classmethod
    def from_json_dict(cls, d: dict) -> Classic:
        return cls(ClassicDCA(d["n"]))

    @classmethod
    def from_cli(cls, payload: str, read) -> Classic:
        """classic:n (read is unused)."""
        return cls(ClassicDCA(int(payload)))


# every kind answers log_abs(r, theta), declared_order and to_json_dict(),
# and carries its kind and from_json_dict: see specs
EntireSpec = Polynomial | Series | Constructed | Classic
SPEC_KINDS = {cls.kind: cls for cls in get_args(EntireSpec)}


def _log_mods(spec: EntireSpec, r, theta):
    """log|f| at each polar point r e^{i theta} of the arrays r and theta,
    in one array evaluation."""
    return spec.log_abs(r, theta)


# ---------------------------------------------------------------------------
# funcspec/1 serialization

def spec_to_json_dict(spec: EntireSpec) -> dict:
    return {"format": "funcspec/1", **spec.to_json_dict()}


def spec_from_json_dict(d: dict) -> EntireSpec:
    if d.get("format") != "funcspec/1":
        raise ValueError("not a funcspec/1 document")
    return from_kind_table(SPEC_KINDS, d, "unknown funcspec kind %r")


# ---------------------------------------------------------------------------
# circle scans

@dataclass(frozen=True)
class GrowthSample:
    r: float
    log_max_mod: float
    argmax_theta: float
    domain_id: int | None
    samples_used: int


def _log_mods_chunked(spec: EntireSpec, r, theta):
    """log|f| at the polar points of the arrays r and theta, in calls of at
    most _MAX_PROBES points each.  Every evaluator's value at a point does
    not depend on the other points of its call, so the chunking changes no
    bit."""
    if theta.size <= _MAX_PROBES:
        return np.asarray(_log_mods(spec, r, theta), dtype=float)
    return np.concatenate([
        np.asarray(_log_mods(spec, r[i:i + _MAX_PROBES], theta[i:i + _MAX_PROBES]), dtype=float)
        for i in range(0, theta.size, _MAX_PROBES)
    ])


def _refine(g, lo, hi, th, val, tol):
    """Polish of the brackets [lo, hi], three per circle (circle c's at
    3c..3c+2, an unused one of width 0), from each circle's best angle and
    value so far (arrays th, val); all four arrays are updated in place.

    Each step calls g (an array of angles and one of the brackets they
    belong to, to an array of values) once.  A bracket wider than tol gets
    _GRID equally spaced interior points and narrows to the neighbours of
    its best one.  When that leaves it wider than tol but no wider than
    _VERTEX_WIDTH, and its best point is inside the grid, the bracket's
    next and last probe is the vertex of the parabola through that point
    and its two neighbours (successive parabolic interpolation; Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 5).  Since
    that point is at least as high as both neighbours, the vertex lies
    within half a grid step of it.  A best point at an end of the grid (a
    maximum at an arc end, a flat circle) keeps the grid until the bracket
    is no wider than tol, and the vertices ride in its calls.  At each
    step a circle takes the best value of its brackets, the first of
    equals, when it beats its best so far.  Returns the number of
    evaluations per circle."""
    used = np.zeros(lo.size, int)
    steps = np.arange(1, _GRID + 1)
    first = 3 * np.arange(th.size)
    top, top_at = np.empty(lo.size), np.empty(lo.size)
    vertex, at = np.empty(0), np.empty(0, int)  # pending vertices, their brackets
    while True:
        wide = (hi - lo > tol).nonzero()[0]
        if not (wide.size or at.size):
            return used.reshape(-1, 3).sum(axis=1)
        lw = lo[wide]
        h = (hi[wide] - lw) / (_GRID + 1)
        grid = lw[:, None] + h[:, None] * steps
        angles = np.concatenate([grid.ravel(), vertex])
        vals = g(angles, np.concatenate([np.repeat(wide, _GRID), at]))
        grid_vals = vals[:grid.size].reshape(grid.shape)
        i = grid_vals.argmax(axis=1)
        rows = np.arange(wide.size)
        top_th = grid[rows, i]
        # each bracket's best new value (-inf where it took no probe)
        top.fill(-np.inf)
        top[wide], top_at[wide] = grid_vals[rows, i], top_th
        if at.size:
            top[at], top_at[at] = vals[grid.size:], vertex
            used[at] += 1
        best = first + top.reshape(-1, 3).argmax(axis=1)
        up = top[best] > val
        np.copyto(val, top[best], where=up)
        np.copyto(th, top_at[best], where=up)
        used[wide] += _GRID
        lo[wide], hi[wide] = top_th - h, top_th + h
        width = 2.0 * h
        k = ((i > 0) & (i < _GRID - 1) & (width > tol) & (width <= _VERTEX_WIDTH)).nonzero()[0]
        if not k.size:
            vertex, at = vertex[:0], at[:0]
            continue
        ik = i[k]
        y1 = grid_vals[k, ik]
        a, b = grid_vals[k, ik - 1] - y1, grid_vals[k, ik + 1] - y1  # a < 0, b <= 0
        shift = h[k] * (a - b) / (2.0 * (a + b))
        # NaN where a value is infinite or NaN: the best point itself
        vertex = top_th[k] + np.where(np.isnan(shift), 0.0, shift)
        at = wide[k]
        hi[at] = lo[at]  # closed: the vertex is its last probe


class _Circle(NamedTuple):
    """A circle to scan: its radius, the ends a, b of its arcs, the probe
    count of each arc and the probe angles."""

    r: float
    a: np.ndarray
    b: np.ndarray
    counts: np.ndarray
    angles: np.ndarray


def _probe_angles(r, sys_domain, coarse) -> _Circle:
    """The arcs of the circle |z| = r to scan and their probes."""
    if sys_domain is None:
        arcs = [(-math.pi, math.pi)]
    else:
        sys_, domain_id = sys_domain
        arcs = angular_measure(sys_, domain_id, r).arcs
        if not arcs:
            raise EmptySliceError("domain %d misses the circle of radius %g" % (domain_id, r))
    a, b = np.array(arcs).T
    counts = np.maximum(4, np.rint(coarse * (b - a) / sum(b - a))).astype(int)
    angles = np.concatenate(
        [a0 + (np.arange(m) + 0.5) * ((b0 - a0) / m) for a0, b0, m in zip(a, b, counts)]
    )
    return _Circle(r, a, b, counts, angles)


def _scan(spec, circles, sys_domain):
    """The samples of the circles (each as _probe_angles gives it), all
    scanned in lockstep: one evaluation of every coarse probe, then one per
    polish step."""
    full = sys_domain is None
    rs = np.array([c.r for c in circles], dtype=float)
    sizes = [c.angles.size for c in circles]
    angles_all = np.concatenate([c.angles for c in circles])
    vals_all = _log_mods_chunked(spec, np.repeat(rs, sizes), angles_all)
    lo, hi = np.zeros(3 * rs.size), np.zeros(3 * rs.size)
    th, val = np.empty(rs.size), np.empty(rs.size)
    start = 0
    for c, (_, a, b, counts, angles) in enumerate(circles):
        vals = vals_all[start:start + angles.size]
        start += angles.size
        # each probe's neighbours, cyclic on the full circle only
        ends = (vals[-1:], vals[:1]) if full else ((-math.inf,), (-math.inf,))
        padded = np.concatenate([ends[0], vals, ends[1]])
        order = np.argsort(-vals, kind="stable")
        peaks = ~(padded[:-2] > vals) & ~(padded[2:] > vals)
        picked = order[peaks[order]][:3]
        # a domain's first and last probes wrap to neighbours outside its
        # arcs, which the clamp replaces by the arc ends
        lo_c = np.concatenate([angles[-1:] - TWO_PI, angles[:-1]])[picked]
        hi_c = np.concatenate([angles[1:], angles[:1] + TWO_PI])[picked]
        if not full:
            lo_c = np.maximum(lo_c, np.repeat(a, counts)[picked])
            hi_c = np.minimum(hi_c, np.repeat(b, counts)[picked])
        lo[3 * c:3 * c + picked.size], hi[3 * c:3 * c + picked.size] = lo_c, hi_c
        th[c], val[c] = angles[order[0]], vals[order[0]]

    r_bracket = np.repeat(rs, 3)

    def g(angles, brackets):
        # probes past -pi or pi are wrapped, so that the angle a circle
        # reports, wrap_angle of its best probe, is the one evaluated
        if np.abs(angles).max(initial=0.0) >= math.pi:
            angles = np.where(angles > math.pi, angles - TWO_PI, angles)
            angles = np.where(angles <= -math.pi, angles + TWO_PI, angles)
        return _log_mods_chunked(spec, r_bracket[brackets], angles)

    used = _refine(g, lo, hi, th, val, _REFINE_TOL)
    domain_id = None if full else sys_domain[1]
    return [
        GrowthSample(c.r, v, wrap_angle(t), domain_id, m + u)
        for c, v, t, m, u in zip(circles, val.tolist(), th.tolist(), sizes, used.tolist())
    ]


def max_on_circles(
    spec: EntireSpec,
    radii,
    sys_domain: tuple[PathSystem, int] | None = None,
    coarse: int = 256,
) -> list:
    """Maxima of log|f| on the circles |z| = r for each r of radii, in
    order, optionally restricted to a domain of a path system.

    Each circle is a list of arcs: the full circle is the one arc
    (-pi, pi), a domain brings the arcs of angular_measure.  Each arc gets
    at least 4 of about `coarse` probes in proportion to its length, at the
    midpoints of equal steps.  The three best local maxima of the probe
    grid (cyclic only on the full circle) are bracketed by their
    neighbouring probes, clamped to the probe's own arc in a domain, and
    polished as _refine says: grid steps of _GRID probes down to a width
    of _VERTEX_WIDTH, then one parabolic vertex per bracket, or grid steps
    down to _REFINE_TOL where the best probe stays at an end of its grid.
    Every probe is a polar point (r, theta), so no evaluator sees a rounded
    r e^{i theta}, and the reported sample is the best value evaluated,
    at the angle evaluated.  samples_used counts every evaluated probe of
    the circle.

    The circles are scanned in lockstep, in groups of at most _MAX_PROBES
    coarse probes: one array call evaluates the coarse probes of a group,
    then one call per polish step the probes of all its open brackets.  No
    call holds more than _MAX_PROBES points, and since the evaluators are
    batch invariant every sample is, bit for bit, the one of its circle
    scanned alone.  A domain restriction at a critical radius of its
    bounding paths raises DegenerateRadiusError, as angular_measure does.
    """
    radii = list(radii)
    if not all(0 < r < math.inf for r in radii):
        raise ValueError("r must be finite and > 0")
    if not 64 <= coarse <= _MAX_COARSE:
        raise ValueError("coarse must lie in [64, %d]" % _MAX_COARSE)
    samples, group, size = [], [], 0
    for r in radii:
        circle = _probe_angles(r, sys_domain, coarse)
        if group and size + circle.angles.size > _MAX_PROBES:
            samples += _scan(spec, group, sys_domain)
            group, size = [], 0
        group.append(circle)
        size += circle.angles.size
    if group:
        samples += _scan(spec, group, sys_domain)
    return samples


def max_on_circle(
    spec: EntireSpec,
    r: float,
    sys_domain: tuple[PathSystem, int] | None = None,
    coarse: int = 256,
) -> GrowthSample:
    """Maximum of log|f| on |z| = r, optionally restricted to a domain of a
    path system: the one-circle case of max_on_circles."""
    return max_on_circles(spec, [r], sys_domain, coarse)[0]


# ---------------------------------------------------------------------------
# order fitting

@dataclass(frozen=True)
class OrderFit:
    rho_hat: float
    intercept: float
    r_range: tuple[float, float]
    residual_rms: float


def fit_order(samples) -> OrderFit:
    """Least-squares slope of log log M against log r, with one
    upper-envelope reweighting pass.

    The order is a limsup, so after the initial fit any sample sitting
    below the line by more than twice the rms residual is deweighted to
    0.1 and the line refit; oscillating max-modulus curves then pull the
    slope toward their upper envelope.
    """
    pts = [(s.r, s.log_max_mod) for s in samples if s.log_max_mod > 1.0]
    if len(pts) < 4:
        raise ValueError("need at least 4 samples with log_max_mod > 1")
    lm = np.array([p[1] for p in pts])
    if lm.max() / lm.min() < 4.0:
        raise InsufficientDynamicRangeError(
            "max/min of log max-modulus is %.3f < 4" % (lm.max() / lm.min())
        )
    x = np.log(np.array([p[0] for p in pts]))
    y = np.log(lm)
    w = np.ones_like(x)
    for _ in range(2):
        A = np.column_stack([x, np.ones_like(x)])
        sol, *_ = np.linalg.lstsq(A * w[:, None], y * w, rcond=None)
        slope, intercept = float(sol[0]), float(sol[1])
        resid = y - (slope * x + intercept)
        rms = float(np.sqrt(np.mean(resid**2)))
        w = np.where(resid < -2.0 * rms, 0.1, 1.0)
    return OrderFit(
        rho_hat=slope,
        intercept=intercept,
        r_range=(float(min(p[0] for p in pts)), float(max(p[0] for p in pts))),
        residual_rms=rms,
    )


# ---------------------------------------------------------------------------
# ray residual traces

def trace_rays(spec: EntireSpec, rays, radii) -> list:
    """(j, r, log10 |f - a_j|) for each target ray j of rays and each r of
    radii, ray after ray, of a constructed spec, in one array evaluation
    of the polar points (r, angle of ray j)."""
    if not isinstance(spec, Constructed):
        raise TypeError("trace_rays needs a Constructed spec")
    radii = np.asarray(radii, dtype=float).ravel()
    if not np.all(np.isfinite(radii)):
        raise ValueError("radii must be finite")
    cf = spec.cf
    rays = list(rays)
    theta = np.repeat([cf.ray_angle(j) for j in rays], radii.size)
    js = np.repeat(np.array(rays, dtype=int), radii.size)
    r = np.tile(radii, len(rays))
    lg = log_residual_polar(r, theta, js, cf).real / math.log(10.0)
    return list(zip(js.tolist(), r.tolist(), lg.tolist()))


def trace_ray(spec: EntireSpec, j: int, radii) -> list:
    """(r, log10 |f - a_j|) along target ray j of a constructed spec: the
    one-ray case of trace_rays."""
    return [(r, lg) for _, r, lg in trace_rays(spec, [j], radii)]


# ---------------------------------------------------------------------------
# verification harness

@dataclass(frozen=True)
class RadiusCheck:
    r: float
    j_selected: int
    log_max_measured: float
    logM_lower: float
    consistent: bool


@dataclass(frozen=True)
class Theorem1Report:
    """Finite-range probes of the growth theorem: a sampled maximum of
    log|f|/|z|^kappa per domain (hypothesis), the sampled minimum of
    log M(r)/r^{n/2} (conclusion), and per-radius comparison of the
    measured sector maximum against the Carleman lower bound.

    All limit statements are checked on the sampled range only; the
    fields say what was measured, not that a limit exists.
    """

    kappa: float
    n: int
    R1: float
    hypothesis_max: tuple  # per-domain max of log|f|/|z|^kappa over samples
    hypothesis_flags: tuple  # per-domain: True when some sample is positive
    hypothesis_met: bool
    conclusion_min_ratio: float  # min over radii of log M(r,f)/r^{n/2}
    conclusion_positive: bool
    radius_checks: tuple
    consistent_all: bool


def verify_theorem1(
    spec: EntireSpec,
    sys: PathSystem,
    R1: float,
    radii,
    kappa: float = 0.5,
    coarse: int = 128,
) -> Theorem1Report:
    """Probe the growth theorem on a finite radius range.

    (a) hypothesis: per domain j, the sampled maximum of log|f|/|z|^kappa
        over the circles; flagged per domain when never positive.
    (b) conclusion: the sampled minimum of log M(r,f)/r^{n/2}.
    (c) consistency: for each radius the best-growing sector's measured
        maximum is compared against the reciprocal-Carleman lower bound
        (pi/8) e^{pi I} from R1 to r; slack 10% on the log scale.
    """
    radii = sorted(float(r) for r in radii)
    if not radii or radii[0] <= R1:
        raise ValueError("radii must all exceed R1")
    n = sys.n
    # the circles each domain meets, found radius by radius so that a
    # degenerate radius raises where a scan of (r, j) in that order would
    meets = {(r, j): bool(arcs) for r in radii for j, (arcs, _) in enumerate(_domain_arcs(sys, r), 1)}
    per_domain: dict[int, list[float]] = {j: [] for j in range(1, n + 1)}
    sector_max: dict[float, dict[int, float]] = {r: {} for r in radii}
    for j in range(1, n + 1):
        # one lockstep scan per domain; batch invariance makes each sample
        # that of its circle scanned alone
        domain_radii = [r for r in radii if meets[r, j]]
        for gs in max_on_circles(spec, domain_radii, (sys, j), coarse=coarse):
            sector_max[gs.r][j] = gs.log_max_mod
            per_domain[j].append(gs.log_max_mod / gs.r**kappa)
    hyp_max = tuple(
        max(per_domain[j]) if per_domain[j] else -math.inf for j in range(1, n + 1)
    )
    hyp_flags = tuple(v > 0.0 for v in hyp_max)
    # finite samples cannot see log|f|/|z|^kappa -> 0; when the spec
    # declares an order below kappa the hypothesis is known unmet
    rho = spec.declared_order
    order_ok = math.isnan(rho) or rho >= kappa
    conclusion = min(
        s.log_max_mod / s.r ** (n / 2.0) for s in max_on_circles(spec, radii, coarse=coarse)
    )
    checks = []
    for r in radii:
        if not sector_max[r]:
            continue
        j_sel = max(sector_max[r], key=lambda j: sector_max[r][j])
        rep = carleman_report(sys, j_sel, R1, r)
        measured = sector_max[r][j_sel]
        checks.append(
            RadiusCheck(
                r=r,
                j_selected=j_sel,
                log_max_measured=measured,
                logM_lower=rep.logM_lower,
                consistent=measured >= 0.9 * rep.logM_lower,
            )
        )
    return Theorem1Report(
        kappa=kappa,
        n=n,
        R1=R1,
        hypothesis_max=hyp_max,
        hypothesis_flags=hyp_flags,
        hypothesis_met=any(hyp_flags) and order_ok,
        conclusion_min_ratio=conclusion,
        conclusion_positive=conclusion > 0.0,
        radius_checks=tuple(checks),
        consistent_all=all(c.consistent for c in checks),
    )
