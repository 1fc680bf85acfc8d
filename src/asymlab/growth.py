"""Max-modulus scans, order fitting, ray residual traces, and the
growth-theorem verification harness.

All modulus bookkeeping is done on log|f| via LogComplex so constructed
functions of order n can be scanned far past double-precision overflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass

import numpy as np

from .classic import ClassicDCA, log_dca
from .construct import ConstructedF, eval_f, log_f, log_residual
from .geometry import (
    TWO_PI,
    CarlemanReport,
    EmptySliceError,
    KappaParams,
    PathSystem,
    angular_measure,
    carleman_report,
)
from .logcx import LogComplex, wrap_angle
from .specs import Polynomial, Series

_REFINE_TOL = 1e-6  # angular resolution of the grid polish
_GRID = 32  # polish probes per bracket and step


class InsufficientDynamicRangeError(ValueError):
    """Samples span too little growth to fit an order."""


@dataclass(frozen=True)
class Constructed:
    """EntireSpec variant wrapping a contour-integral construction."""

    cf: ConstructedF

    @property
    def declared_order(self) -> float:
        return float(self.cf.n)


@dataclass(frozen=True)
class Classic:
    """EntireSpec variant wrapping the order-n/2 integral example."""

    cfg: ClassicDCA

    @property
    def declared_order(self) -> float:
        return self.cfg.n / 2.0


EntireSpec = Polynomial | Series | Constructed | Classic


def eval_log(spec: EntireSpec, z: complex) -> LogComplex:
    """log-scale value of the spec'd entire function at z."""
    if isinstance(spec, Constructed):
        return eval_f(z, spec.cf)
    if isinstance(spec, Classic):
        return LogComplex.from_log(log_dca([z], spec.cfg.n)[0])
    return LogComplex.from_complex(spec(z))


def _log_mods(spec: EntireSpec, zs):
    """log|f| at each point of the array zs, in one array evaluation."""
    if isinstance(spec, Constructed):
        return log_f(zs, spec.cf).real
    if isinstance(spec, Classic):
        return log_dca(zs, spec.cfg.n).real
    with np.errstate(divide="ignore"):
        return np.log(np.abs(spec(np.asarray(zs, dtype=complex))))


def declared_order(spec: EntireSpec) -> float:
    return spec.declared_order


# ---------------------------------------------------------------------------
# funcspec/1 serialization

def _cx_list(cs):
    return [[c.real, c.imag] for c in cs]


def _target_dict(t):
    if isinstance(t, Polynomial):
        return {"kind": "poly", "coeffs": _cx_list(t.coeffs)}
    return {
        "kind": "series",
        "coeffs": _cx_list(t.coeffs),
        "tail_bound_radius": t.tail_bound_radius,
        "declared_order": t.declared_order,
    }


def spec_to_json_dict(spec: EntireSpec) -> dict:
    d = {"format": "funcspec/1"}
    if isinstance(spec, (Polynomial, Series)):
        d.update(_target_dict(spec))
    elif isinstance(spec, Classic):
        d.update(kind="classic", n=spec.cfg.n)
    else:
        d.update(
            kind="constructed",
            n=spec.cf.n,
            targets=[_target_dict(t) for t in spec.cf.a_list],
        )
    return d


def _target_from_dict(d):
    coeffs = [complex(re, im) for re, im in d["coeffs"]]
    if d["kind"] == "poly":
        return Polynomial(coeffs)
    return Series(
        coeffs, d["tail_bound_radius"], d.get("declared_order", float("nan"))
    )


def spec_from_json_dict(d: dict) -> EntireSpec:
    if d.get("format") != "funcspec/1":
        raise ValueError("not a funcspec/1 document")
    kind = d["kind"]
    if kind in ("poly", "series"):
        return _target_from_dict(d)
    if kind == "classic":
        return Classic(ClassicDCA(d["n"]))
    if kind == "constructed":
        return Constructed(
            ConstructedF(d["n"], tuple(_target_from_dict(t) for t in d["targets"]))
        )
    raise ValueError("unknown funcspec kind %r" % kind)


# ---------------------------------------------------------------------------
# circle scans

@dataclass(frozen=True)
class GrowthSample:
    r: float
    log_max_mod: float
    argmax_theta: float
    domain_id: int | None
    samples_used: int


def _refine(g, lo, hi, th, val, tol):
    """Grid refinement of the brackets [lo, hi] (arrays) to width tol,
    starting from the best point (th, val) known so far.  Each step calls
    g (an array of angles to an array of values) once, on _GRID equally
    spaced interior points of every bracket still wider than tol, and
    narrows each bracket to the neighbours of its best point.  Returns the
    best angle and value seen, the first of equals, and the number of
    evaluations."""
    used = 0
    steps = np.arange(1, _GRID + 1)
    while True:
        wide = np.flatnonzero(hi - lo > tol)
        if not wide.size:
            return th, val, used
        h = (hi[wide] - lo[wide]) / (_GRID + 1)
        grid = lo[wide, None] + h[:, None] * steps
        vals = g(grid.ravel()).reshape(grid.shape)
        used += grid.size
        i = (np.arange(wide.size), vals.argmax(axis=1))
        top_th, top = grid[i], vals[i]
        j = int(top.argmax())
        if top[j] > val:
            th, val = float(top_th[j]), float(top[j])
        lo[wide], hi[wide] = top_th - h, top_th + h


def max_on_circle(
    spec: EntireSpec,
    r: float,
    sys_domain: tuple[PathSystem, int] | None = None,
    coarse: int = 256,
) -> GrowthSample:
    """Maximum of log|f| on |z| = r, optionally restricted to a domain of a
    path system.

    The circle is a list of arcs: the full circle is the one arc
    (-pi, pi), a domain brings the arcs of angular_measure.  Each arc gets
    at least 4 of about `coarse` probes in proportion to its length, at the
    midpoints of equal steps.  The three best local maxima of the probe
    grid (cyclic only on the full circle) are bracketed by their
    neighbouring probes, clamped to the probe's own arc in a domain, and
    polished on a grid to angular resolution _REFINE_TOL; every spec kind
    evaluates all probes of a step in one array call.  samples_used counts
    every evaluated probe.  A domain restriction at a critical radius of
    its bounding paths raises DegenerateRadiusError, as angular_measure
    does.
    """
    if not 0 < r < math.inf:
        raise ValueError("r must be finite and > 0")
    if coarse < 64:
        raise ValueError("coarse must be >= 64")
    full = sys_domain is None
    if full:
        domain_id, arcs = None, [(-math.pi, math.pi)]
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

    def g(thetas):
        return np.asarray(_log_mods(spec, r * np.exp(1j * thetas)), dtype=float)

    vals = g(angles)
    left, right = np.roll(vals, 1), np.roll(vals, -1)
    if not full:
        left[0] = right[-1] = -math.inf
    order = np.argsort(-vals, kind="stable")
    peaks = ~(left > vals) & ~(right > vals)
    picked = order[peaks[order]][:3]
    # a domain's first and last probes wrap to neighbours outside its
    # arcs, which the clamp replaces by the arc ends
    lo = np.concatenate([angles[-1:] - TWO_PI, angles[:-1]])[picked]
    hi = np.concatenate([angles[1:], angles[:1] + TWO_PI])[picked]
    if not full:
        lo = np.maximum(lo, np.repeat(a, counts)[picked])
        hi = np.minimum(hi, np.repeat(b, counts)[picked])
    best = order[0]
    th, val, used = _refine(g, lo, hi, float(angles[best]), float(vals[best]), _REFINE_TOL)
    return GrowthSample(r, val, wrap_angle(th), domain_id, angles.size + used)


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

def trace_ray(spec: EntireSpec, j: int, radii) -> list:
    """(r, log10 |f - a_j|) along target ray j of a constructed spec, in one
    array evaluation."""
    if not isinstance(spec, Constructed):
        raise TypeError("trace_ray needs a Constructed spec")
    radii = np.asarray(radii, dtype=float).ravel()
    if not np.all(np.isfinite(radii)):
        raise ValueError("radii must be finite")
    cf = spec.cf
    lg = log_residual(radii * cmath.exp(1j * cf.ray_angle(j)), j, cf).real / math.log(10.0)
    return [(float(r), float(v)) for r, v in zip(radii, lg)]


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

    def to_json_dict(self) -> dict:
        return asdict(self)


def verify_theorem1(
    spec: EntireSpec,
    sys: PathSystem,
    R1: float,
    radii,
    kappa: float = 0.5,
    kappa_params: KappaParams | None = None,
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
    per_domain: dict[int, list[float]] = {j: [] for j in range(1, n + 1)}
    sector_max: dict[float, dict[int, float]] = {}
    for r in radii:
        sector_max[r] = {}
        for j in range(1, n + 1):
            try:
                gs = max_on_circle(spec, r, (sys, j), coarse=coarse)
            except EmptySliceError:
                continue
            sector_max[r][j] = gs.log_max_mod
            per_domain[j].append(gs.log_max_mod / r**kappa)
    hyp_max = tuple(
        max(per_domain[j]) if per_domain[j] else -math.inf for j in range(1, n + 1)
    )
    hyp_flags = tuple(v > 0.0 for v in hyp_max)
    # finite samples cannot see log|f|/|z|^kappa -> 0; when the spec
    # declares an order below kappa the hypothesis is known unmet
    rho = declared_order(spec)
    order_ok = math.isnan(rho) or rho >= kappa
    conclusion = min(
        max_on_circle(spec, r, coarse=coarse).log_max_mod / r ** (n / 2.0)
        for r in radii
    )
    checks = []
    for r in radii:
        if not sector_max[r]:
            continue
        j_sel = max(sector_max[r], key=lambda j: sector_max[r][j])
        rep: CarlemanReport = carleman_report(sys, j_sel, R1, r, kappa_params)
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
