"""Max-modulus scans, order fitting, ray residual traces, and the
growth-theorem verification harness.

All modulus bookkeeping is done on log|f| via LogComplex so constructed
functions of order n can be scanned far past double-precision overflow.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .classic import ClassicDCA, eval_dca
from .construct import ConstructedF, eval_f, log_f, residual_lc
from .geometry import (
    CarlemanReport,
    EmptySliceError,
    KappaParams,
    PathSystem,
    angular_measure,
    carleman_report,
)
from .logcx import LogComplex, wrap_angle
from .specs import Polynomial, Series

_REFINE_TOL = 1e-6  # angular resolution of the golden-section polish
CLASSIC_TOL = 1e-9  # absolute accuracy of Classic evaluations
_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


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
    """EntireSpec variant wrapping the order-n/2 integral example, evaluated
    to absolute accuracy CLASSIC_TOL."""

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
        return LogComplex.from_complex(eval_dca(z, spec.cfg, CLASSIC_TOL))
    return LogComplex.from_complex(spec(z))


def _log_mods(spec: EntireSpec, zs: list) -> list:
    """log|f| at each point of zs: one array evaluation for constructed,
    polynomial and series specs, point by point for Classic."""
    if isinstance(spec, Classic):
        return [eval_log(spec, z).log_mod for z in zs]
    if isinstance(spec, Constructed):
        vals = log_f(zs, spec.cf).real
    else:
        with np.errstate(divide="ignore"):
            vals = np.log(np.abs(spec(np.array(zs, dtype=complex))))
    return [float(v) for v in vals]


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


def _golden_search(lo, hi, tol):
    """Golden-section search for a maximum on [lo, hi] to width tol, as a
    generator: it yields the list of points whose values it needs next,
    is sent their values, and returns (theta, value, evaluations)."""
    a, b = lo, hi
    c = b - _GOLD * (b - a)
    d = a + _GOLD * (b - a)
    gc, gd = yield [c, d]
    evals = 2
    while b - a > tol:
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - _GOLD * (b - a)
            (gc,) = yield [c]
        else:
            a, c, gc = c, d, gd
            d = a + _GOLD * (b - a)
            (gd,) = yield [d]
        evals += 1
    th = c if gc >= gd else d
    return th, max(gc, gd), evals


def _golden_max(g, brackets, tol):
    """_golden_search on every (lo, hi) bracket, advanced in lockstep: each
    step calls g (a list of points to a list of values) once, on the points
    that all unfinished searches need."""
    searches = [_golden_search(lo, hi, tol) for lo, hi in brackets]
    results = [None] * len(searches)
    wanted = {i: next(s) for i, s in enumerate(searches)}
    while wanted:
        vals = iter(g([x for pts in wanted.values() for x in pts]))
        step = {}
        for i, pts in wanted.items():
            try:
                step[i] = searches[i].send([next(vals) for _ in pts])
            except StopIteration as done:
                results[i] = done.value
        wanted = step
    return results


def max_on_circle(
    spec: EntireSpec,
    r: float,
    sys_domain: tuple[PathSystem, int] | None = None,
    coarse: int = 256,
) -> GrowthSample:
    """Maximum of log|f| on |z| = r, optionally restricted to a domain of a
    path system.

    Coarse angular probing (restricted to the domain's arcs when given)
    followed by golden-section polish around the best three local maxima,
    to angular resolution 1e-6.  Constructed, polynomial and series specs
    evaluate all probes of a step in one array call; Classic point by
    point.  A domain restriction at a critical radius of its bounding
    paths raises DegenerateRadiusError, as angular_measure does.
    """
    if r <= 0:
        raise ValueError("r must be > 0")
    if coarse < 64:
        raise ValueError("coarse must be >= 64")
    domain_id = None
    if sys_domain is None:
        step = 2.0 * math.pi / coarse
        angles = [-math.pi + (k + 0.5) * step for k in range(coarse)]
        arcs = [(-math.pi, math.pi)]
        wraps = True
    else:
        sys_, j = sys_domain
        domain_id = j
        sl = angular_measure(sys_, j, r)
        if not sl.arcs:
            raise EmptySliceError("domain %d misses the circle of radius %g" % (j, r))
        total = sum(b - a for a, b in sl.arcs)
        angles = []
        arcs = list(sl.arcs)
        for a, b in arcs:
            m = max(4, int(round(coarse * (b - a) / total)))
            step = (b - a) / m
            angles.extend(a + (k + 0.5) * step for k in range(m))
        wraps = False

    def g(thetas):
        return _log_mods(spec, [r * cmath.exp(1j * th) for th in thetas])

    vals = g(angles)
    used = len(vals)
    m = len(angles)
    # local maxima on the probe grid (cyclic only for the full circle)
    idx = sorted(range(m), key=lambda i: vals[i], reverse=True)
    picked = []
    for i in idx:
        if len(picked) == 3:
            break
        lo_i, hi_i = i - 1, i + 1
        if wraps:
            lo_i %= m
            hi_i %= m
        neighbors_ok = True
        if 0 <= lo_i < m and vals[lo_i] > vals[i]:
            neighbors_ok = False
        if 0 <= hi_i < m and vals[hi_i] > vals[i]:
            neighbors_ok = False
        if neighbors_ok:
            picked.append(i)
    if not picked:
        picked = idx[:1]
    best_th, best_val = angles[idx[0]], vals[idx[0]]
    brackets = []
    for i in picked:
        lo_i, hi_i = i - 1, i + 1
        if wraps:
            lo = angles[lo_i % m] if lo_i >= 0 else angles[-1] - 2.0 * math.pi
            hi = angles[hi_i % m] if hi_i < m else angles[0] + 2.0 * math.pi
        else:
            # clamp the bracket to the arc containing the probe
            arc = next(a for a in arcs if a[0] <= angles[i] <= a[1] + 1e-15)
            lo = angles[lo_i] if lo_i >= 0 and angles[lo_i] >= arc[0] else arc[0]
            hi = angles[hi_i] if hi_i < m and angles[hi_i] <= arc[1] else arc[1]
        brackets.append((lo, hi))
    for th, val, ev in _golden_max(g, brackets, _REFINE_TOL):
        used += ev
        if val > best_val:
            best_th, best_val = th, val
    return GrowthSample(r, best_val, wrap_angle(best_th), domain_id, used)


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
    """(r, log10 |f - a_j|) along target ray j of a constructed spec."""
    if not isinstance(spec, Constructed):
        raise TypeError("trace_ray needs a Constructed spec")
    cf = spec.cf
    ang = cf.ray_angle(j)
    out = []
    for r in radii:
        z = r * cmath.exp(1j * ang)
        out.append((float(r), residual_lc(z, j, cf).abs_log10()))
    return out


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
        return {
            "kappa": self.kappa,
            "n": self.n,
            "R1": self.R1,
            "hypothesis_max": list(self.hypothesis_max),
            "hypothesis_flags": list(self.hypothesis_flags),
            "hypothesis_met": self.hypothesis_met,
            "conclusion_min_ratio": self.conclusion_min_ratio,
            "conclusion_positive": self.conclusion_positive,
            "radius_checks": [
                {
                    "r": c.r,
                    "j_selected": c.j_selected,
                    "log_max_measured": c.log_max_measured,
                    "logM_lower": c.logM_lower,
                    "consistent": c.consistent,
                }
                for c in self.radius_checks
            ],
            "consistent_all": self.consistent_all,
        }


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
