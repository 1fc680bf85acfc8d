import cmath
import json
import math
import typing
from dataclasses import asdict

import numpy as np
import pytest

from asymlab import growth
from asymlab.classic import ClassicDCA
from asymlab.construct import ConstructedF, NotOnRayError, eval_f, residual_lc
from asymlab.geometry import (
    DegenerateRadiusError,
    EmptySliceError,
    PathSystem,
    SegmentalPath,
    angular_measure,
    carleman_report,
)
from asymlab.growth import (
    Classic,
    Constructed,
    EntireSpec,
    GrowthSample,
    InsufficientDynamicRangeError,
    RadiusCheck,
    Theorem1Report,
    fit_order,
    max_on_circle,
    max_on_circles,
    spec_from_json_dict,
    spec_to_json_dict,
    trace_ray,
    trace_rays,
    verify_theorem1,
)
from asymlab.logcx import wrap_angle
from asymlab.specs import Polynomial, Series

from conftest import make_random_system


def test_max_on_circle_linear():
    gs = max_on_circle(Polynomial([0, 1]), 3.0)
    assert gs.log_max_mod == pytest.approx(math.log(3.0), abs=1e-9)


def test_constructed_partition_of_unity():
    # the rotated interpolants telescope: with every target equal to 1 the
    # construction collapses to f identically 1
    cf = ConstructedF(2, (Polynomial([1]), Polynomial([1])))
    for z in (3j, 2 + 1j, -1.5 + 0.2j):
        assert abs(eval_f(z, cf).to_complex() - 1.0) < 1e-12


def test_max_on_circle_constructed_dominant_term():
    # distinct targets: the maximum sits near theta = pi/2 where
    # |e^{-z^2}| = e^{r^2} amplifies the cross term
    cf = ConstructedF(2, (Polynomial([1]), Polynomial([0, 1])))
    gs = max_on_circle(Constructed(cf), 3.0, coarse=64)
    assert 0.8 * 9.0 <= gs.log_max_mod <= 1.2 * 9.0
    assert abs(abs(gs.argmax_theta) - math.pi / 2) < 0.5


def test_series_target_scan_matches_per_point(monkeypatch):
    # a Series target rides the array scan of a constructed spec; scanning
    # with every probe evaluated on its own through a one-point log_abs
    # call gives the same sample
    spec = Constructed(
        ConstructedF(3, (Series([1, 0.5, 0.25j], 10.0), Polynomial([0, 1]), Polynomial([2j])))
    )
    series = spec.cf.a_list[0]
    zs = np.array([1.0, 2.5j, -2.5])
    assert list(series(zs)) == [series(complex(z)) for z in zs]
    with pytest.raises(ValueError, match="beyond certified radius"):
        series(np.array([1.0, 11.0j]))  # one point beyond it
    whole = max_on_circle(spec, 2.5, coarse=64)
    monkeypatch.setattr(
        growth, "_log_mods", lambda s, r, th: [s.log_abs(r[i:i + 1], th[i:i + 1])[0] for i in range(th.size)]
    )
    single = max_on_circle(spec, 2.5, coarse=64)
    assert (whole.r, whole.domain_id, whole.samples_used) == (single.r, single.domain_id, single.samples_used)
    assert whole.log_max_mod == pytest.approx(single.log_max_mod, rel=1e-13)
    assert whole.argmax_theta == pytest.approx(single.argmax_theta, abs=1e-6)


def test_series_target_scan_beyond_radius_raises():
    # the targets' shared Horner pass checks a Series target's radius first,
    # with the message of the target's own call
    spec = Constructed(ConstructedF(3, (Polynomial([0, 1]), Series([1, 0.5], 10.0), Polynomial([2j]))))
    assert max_on_circle(spec, 9.0, coarse=64).r == 9.0
    with pytest.raises(ValueError, match=r"series evaluated at \|z\|=11 beyond certified radius 10"):
        max_on_circle(spec, 11.0, coarse=64)


def _counting_log_mods(monkeypatch):
    """Count every point that max_on_circle evaluates."""
    seen = []
    inner = growth._log_mods

    def counted(spec, r, theta):
        seen.append(len(theta))
        return inner(spec, r, theta)

    monkeypatch.setattr(growth, "_log_mods", counted)
    return seen


@pytest.mark.parametrize(
    "coeffs,r,theta,peak",
    [
        # |z + 0.7| on |z| = 2: one peak, at theta = 0
        ([0.7, 1], 2.0, 0.0, math.log(2.7)),
        # |z^2 - 1e-3 z + 0.5| on |z| = 1.5: peaks at theta = 0 and pi (real
        # coefficients), 2.7485 and 2.7515, in different brackets
        ([0.5, -1e-3, 1], 1.5, math.pi, math.log(2.7515)),
    ],
)
def test_grid_polish_known_maximum(monkeypatch, coeffs, r, theta, peak):
    seen = _counting_log_mods(monkeypatch)
    gs = max_on_circle(Polynomial(coeffs), r, coarse=64)
    assert abs(wrap_angle(gs.argmax_theta - theta)) <= growth._REFINE_TOL
    assert gs.log_max_mod == pytest.approx(peak, abs=1e-12)
    assert gs.samples_used == sum(seen)
    assert seen[0] == 64 and len(seen) > 1


# ln|f| at a probe is within _VALUE_ULP ulp of ln|f| there: the dominant
# exponent's real part, r^n cos(arg z^n) or r^{n/2} sin(arg z^{n/2}), takes
# three roundings (the power, the cosine or sine, their product) and the
# log-space sum two more, each within half an ulp of ln M: 2.5 ulp, taken
# as 4
_VALUE_ULP = 4


def _nested_dense_max(spec, r, theta, half_width):
    """The largest ln|f| a nested dense search finds around theta: 401
    probes over theta +- half_width through the scan's own evaluator, then
    again over two probe steps about the best probe, six times, down to
    steps of about 1e-13 half_width."""
    best, best_th = -math.inf, theta
    for _ in range(6):
        th = best_th + np.linspace(-half_width, half_width, 401)
        vals = spec.log_abs(np.full(th.size, r), th)
        i = int(vals.argmax())
        if vals[i] > best:
            best, best_th = float(vals[i]), float(th[i])
        half_width *= 4.0 / 400.0
    return best


def _random_constructed(n, seed):
    rng = np.random.default_rng(seed)
    return Constructed(ConstructedF(n, tuple(
        Polynomial(list(rng.normal(size=3) + 1j * rng.normal(size=3))) for _ in range(n)
    )))


MAXIMALITY_CASES = (
    [(Classic(ClassicDCA(n)), x ** (2.0 / n)) for n in range(2, 9) for x in (40.0, 1000.0)]
    + [(Classic(ClassicDCA(6)), 20.0), (Classic(ClassicDCA(6)), 40.0), (Classic(ClassicDCA(8)), 12.0)]
    + [(_random_constructed(n, seed), w ** (1.0 / n)) for n in (2, 3, 4) for seed in (0, 1) for w in (40.0, 1000.0)]
)


@pytest.mark.parametrize("coarse", [64, 256])
@pytest.mark.parametrize("case", range(len(MAXIMALITY_CASES)))
def test_scan_reaches_the_peak(case, coarse):
    # the maximality oracle: around the reported angle no probe beats the
    # reported maximum by more than the value errors of the two, 2 *
    # _VALUE_ULP ulp.  The grid-only polish stopped about 1.1e-7 rad from
    # the peak and missed this bound by 500 to 1300 ulp at coarse 256
    # (3.8e-9 at classic n = 6, r = 40)
    spec, r = MAXIMALITY_CASES[case]
    gs = max_on_circle(spec, r, coarse=coarse)
    dense = _nested_dense_max(spec, r, gs.argmax_theta, 4.0 * math.pi / coarse)
    assert dense - gs.log_max_mod <= 2 * _VALUE_ULP * np.spacing(gs.log_max_mod)
    # the reported maximum is the evaluator's value at the reported angle
    assert spec.log_abs([r], [gs.argmax_theta])[0] == gs.log_max_mod


@pytest.mark.parametrize("n", range(2, 9))
def test_classic_maximum_at_the_saddle_point(n):
    # with x = r^{n/2}, s = 2/n - 1 and u = -i z^{n/2}, the dominant term
    # e^{i pi/n} Gamma(s, u) / n gives ln M(r) = x - (n - 1) ln r - ln n +
    # ln|1 + (s - 1)/u + (s - 1)(s - 2)/u^2 + ...| at theta = -pi/n + 2 pi k/n,
    # where u = -x and every term (1 - s)...(q - s)/x^q of the series is
    # positive.  So the one-correction prediction lies below ln M by the
    # dropped tail: at least its first term b = (1 - s)(2 - s)/x^2 and, to
    # the next order, b (1 + 2/x): the next term b (3 - s)/x less a b, with
    # a = (1 - s)/x the kept correction; 4 b / x covers that order twice.
    # Summed to its smallest term, the series meets ln M within the value
    # errors of the two
    s = 2.0 / n - 1.0
    for x in (40.0, 100.0, 1000.0, 5000.0):
        r = x ** (2.0 / n)
        gs = max_on_circle(Classic(ClassicDCA(n)), r)
        assert abs(math.remainder(n * gs.argmax_theta / 2.0 + math.pi / 2.0, math.pi)) < 1e-6 * n
        head = x - (n - 1) * math.log(r) - math.log(n)
        noise = 2 * _VALUE_ULP * np.spacing(gs.log_max_mod)
        b = (1.0 - s) * (2.0 - s) / x**2
        dropped = gs.log_max_mod - (head + math.log1p((1.0 - s) / x))
        assert b - noise <= dropped <= b * (1.0 + 4.0 / x) + noise
        term, total, q = (1.0 - s) / x, 0.0, 1
        while term * (q + 1 - s) / x < term:
            total += term
            term *= (q + 1 - s) / x
            q += 1
        assert abs(gs.log_max_mod - (head + math.log1p(total))) <= noise


def test_interior_peak_takes_four_calls(monkeypatch):
    # |z + c| on |z| = 2 peaks at arg c = 0.3 alone: coarse probes, two grid
    # steps (0.196 -> 0.0119 -> 7.2e-4 rad), then the vertex, 4 evaluator
    # calls where the grid-only polish made 6
    seen = _counting_log_mods(monkeypatch)
    gs = max_on_circle(Polynomial([0.7 * cmath.exp(0.3j), 1]), 2.0, coarse=64)
    assert seen == [64, 32, 32, 1]
    assert gs.samples_used == 129
    assert abs(gs.argmax_theta - 0.3) <= 1e-9
    assert gs.log_max_mod == pytest.approx(math.log(2.7), abs=1e-15)


def test_arc_end_maximum_keeps_the_grid(monkeypatch):
    # |z + c| on domain 1 of three rays, the arc (2 pi/3, 4 pi/3), has its
    # local maxima at the arc's ends: the best probe stays at the end of
    # every grid, so both brackets keep grid steps down to _REFINE_TOL
    # (0.049 -> 6.6e-7 rad in 4 steps) and take no vertex
    sysm = PathSystem.equally_spaced_rays(3)
    (a, b), = angular_measure(sysm, 1, 2.0).arcs
    seen = _counting_log_mods(monkeypatch)
    # arg c = 1 puts the maximum at the arc's start, arg c = -1 at its end
    # 4 pi/3, past pi: there the probes are wrapped before evaluation, and
    # the reported value is the evaluator's at the reported angle
    for c, end in ((0.7 * cmath.exp(1j), a), (0.7 * cmath.exp(-1j), b)):
        seen.clear()
        spec = Polynomial([c, 1])
        gs = max_on_circle(spec, 2.0, (sysm, 1), coarse=64)
        assert seen == [64] + [2 * 32] * 4
        assert abs(wrap_angle(gs.argmax_theta - end)) <= growth._REFINE_TOL
        edge = math.log(abs(2.0 * cmath.exp(1j * end) + c))
        assert edge - growth._REFINE_TOL <= gs.log_max_mod <= edge
        assert spec.log_abs([2.0], [gs.argmax_theta])[0] == gs.log_max_mod
    # the classic example rises along the arc (2.5, 4) of rays at 0.5, 2.5
    # and 4 toward its end, where ln|f| changes by about 10 ulp per ulp of
    # the angle: the value there is the evaluator's at the wrapped angle
    rays = PathSystem(tuple(SegmentalPath.ray(t) for t in (0.5, 2.5, 4.0)))
    spec = Classic(ClassicDCA(2))
    for r in (5.0, 20.0, 30.0):
        gs = max_on_circle(spec, r, (rays, 2), coarse=64)
        assert abs(wrap_angle(gs.argmax_theta - 4.0)) <= growth._REFINE_TOL
        assert spec.log_abs([r], [gs.argmax_theta])[0] == gs.log_max_mod


def test_flat_circle_and_narrow_start(monkeypatch):
    # |z^3| is constant on the circle, up to its rounding: the scan reports
    # 3 ln r within a few ulp and takes no more calls than the grid polish
    seen = _counting_log_mods(monkeypatch)
    gs = max_on_circle(Polynomial([0, 0, 0, 1]), 1.7, coarse=64)
    assert gs.log_max_mod == pytest.approx(3.0 * math.log(1.7), abs=8 * np.spacing(3.0 * math.log(1.7)))
    assert 2 <= len(seen) <= 6
    # at coarse 10^6 the brackets start 1.3e-5 rad wide, under
    # _VERTEX_WIDTH: one grid step brings them under _REFINE_TOL and no
    # vertex is evaluated
    seen.clear()
    gs = max_on_circle(Polynomial([0.7 * cmath.exp(0.3j), 1]), 2.0, coarse=10**6)
    coarse_calls = -(-10**6 // growth._MAX_PROBES)
    assert len(seen) == coarse_calls + 1 and seen[-1] == 32
    assert gs.samples_used == 10**6 + 32
    assert gs.log_max_mod == pytest.approx(math.log(2.7), abs=1e-13)


def test_argmax_refinement_stable():
    spec = Polynomial([1, 2, 0.5 + 1j])
    a = max_on_circle(spec, 2.0, coarse=256)
    b = max_on_circle(spec, 2.0, coarse=1024)
    assert abs(a.log_max_mod - b.log_max_mod) <= 1e-6 * max(1.0, abs(b.log_max_mod))


def test_domain_restriction_never_exceeds_whole_plane():
    sysm = PathSystem.equally_spaced_rays(3)
    spec = Polynomial([1, 1j, 2])
    whole = max_on_circle(spec, 2.5, coarse=128)
    for j in (1, 2, 3):
        part = max_on_circle(spec, 2.5, (sysm, j), coarse=128)
        assert part.log_max_mod <= whole.log_max_mod + 1e-9
        assert part.domain_id == j


def test_domains_always_meet_circles():
    # valid path systems hang off the origin, so every circle meets every
    # domain: EmptySliceError stays a defensive guard
    sysm = PathSystem(
        (SegmentalPath([0, 2], cmath.exp(1j * math.pi / 4)),
         SegmentalPath([0, -2], cmath.exp(3j * math.pi / 4)))
    )
    for j in (1, 2):
        for t in (0.5, 3.0):
            gs = max_on_circle(Polynomial([0, 1]), t, (sysm, j), coarse=64)
            assert gs.log_max_mod <= math.log(t) + 1e-9


def test_max_on_circle_critical_radius_raises():
    # the circle through the paths' vertices is degenerate for a domain
    # restriction, exactly as for angular_measure
    sysm = PathSystem(
        (SegmentalPath([0, 2], cmath.exp(1j * math.pi / 4)),
         SegmentalPath([0, -2], cmath.exp(3j * math.pi / 4)))
    )
    with pytest.raises(DegenerateRadiusError):
        max_on_circle(Polynomial([0, 1]), 2.0, (sysm, 1), coarse=64)


def test_max_on_circle_two_arc_domain():
    # the kinked path leaves |z| = 2 at 0, comes back in through the upper
    # half plane and leaves again toward -1, so each domain meets the circle
    # in two arcs; the maximum must lie on one of them
    kinked = SegmentalPath([0, 3, 2 + 2j, 1j], -1)
    sysm = PathSystem((SegmentalPath.ray(-math.pi / 2), kinked))
    thetas = np.linspace(-math.pi, math.pi, 20000, endpoint=False)
    two_arcs = 0
    for j in (1, 2):
        arcs = angular_measure(sysm, j, 2.0).arcs
        two_arcs += len(arcs) == 2
        inside = np.zeros(thetas.shape, dtype=bool)
        for a, b in arcs:
            inside |= (thetas - a) % (2 * math.pi) < b - a
        for spec in (Polynomial([0, 1, 0, 1j]), Polynomial([1, -2, 0.5]), Classic(ClassicDCA(2))):
            gs = max_on_circle(spec, 2.0, (sysm, j), coarse=64)
            assert any((gs.argmax_theta - a) % (2 * math.pi) <= b - a for a, b in arcs)
            probes = np.concatenate([thetas[inside], np.ravel(arcs)])
            dense = growth._log_mods(spec, np.full(probes.size, 2.0), probes).max()
            assert gs.log_max_mod == pytest.approx(dense, abs=1e-6)
    assert two_arcs == 2


SPEC_KINDS = {
    "poly": Polynomial([1, 2, 0.5 + 1j]),
    "series": Series([1, -0.5, 0.25j, 0.1], 10.0),
    "constructed": Constructed(
        ConstructedF(3, (Series([1, 0.5, 0.25j], 10.0), Polynomial([0, 1]), Polynomial([2j])))
    ),
    "classic2": Classic(ClassicDCA(2)),
    "classic3": Classic(ClassicDCA(3)),
}


@pytest.mark.parametrize("kind", sorted(SPEC_KINDS))
def test_max_on_circles_equals_single_scans(kind):
    # the lockstep scan of many circles gives, bit for bit, the sample of
    # each circle scanned alone
    spec = SPEC_KINDS[kind]
    radii = [0.5, 1.0, 1.7, 2.5, 3.5, 5.0, 7.5, 9.0]
    assert max_on_circles(spec, radii, coarse=64) == [max_on_circle(spec, r, coarse=64) for r in radii]


@pytest.mark.parametrize("kind", ["poly", "classic2"])
def test_max_on_circles_domain_equals_single_scans(kind):
    spec = SPEC_KINDS[kind]
    kinked = SegmentalPath([0, 3, 2 + 2j, 1j], -1)
    for sysm in (PathSystem.equally_spaced_rays(3), PathSystem((SegmentalPath.ray(-math.pi / 2), kinked))):
        for j in range(1, sysm.n + 1):
            radii = [0.5, 1.5, 2.0, 4.0, 6.0]
            got = max_on_circles(spec, radii, (sysm, j), coarse=64)
            assert got == [max_on_circle(spec, r, (sysm, j), coarse=64) for r in radii]
            assert {s.domain_id for s in got} == {j}


def test_max_on_circles_call_sizes(monkeypatch):
    spec = Classic(ClassicDCA(2))
    radii = [float(r) for r in range(5, 31)]
    want = max_on_circles(spec, radii, coarse=128)
    bounds = (growth._MAX_PROBES, 300)
    seen = _counting_log_mods(monkeypatch)
    steps = []
    for r in radii:
        max_on_circle(spec, r, coarse=128)
        steps.append(len(seen) - 1)
        seen.clear()
    # without a bound, one call takes the coarse probes of every circle,
    # then one call per polish step the probes of every open bracket
    monkeypatch.setattr(growth, "_MAX_PROBES", 10**6)
    assert max_on_circles(spec, radii, coarse=128) == want
    assert seen[0] == 26 * 128
    assert len(seen) == 1 + max(steps) < 26
    assert sum(seen) == sum(s.samples_used for s in want)
    # with a bound the circles go in groups and the calls in chunks, and
    # not a bit changes
    for bound in bounds:
        seen.clear()
        monkeypatch.setattr(growth, "_MAX_PROBES", bound)
        assert max_on_circles(spec, radii, coarse=128) == want
        assert max(seen) <= bound
        assert sum(seen) == sum(s.samples_used for s in want)


def test_coarse_bounds():
    spec = Polynomial([0, 1])
    for bad in (63, growth._MAX_COARSE + 1, 10**12):
        with pytest.raises(ValueError, match="coarse"):
            max_on_circles(spec, [1.0, 2.0], coarse=bad)
    assert max_on_circles(spec, []) == []


def test_fit_order_exact_power_law():
    samples = [
        GrowthSample(r, r**2, 0.0, None, 1) for r in (2.0, 3.0, 4.0, 5.0, 6.0)
    ]
    fit = fit_order(samples)
    assert fit.rho_hat == pytest.approx(2.0, abs=1e-9)
    assert fit.residual_rms < 1e-9
    assert fit.r_range == (2.0, 6.0)


def test_fit_order_envelope_reweighting():
    # a deep dip below the power law must not drag the slope: the order is
    # a limsup, so below-envelope points are deweighted
    samples = [
        GrowthSample(r, (0.15 if r == 6.0 else 1.0) * r**2, 0.0, None, 1)
        for r in [2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0]
    ]
    fit = fit_order(samples)
    assert abs(fit.rho_hat - 2.0) < 0.05  # the plain fit would give ~1.2


def test_fit_order_validation():
    few = [GrowthSample(r, r**2, 0.0, None, 1) for r in (2.0, 3.0, 4.0)]
    with pytest.raises(ValueError):
        fit_order(few)
    flat = [GrowthSample(r, 2.0 + 0.01 * r, 0.0, None, 1) for r in (2, 3, 4, 5, 6)]
    with pytest.raises(InsufficientDynamicRangeError):
        fit_order(flat)


def test_classic_order_fit():
    spec = Classic(ClassicDCA(2))
    samples = [max_on_circle(spec, float(r), coarse=64) for r in range(5, 31)]
    fit = fit_order(samples)
    assert abs(fit.rho_hat - 1.0) <= 0.2


def test_trace_ray_decreasing():
    cf = ConstructedF(2, (Polynomial([1]), Polynomial([0, 1])))
    for j in (1, 2):
        tr = trace_ray(Constructed(cf), j, [2.0, 3.0, 4.0])
        vals = [lg for _, lg in tr]
        assert vals[0] > vals[1] > vals[2]
    single = trace_ray(Constructed(cf), 2, [2.0])
    assert math.isfinite(single[0][1])


def test_trace_ray_symmetry():
    # targets swapped by the reflection z -> -conj(z): traces coincide
    cf = ConstructedF(2, (Polynomial([1, 1]), Polynomial([1, -1])))
    t1 = trace_ray(Constructed(cf), 1, [2.0, 3.0])
    t2 = trace_ray(Constructed(cf), 2, [2.0, 3.0])
    for (_, a), (_, b) in zip(t1, t2):
        assert a == pytest.approx(b, abs=1e-9)


def test_non_finite_radius_raises():
    cf = ConstructedF(2, (Polynomial([1]), Polynomial([0, 1])))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            max_on_circle(Classic(ClassicDCA(2)), bad)
        with pytest.raises(ValueError, match="finite"):
            trace_ray(Constructed(cf), 1, [2.0, bad])


def test_huge_radius_raises_instead_of_a_wrong_value():
    # z^n (construction) and |z|^{n/2} (classic) overflow past these radii;
    # the scans used to return 237.17 and then -inf, or ArithmeticError
    cf = ConstructedF(3, (Polynomial([1]), Polynomial([0, 1]), Polynomial([2])))
    assert max_on_circle(Constructed(cf), 1e102, coarse=64).log_max_mod == pytest.approx(1e306, rel=1e-12)
    for r in (1e103, 1e104):
        with pytest.raises(ValueError, match="z\\^3 is not finite"):
            max_on_circle(Constructed(cf), r, coarse=64)
        with pytest.raises(ValueError, match="not finite"):
            trace_ray(Constructed(cf), 1, [2.0, r])
    with pytest.raises(ValueError, match="not finite"):
        max_on_circles(Classic(ClassicDCA(8)), [1e99, 1e100], coarse=64)


def test_trace_ray_matches_residual_lc():
    # trace_ray evaluates a ray in one array call; residual_lc is its
    # one-point case
    cf = ConstructedF(3, (Polynomial([1, 0.5]), Polynomial([2j]), Polynomial([0.3, 0, 1])))
    radii = [0.4, 1.1, 1.3, 1.9, 3.0, 5.5]
    for j in (1, 2, 3):
        tr = trace_ray(Constructed(cf), j, radii)
        assert [r for r, _ in tr] == radii
        for r, lg in tr:
            one = residual_lc(r * cmath.exp(1j * cf.ray_angle(j)), j, cf).abs_log10()
            assert lg == pytest.approx(one, abs=1e-13)
    assert trace_ray(Constructed(cf), 1, []) == []
    with pytest.raises(NotOnRayError):
        trace_ray(Constructed(cf), 1, [2.0, 0.0])
    with pytest.raises(NotOnRayError):
        trace_ray(Constructed(cf), 1, [2.0, -1.0])


def test_trace_rays_in_one_call(monkeypatch):
    # every ray in one polar evaluation, each row with the bits of its own
    # ray's trace; r <= 0 raises as the one-ray traces do
    cf = ConstructedF(3, (Polynomial([1, 0.5]), Polynomial([2j]), Polynomial([0.3, 0, 1])))
    radii = [0.4, 1.1, 3.0, 5.5]
    calls = []
    inner = growth.log_residual_polar
    monkeypatch.setattr(growth, "log_residual_polar", lambda *a: calls.append(None) or inner(*a))
    rows = trace_rays(Constructed(cf), [1, 2, 3], radii)
    assert len(calls) == 1
    assert rows == [(j, r, lg) for j in (1, 2, 3) for r, lg in trace_ray(Constructed(cf), j, radii)]
    with pytest.raises(NotOnRayError, match="residual undefined at the origin"):
        trace_rays(Constructed(cf), [1, 2], [2.0, 0.0])
    with pytest.raises(NotOnRayError, match="z is not on ray 2 within angular tolerance"):
        trace_rays(Constructed(cf), [2, 3], [2.0, -1.0])
    with pytest.raises(ValueError, match="ray index out of range"):
        trace_rays(Constructed(cf), [1, 4], [2.0])


def test_trace_ray_type_guard():
    with pytest.raises(TypeError):
        trace_ray(Polynomial([1]), 1, [2.0])


def test_log_abs_and_declared_order():
    assert Polynomial([1, 2]).declared_order == 0.0
    assert Classic(ClassicDCA(3)).declared_order == 1.5
    cf = ConstructedF(2, (Polynomial([1]), Polynomial([1])))
    assert Constructed(cf).declared_order == 2.0
    s = Series([1, 1, 0.5], 5.0, declared_order=1.0)
    assert s.log_abs([1.0], [0.0])[0] == pytest.approx(math.log(2.5), abs=1e-12)


def test_spec_json_roundtrip():
    cf = ConstructedF(2, (Polynomial([1]), Series([0, 1, 2j], 9.0, 1.0)))
    specs = (Polynomial([1, 2j]), Series([1, 0.5], 3.0), Classic(ClassicDCA(3)), Constructed(cf))
    # one spec of every kind, each kind string unique and its class's own
    kinds = typing.get_args(EntireSpec)
    assert {type(spec) for spec in specs} == set(kinds)
    assert len({cls.kind for cls in kinds}) == len(kinds)
    assert growth.SPEC_KINDS == {cls.kind: cls for cls in kinds}
    for spec in specs:
        back = spec_from_json_dict(spec_to_json_dict(spec))
        assert type(back) is type(spec)
        assert spec_to_json_dict(back) == spec_to_json_dict(spec)
        assert spec_to_json_dict(spec)["kind"] == type(spec).kind
        assert type(spec).from_json_dict(spec.to_json_dict()).to_json_dict() == spec.to_json_dict()
    # the funcspec/1 format itself, key order included, as strict JSON: an
    # undeclared order is null, since JSON has no NaN
    poly = {"kind": "poly", "coeffs": [[1.0, 0.0]]}
    series = {"kind": "series", "coeffs": [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]],
              "tail_bound_radius": 9.0, "declared_order": 1.0}
    want = (
        {"format": "funcspec/1", "kind": "poly", "coeffs": [[1.0, 0.0], [0.0, 2.0]]},
        {"format": "funcspec/1", "kind": "series", "coeffs": [[1.0, 0.0], [0.5, 0.0]],
         "tail_bound_radius": 3.0, "declared_order": None},
        {"format": "funcspec/1", "kind": "classic", "n": 3},
        {"format": "funcspec/1", "kind": "constructed", "n": 2, "targets": [poly, series]},
    )
    def strict(name):
        raise ValueError("%s is not JSON" % name)

    for spec, d in zip(specs, want):
        text = json.dumps(spec_to_json_dict(spec))
        assert text == json.dumps(d)
        back = spec_from_json_dict(json.loads(text, parse_constant=strict))
        assert json.dumps(spec_to_json_dict(back)) == text
    # null and a missing key both read back as no declared order
    for body in (want[1], {k: v for k, v in want[1].items() if k != "declared_order"}):
        assert math.isnan(spec_from_json_dict(body).declared_order)
    # log_abs on an array gives each point the bits of its one-point call
    zs = np.array([0.5, 1.5 + 2j, -2.5j, 2.0 * cmath.exp(2j), -0.3 + 0.1j])
    r, th = np.abs(zs), np.angle(zs)
    for spec in specs:
        one = [spec.log_abs(r[i:i + 1], th[i:i + 1])[0] for i in range(zs.size)]
        assert spec.log_abs(r, th).tobytes() == np.array(one).tobytes()
    # constructed funcspecs written before the closed form carry an unused tol
    old = dict(spec_to_json_dict(Constructed(cf)), tol=1e-8)
    assert spec_from_json_dict(old) == Constructed(cf)
    # classic funcspecs written before the settings were fixed carry three more keys
    old = dict(spec_to_json_dict(Classic(ClassicDCA(3))), series_cutoff_radius=5.2, term_cap=300, tol=1e-9)
    assert spec_from_json_dict(old) == Classic(ClassicDCA(3))


def test_verify_theorem1_constructed():
    sysm = PathSystem.equally_spaced_rays(2)
    cf = ConstructedF(2, (Polynomial([1]), Polynomial([0, 1])))
    rep = verify_theorem1(Constructed(cf), sysm, 1.0, [2.0, 3.0, 4.0, 5.0], coarse=64)
    assert rep.hypothesis_met
    assert rep.conclusion_positive
    assert rep.consistent_all
    d = asdict(rep)
    assert d["conclusion_min_ratio"] > 0


def test_verify_theorem1_vacuous_polynomial():
    sysm = PathSystem.equally_spaced_rays(2)
    rep = verify_theorem1(Polynomial([0, 1]), sysm, 1.0, [2.0, 3.0, 4.0, 5.0], coarse=64)
    # order-0 spec cannot satisfy the growth hypothesis; the report says
    # so instead of claiming a violated theorem
    assert not rep.hypothesis_met


def test_verify_theorem1_classic():
    sysm = PathSystem.equally_spaced_rays(2)
    spec = Classic(ClassicDCA(2))
    rep = verify_theorem1(spec, sysm, 1.0, [5.0, 10.0, 20.0], kappa=0.5, coarse=64)
    assert rep.conclusion_min_ratio > 0


def _theorem1_per_circle(spec, sysm, R1, radii, kappa, coarse):
    """verify_theorem1 scanning each (radius, domain) circle on its own, in
    that order, and skipping the circles a domain misses: a reference for
    the lockstep scans per domain."""
    radii = sorted(float(r) for r in radii)
    n = sysm.n
    per_domain = {j: [] for j in range(1, n + 1)}
    sector_max = {}
    for r in radii:
        sector_max[r] = {}
        for j in range(1, n + 1):
            try:
                gs = max_on_circle(spec, r, (sysm, j), coarse=coarse)
            except EmptySliceError:
                continue
            sector_max[r][j] = gs.log_max_mod
            per_domain[j].append(gs.log_max_mod / r**kappa)
    hyp_max = tuple(max(per_domain[j]) if per_domain[j] else -math.inf for j in range(1, n + 1))
    flags = tuple(v > 0.0 for v in hyp_max)
    rho = spec.declared_order
    conclusion = min(s.log_max_mod / s.r ** (n / 2.0) for s in max_on_circles(spec, radii, coarse=coarse))
    checks = []
    for r in radii:
        if sector_max[r]:
            j = max(sector_max[r], key=lambda k: sector_max[r][k])
            lower = carleman_report(sysm, j, R1, r).logM_lower
            measured = sector_max[r][j]
            checks.append(RadiusCheck(r, j, measured, lower, measured >= 0.9 * lower))
    return Theorem1Report(kappa, n, R1, hyp_max, flags, any(flags) and (math.isnan(rho) or rho >= kappa),
                          conclusion, conclusion > 0.0, tuple(checks), all(c.consistent for c in checks))


# domain 1 of the pinched system misses every circle inside |z| = 1, where
# its two bounding paths cross |z| = t 1e-16 rad apart
_PINCHED = PathSystem((SegmentalPath.ray(0.0), SegmentalPath([0, cmath.exp(1e-16j)], 1j)))


@pytest.mark.parametrize(
    "spec, sysm, R1, radii",
    [(Classic(ClassicDCA(n)), PathSystem.equally_spaced_rays(n), 1.0, [3.0, 5.0, 8.0]) for n in (2, 3, 4)]
    + [(Classic(ClassicDCA(3)), make_random_system(7), 0.4, [0.6, 1.7, 2.5, 2.5, 6.0]),
       (Polynomial([1, -2, 0.5j]), _PINCHED, 0.25, [0.5, 0.9, 2.0, 4.0])],
    ids=["rays2", "rays3", "rays4", "random7", "pinched"],
)
def test_verify_theorem1_matches_per_circle_scans(spec, sysm, R1, radii):
    want = _theorem1_per_circle(spec, sysm, R1, radii, 0.5, 64)
    assert repr(verify_theorem1(spec, sysm, R1, radii, coarse=64)) == repr(want)


def test_verify_theorem1_degenerate_radius():
    # |z| = 1 passes the pinched system's vertex; the per-circle scans meet
    # it at the same radius first
    for radii in ([0.5, 1.0, 2.0], [2.0, 1.0 + 1e-13]):
        with pytest.raises(DegenerateRadiusError) as got:
            verify_theorem1(Polynomial([0, 1]), _PINCHED, 0.25, radii, coarse=64)
        with pytest.raises(DegenerateRadiusError) as want:
            _theorem1_per_circle(Polynomial([0, 1]), _PINCHED, 0.25, radii, 0.5, 64)
        assert str(got.value) == str(want.value)


def test_verify_theorem1_radii_guard():
    sysm = PathSystem.equally_spaced_rays(2)
    with pytest.raises(ValueError):
        verify_theorem1(Polynomial([0, 1]), sysm, 5.0, [2.0, 3.0])
