import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asymlab.geometry import (
    _DEGEN_EPS,
    AngularSlice,
    DegenerateRadiusError,
    EmptySliceError,
    KappaParams,
    LabelConflictError,
    PathSystem,
    SegmentalPath,
    a0_constant,
    angular_measure,
    carleman_integral,
    carleman_report,
    check_sector_inequality,
    normalize_collection,
    paths_intersect_beyond,
    point_in_domain,
)
from asymlab.geometry import _check_radius, _intersect_elements, _phi_near, _smooth_intervals
from asymlab.logcx import wrap_angle

from conftest import make_random_system


# --- angular measure -------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_equally_spaced_rays_measure(n):
    sysm = PathSystem.equally_spaced_rays(n)
    for t in (0.3, 1.0, 12.0):
        for j in range(1, n + 1):
            sl = angular_measure(sysm, j, t)
            assert sl.phi == pytest.approx(2.0 * math.pi / n, abs=1e-12)


def test_quarter_plane_measure():
    sysm = PathSystem((SegmentalPath.ray(0.0), SegmentalPath.ray(math.pi / 2)))
    for t in (0.5, 4.0):
        assert angular_measure(sysm, 1, t).phi == pytest.approx(math.pi / 2, abs=1e-12)
        assert angular_measure(sysm, 2, t).phi == pytest.approx(3 * math.pi / 2, abs=1e-12)


def test_angular_measure_non_finite_radius():
    # t = nan used to return an empty slice, phi = 0
    sysm = PathSystem.equally_spaced_rays(3)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            angular_measure(sysm, 1, t)


def test_l_shaped_path_against_dense_scan():
    L = SegmentalPath([0, 1, 1 + 10j], 1j)
    cases = [(PathSystem((L, SegmentalPath.ray(math.pi))), 1, (0.5, 2.0), 5000)]
    for seed in range(4):
        sysm = make_random_system(seed)
        cases += [(sysm, 1, (0.7, 3.0), 400), (sysm, sysm.n, (1.5,), 400)]
    # one path meeting |z| = 2 three times: out, back in, out again
    multi = SegmentalPath([0, 3, 2 + 2j, 1j], -1)
    cases.append((PathSystem((multi,)), 1, (1.5, 2.0, 2.5), 400))
    for sysm, j, radii, probes in cases:
        thetas = np.linspace(-math.pi, math.pi, probes, endpoint=False)
        for t in radii:
            sl = angular_measure(sysm, j, t)
            ends = np.array([e for arc in sl.arcs for e in arc])
            hits = 0
            for th in thetas:
                member = point_in_domain(sysm, j, t * cmath.exp(1j * th))
                hits += member
                # away from the crossings the arcs and the winding number agree
                if np.min(np.abs((ends - th + math.pi) % (2 * math.pi) - math.pi)) > 1e-6:
                    in_arcs = any(a < th + k * 2 * math.pi < b for a, b in sl.arcs for k in (0, 1))
                    assert in_arcs == member, (t, th)
            oracle = hits / probes * 2.0 * math.pi
            assert abs(sl.phi - oracle) <= 2.0 * math.pi * 1e-3 + len(ends) * (2 * math.pi / probes)
            if sysm.n == 1:
                assert sl.phi == 2.0 * math.pi


def test_degenerate_radius_raises():
    p = SegmentalPath([0, 1, 1 + 2j], 1j)
    with pytest.raises(DegenerateRadiusError):
        p.circle_crossing_angles(1.0)  # vertex exactly at radius 1
    # vertex moduli plus interior closest approaches of a segment and a ray
    paths = {
        (1.0, math.sqrt(5.0)): p,
        (2.0, 2.0 * math.sqrt(2.0)): SegmentalPath([0, 2, 2 + 2j, -2 + 2j], -1),
        (2.0, math.sqrt(5.0)): SegmentalPath([0, 2 + 1j], -1j),
        (): SegmentalPath.ray(0.3),
    }
    for want, path in paths.items():
        assert path.critical_radii() == pytest.approx(list(want), rel=1e-15)
        for v in path.vertices[1:]:
            with pytest.raises(DegenerateRadiusError):
                path.circle_crossing_angles(abs(v))
    # a tangency raises on both sides, whichever way the discriminant
    # rounds: the terminal ray touches |z| = 2 at z = 2, the middle segment
    # touches |z| = 2 at z = 2i
    for path in (SegmentalPath([0, 2 + 1j], -1j), SegmentalPath([0, 3, 3 + 2j, -3 + 2j], -1)):
        assert 2.0 in path.critical_radii()
        for t in (2.0, 2.0 - 1e-13, 2.0 + 1e-13):
            with pytest.raises(DegenerateRadiusError):
                path.circle_crossing_angles(t)
        for t in (2.0 - 1e-9, 2.0 + 1e-9):
            path.circle_crossing_angles(t)


_CROSSING_PATHS = [p for seed in range(8) for p in make_random_system(seed).paths] + [
    SegmentalPath.ray(0.0),
    SegmentalPath.ray(-2.5),
    SegmentalPath([0, 2 + 1j], -1j),
    SegmentalPath([0, 3, 3 + 2j, -3 + 2j], -1),
]


@given(
    path=st.sampled_from(_CROSSING_PATHS),
    pick=st.integers(0, 63),
    offset=st.floats(-30.0, 30.0),
    log_t=st.floats(-15.0, 3.0),
)
@example(path=SegmentalPath.ray(0.3), pick=0, offset=0.0, log_t=-13.0)
@settings(max_examples=400, deadline=None)
def test_crossings_raise_exactly_at_critical_radii(path, pick, offset, log_t):
    # t is either offset tolerances away from a critical radius or anywhere
    crit = path.critical_radii()
    if crit and pick < 48:
        c = crit[pick % len(crit)]
        t = c + offset * _DEGEN_EPS * max(c, 1.0)
    else:
        t = 10.0**log_t
    if any(abs(c - t) < _DEGEN_EPS * max(t, 1.0) for c in crit):
        with pytest.raises(DegenerateRadiusError):
            path.circle_crossing_angles(t)
    else:
        # the path runs from 0 out to infinity: it leaves the disk once
        # more often than it enters
        outward = [out for _, out in path.circle_crossing_angles(t)]
        assert outward.count(True) - outward.count(False) == 1


_L_SYSTEM = PathSystem((SegmentalPath([0, 1, 1 + 10j], 1j), SegmentalPath.ray(math.pi)))
# path 2's segment crosses the inward segment of path 1 near |z| = 2.7487: the
# crossings swap order there, but no inside arc closes
_SWAP = PathSystem((SegmentalPath([0, 3, 2 + 2j, 1j], -1), SegmentalPath([0, 4 + 1j], -1j)))


@pytest.mark.parametrize("t", [1e16, 1e20, 1e30, 1e45, 1e60, 1e77, 1e100, 1e150])
def test_crossings_at_large_radii(t):
    # the terminal ray used to be a segment of length t + |a| + 1: from
    # t = 1e16 its crossing rounded to the far end and was dropped, and from
    # t = 1e77 its quadratic overflowed
    systems = [PathSystem.equally_spaced_rays(n) for n in (1, 2, 3, 5)]
    systems += [make_random_system(seed) for seed in range(6)] + [_L_SYSTEM]
    for sysm in systems:
        for path in sysm.paths:
            assert [out for _, out in path.circle_crossing_angles(t)] == [True]
        phis = [angular_measure(sysm, j, t).phi for j in range(1, sysm.n + 1)]
        assert min(phis) > 0.0
        assert abs(sum(phis) - 2.0 * math.pi) <= 1e-12


@pytest.mark.parametrize("t", [1e154, 1e160, 1e300])
def test_huge_radii_raise(t):
    # 2 t^2 overflows from t = 9.5e153, t^2 itself from t = 1.3e154
    path = make_random_system(0).paths[0]
    with pytest.raises(ValueError, match=re.escape("radius %g " % t)):
        path.circle_crossing_angles(t)
    for sysm in (PathSystem.equally_spaced_rays(2), _L_SYSTEM):
        with pytest.raises(ValueError, match=re.escape("radius %g " % t)):
            angular_measure(sysm, 1, t)
        with pytest.raises(ValueError, match=re.escape("R = %g " % t)):
            carleman_integral(sysm, 1, 1.0, t)


def test_phi_closed_form_matches_angular_measure():
    # one path that leaves |z| = 2 twice, and two paths whose crossings swap
    # order where they meet
    systems = [make_random_system(seed) for seed in range(12)] + [_L_SYSTEM, _SWAP]
    systems.append(PathSystem((SegmentalPath([0, 3, 2 + 2j, 1j], -1),)))
    worst = 0.0
    for sysm in systems:
        for j in range(1, sysm.n + 1):
            for lo, hi, t0 in _smooth_intervals(sysm, j, 30.0):
                phi0, change = _phi_near(sysm, j, t0)
                # 20 points inside the interval between the two cuts around t0
                ts = t0 + (t0 - lo) * np.linspace(-1.0, 1.0, 22)[1:-1]
                want = np.array([angular_measure(sysm, j, t).phi for t in ts])
                worst = max(worst, np.max(np.abs(phi0 + change(ts) - want)))
    assert worst <= 1e-14


def test_slices_sum_below_full_circle():
    for seed in range(5):
        sysm = make_random_system(seed)
        for t in (0.7, 3.0, 11.0):
            total = sum(
                angular_measure(sysm, j, t).phi for j in range(1, sysm.n + 1)
            )
            assert total <= 2.0 * math.pi + 1e-9


# The crossing, slice and sector routines as they were before the per-path
# crossing table: references for the bits of every angle, arc, Phi and
# sector sum, and for each error's type, message and order.

def _reference_crossings(path, t):
    _check_radius("radius", t)
    if any(abs(c - t) < _DEGEN_EPS * max(t, 1.0) for c in path.critical_radii()):
        raise DegenerateRadiusError(
            "circle of radius %g passes a vertex of the path or touches it" % t
        )
    angles = []
    for a, d, s_max in path._elements:
        qa = abs(d) ** 2
        hb = (a * d.conjugate()).real
        disc = hb * hb - qa * (abs(a) ** 2 - t * t)
        if disc <= 0.0:
            continue
        root = math.sqrt(disc)
        for s, outward in (((-hb - root) / qa, False), ((-hb + root) / qa, True)):
            if 0.0 < s < s_max:
                angles.append((wrap_angle(cmath.phase(a + s * d)), outward))
    return angles


def _reference_measure(sysm, j, t):
    _check_radius("radius", t)
    g1, g2 = sysm.domain_boundary(j)
    if g2 is g1:
        crossings = [(th, True) for th, _ in _reference_crossings(g1, t)]
    else:
        crossings = _reference_crossings(g1, t)
        crossings.extend((th, not out) for th, out in _reference_crossings(g2, t))
    crossings.sort()
    arcs = []
    total = 0.0
    for i, (th, starts_inside) in enumerate(crossings):
        th_next = crossings[(i + 1) % len(crossings)][0]
        if i + 1 == len(crossings):
            th_next += 2.0 * math.pi
        if th_next - th < 1e-15:
            continue
        if starts_inside:
            arcs.append((th, th_next))
            total += th_next - th
    return AngularSlice(t, tuple(arcs), min(total, 2.0 * math.pi))


def _reference_sector(sysm, t):
    lhs = 0.0
    for j in range(1, sysm.n + 1):
        phi = _reference_measure(sysm, j, t).phi
        if phi <= 0:
            raise EmptySliceError("domain %d misses the circle at t=%g" % (j, t))
        lhs += 1.0 / phi
    rhs = sysm.n * sysm.n / (2.0 * math.pi)
    return lhs, rhs, lhs >= rhs * (1.0 - 1e-9)


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as e:  # the type and message are the outcome
        return "%s: %s" % (type(e).__name__, e)


# domain 1 misses every circle inside |z| = 1, where its bounding paths cross
# 1e-16 rad apart; with the third path, |z| = 0.5 also passes a vertex of
# path 3, and the sector check must report the empty slice of domain 1 first
_PINCHED = PathSystem((SegmentalPath.ray(0.0), SegmentalPath([0, cmath.exp(1e-16j)], 1j)))
_PINCHED3 = PathSystem(_PINCHED.paths + (SegmentalPath([0, 0.5j, 2j], -1),))


@pytest.mark.parametrize(
    "sysm",
    [pytest.param(make_random_system(seed), id="random%d" % seed) for seed in range(12)]
    + [pytest.param(PathSystem.equally_spaced_rays(n), id="rays%d" % n) for n in range(1, 7)]
    + [
        pytest.param(PathSystem((SegmentalPath.ray(0.0), SegmentalPath.ray(math.pi / 2))), id="quarter"),
        pytest.param(_L_SYSTEM, id="L"),
        pytest.param(PathSystem((SegmentalPath([0, 1, 1 + 2j], 1j), SegmentalPath.ray(math.pi))), id="L-cli"),
        pytest.param(_SWAP, id="swap"),
        pytest.param(PathSystem((SegmentalPath([0, 3, 2 + 2j, 1j], -1),)), id="multi"),
        pytest.param(_PINCHED, id="pinched"),
        pytest.param(_PINCHED3, id="pinched3"),
    ],
)
def test_crossings_slices_and_sectors_keep_their_bits(sysm):
    radii = list(np.geomspace(1e-3, 1e3, 61)) + [0.0, -1.0, math.nan, math.inf, 1e100, 1e154]
    for c in sorted({c for p in sysm.paths for c in p.critical_radii()}):
        radii += [c * (1.0 + k) for k in (0.0, -1e-11, -1e-13, 1e-13, 1e-11)]
    for t in radii:
        t = float(t)
        assert _outcome(check_sector_inequality, sysm, t) == _outcome(_reference_sector, sysm, t)
        for j in range(1, sysm.n + 1):
            assert _outcome(angular_measure, sysm, j, t) == _outcome(_reference_measure, sysm, j, t)
        for p in sysm.paths:
            assert _outcome(p.circle_crossing_angles, t) == _outcome(_reference_crossings, p, t)


# --- Carleman --------------------------------------------------------------

def test_carleman_closed_form_rays():
    sysm = PathSystem.equally_spaced_rays(2)
    got = carleman_integral(sysm, 1, 1.0, math.exp(math.pi))
    assert abs(got - 1.0) <= 1e-8


def test_carleman_closed_form_slit_plane():
    sysm = PathSystem((SegmentalPath.ray(0.0),))
    got = carleman_integral(sysm, 1, 1.0, math.e)
    assert abs(got - 1.0 / (2.0 * math.pi)) <= 1e-8


def _composite_carleman(sysm, j, knees):
    """Fine composite 8-point Gauss-Legendre rule for the Carleman integral
    over [knees[0], knees[-1]]; panels are graded toward both ends of every
    interval between knees (cubically), at most one panel per 1e-6 of its
    length."""
    x, w = np.polynomial.legendre.leggauss(8)
    total = 0.0
    for a, b in zip(knees, knees[1:]):
        s = np.linspace(0.0, 1.0, min(200, max(1, int((b - a) * 1e6))) + 1)
        edges = a + (b - a) * np.where(s < 0.5, 4 * s**3, 1 - 4 * (1 - s) ** 3)
        for p, q in zip(edges, edges[1:]):
            ts = 0.5 * (p + q) + 0.5 * (q - p) * x
            total += 0.5 * (q - p) * sum(
                wi / (t * angular_measure(sysm, j, t).phi) for wi, t in zip(w, ts)
            )
    return total


def test_carleman_split_at_critical_radii():
    # R1 = 1 is the modulus of the L's corner, where Phi grows like
    # sqrt(t - 1); R = 1.0001 puts a short piece right after it
    L = SegmentalPath([0, 1, 1 + 10j], 1j)
    sysm = PathSystem((L, SegmentalPath.ray(math.pi)))
    for knees in ((1.0, 12.0), (0.1, 1.0, 1.0001)):
        got = carleman_integral(sysm, 1, knees[0], knees[-1])
        assert abs(got - _composite_carleman(sysm, 1, knees)) <= 1e-11
    # ends a hair away from the corner neither raise nor jump
    at_corner = carleman_integral(sysm, 1, 0.1, 1.0)
    for R in (1.0 - 1e-10, 1.0 + 1e-10):
        assert abs(carleman_integral(sysm, 1, 0.1, R) - at_corner) <= 1e-9
    # critical radii 1e-9 apart, and ends placed around them
    pair = PathSystem(
        (SegmentalPath([0, 1], 1j), SegmentalPath([0, -(1 + 1e-9)], -1j))
    )
    for j in (1, 2):
        for R1 in (0.5, (1.0 + 1e-9) * (1.0 - 1e-6), 1.0, 1.0 + 5e-10):
            knees = sorted({R1, *(r for r in (1.0, 1.0 + 1e-9) if r > R1), 4.0})
            got = carleman_integral(pair, j, R1, 4.0)
            assert abs(got - _composite_carleman(pair, j, knees)) <= 1e-11
    # three rotated copies of the L: their corner moduli differ by an ulp
    turns = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
    rotated = PathSystem(
        tuple(SegmentalPath([v * u for v in L.vertices], 1j * u) for u in turns)
    )
    assert len({abs(p.vertices[1]) for p in rotated.paths}) == 2
    for j in (1, 2, 3):
        got = carleman_integral(rotated, j, 0.25, 12.0)
        assert abs(got - _composite_carleman(rotated, j, (0.25, 1.0, 12.0))) <= 1e-11


_CARLEMAN_SYSTEMS = [make_random_system(seed) for seed in range(10)] + [_L_SYSTEM]
_NEAR_CRITICAL = st.tuples(
    st.integers(0, 63), st.one_of(st.just(0.0), st.floats(-1000.0, 1000.0)), st.floats(-1.0, 1.5)
)


@given(
    k=st.integers(0, len(_CARLEMAN_SYSTEMS) - 1),
    j=st.integers(1, 4),
    picks=st.lists(_NEAR_CRITICAL, min_size=3, max_size=3),
)
# R1 = 1, m = 10^1e-7 and R = |1 + 10i| on the L: [m, R] starts 2.3e-7
# past the square-root end of its interval; parts - whole was 9.5e-12 while
# each part was smoothed at its own ends
@example(k=10, j=1, picks=[(0, 0.0, 0.0), (1, 0.0, 0.0), (48, 0.0, 1e-07)])
@settings(max_examples=300, deadline=None)
def test_carleman_additive_near_critical_radii(k, j, picks):
    # each of R1 < m < R is a critical radius of domain j's paths, within
    # 1000 degenerate windows of one, or anywhere in [0.1, 30]
    sysm = _CARLEMAN_SYSTEMS[k]
    j = 1 + (j - 1) % sysm.n
    crit = sorted({r for g in sysm.domain_boundary(j) for r in g.critical_radii()})
    pts = []
    for pick, offset, log_t in picks:
        c = crit[pick % len(crit)]
        pts.append(c + offset * _DEGEN_EPS * max(c, 1.0) if pick < 48 else 10.0**log_t)
    R1, m, R = sorted(pts)
    assume(R1 < m < R)
    whole = carleman_integral(sysm, j, R1, R)
    parts = carleman_integral(sysm, j, R1, m) + carleman_integral(sysm, j, m, R)
    assert abs(parts - whole) <= 1e-13 * max(whole, 1.0)


@pytest.mark.parametrize("ratio", [1e12, 1e15])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_carleman_rays_long_ranges(n, ratio):
    # these ranges used to end in QuadratureNonconvergence
    sysm = PathSystem.equally_spaced_rays(n)
    for R1 in (0.5, 1.0, 3.0):
        want = math.log(ratio) / (2.0 * math.pi / n)
        assert carleman_integral(sysm, 1, R1, R1 * ratio) == pytest.approx(want, rel=1e-15)


def _meeting_radii(sysm, j, R):
    g1, g2 = sysm.domain_boundary(j)
    pts = [z for e1 in g1._elements for e2 in g2._elements for z in _intersect_elements(e1, e2)]
    return sorted({abs(z) for z in pts if 0.0 < abs(z) < R})


def test_carleman_across_meeting_paths():
    for j in (1, 2):
        meet = _meeting_radii(_SWAP, j, 5.0)
        assert meet == [pytest.approx(2.7487, abs=1e-4)]
        crit = [r for g in _SWAP.domain_boundary(j) for r in g.critical_radii()]
        knees = sorted({0.5, 5.0, *meet, *(r for r in crit if 0.5 < r < 5.0)})
        got = carleman_integral(_SWAP, j, 0.5, 5.0)
        assert abs(got - _composite_carleman(_SWAP, j, knees)) <= 1e-11
    # path 1's terminal ray crosses the ray of path 2 near |z| = 2.2733 and
    # closes the arc of each domain from one side: Phi_j reaches 0 there,
    # and the integral across it diverges
    pinch = PathSystem(
        (SegmentalPath([0, 2 * cmath.exp(2j)], cmath.exp(0.5j)), SegmentalPath.ray(math.pi / 2))
    )
    for j in (1, 2):
        assert _meeting_radii(pinch, j, 5.0) == [pytest.approx(2.2733, abs=1e-4)]
        with pytest.raises(EmptySliceError):
            carleman_integral(pinch, j, 0.5, 5.0)
        for knees in ((0.5, 2.0, 2.2), (2.3, 5.0)):
            got = carleman_integral(pinch, j, knees[0], knees[-1])
            assert abs(got - _composite_carleman(pinch, j, knees)) <= 1e-11


def test_carleman_monotone_in_R():
    sysm = make_random_system(3)
    vals = [carleman_integral(sysm, 1, 1.0, R, tol=1e-8) for R in (2.0, 4.0, 8.0)]
    assert vals[0] < vals[1] < vals[2]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_carleman_report_rays(n):
    sysm = PathSystem.equally_spaced_rays(n)
    rep = carleman_report(sysm, 1, 1.0, 10.0)
    want = (math.pi / 8.0) * 10.0 ** (n / 2.0)
    assert abs(rep.logM_lower - want) <= 1e-6
    assert rep.omega_bound * rep.logM_lower == 1.0
    # logM_lower >= (pi/8)(R/R1)^{1/2} always, since Phi <= 2 pi
    assert rep.logM_lower >= (math.pi / 8.0) * math.sqrt(10.0) * (1 - 1e-12)


def test_carleman_report_empty_range():
    sysm = PathSystem.equally_spaced_rays(2)
    rep = carleman_report(sysm, 1, 3.0, 3.0)
    assert rep.omega_bound == pytest.approx(8.0 / math.pi)
    assert rep.logM_lower == pytest.approx(math.pi / 8.0)


def test_kappa_params_validation():
    with pytest.raises(ValueError):
        KappaParams(kappa=0.3, kappa1=0.4, kappa2=0.35)


# --- sector inequality -----------------------------------------------------

def test_sector_equality_for_rays():
    for n in (2, 3, 4):
        sysm = PathSystem.equally_spaced_rays(n)
        lhs, rhs, holds = check_sector_inequality(sysm, 2.0)
        assert holds
        assert abs(lhs - rhs) <= 1e-9


def test_sector_strict_for_perturbed_rays():
    sysm = PathSystem(
        (SegmentalPath.ray(0.0), SegmentalPath.ray(2.0), SegmentalPath.ray(4.0))
    )
    lhs, rhs, holds = check_sector_inequality(sysm, 5.0)
    assert holds and lhs > rhs + 1e-6


def test_sector_random_systems():
    for seed in range(10):
        sysm = make_random_system(seed + 100)
        for t in (1.0, 5.0, 20.0):
            lhs, rhs, holds = check_sector_inequality(sysm, t)
            assert holds


# --- A0 --------------------------------------------------------------------

def test_a0_value():
    assert a0_constant(0.25) == pytest.approx(80.0 / math.sqrt(2.0), rel=1e-12)


def test_a0_monotone_divergence():
    assert a0_constant(0.49) > a0_constant(0.4) > 1.0
    with pytest.raises(ValueError):
        a0_constant(0.5)
    with pytest.raises(ValueError):
        a0_constant(0.0)


@pytest.mark.parametrize("k1", [0.1, 0.3, 0.45])
@pytest.mark.parametrize("r", [1.0, 10.0])
def test_a0_tail_identity(k1, r):
    # 20 r^{1/2} * integral over [4r, inf) of t^{k1 - 3/2} dt = A0 r^{k1}
    tail = (4.0 * r) ** (k1 - 0.5) / (0.5 - k1)
    lhs = 20.0 * math.sqrt(r) * tail
    rhs = a0_constant(k1) * r**k1
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


# --- membership / simplicity ----------------------------------------------

def test_point_in_domain_quarter():
    sysm = PathSystem((SegmentalPath.ray(0.0), SegmentalPath.ray(math.pi / 2)))
    assert point_in_domain(sysm, 1, 1 + 1j)
    assert not point_in_domain(sysm, 1, -1 + 1j)
    assert point_in_domain(sysm, 2, -1 + 1j)
    assert point_in_domain(sysm, 1, 40 + 39j)  # far points too


@pytest.mark.filterwarnings("error")
def test_point_in_domain_huge_and_subnormal_points():
    # domain 1 of two rays is the lower half plane; squares of |p| near
    # 3e153 used to overflow and subnormal arguments to raise
    rays = PathSystem.equally_spaced_rays(2)
    for p in (3e153 - 3e153j, 1e307 - 1e307j, -1e300j, 5e-324 - 5e-324j, -5e-324j):
        assert point_in_domain(rays, 1, p) and not point_in_domain(rays, 2, p)
        assert point_in_domain(rays, 2, p.conjugate()) and not point_in_domain(rays, 1, p.conjugate())
    # the closing circle's radius 4|p| overflows
    with pytest.raises(ValueError, match="too far out"):
        point_in_domain(rays, 1, 1e308 - 1j)


def test_ccw_order_enforced():
    with pytest.raises(ValueError):
        PathSystem((SegmentalPath.ray(1.0), SegmentalPath.ray(0.5), SegmentalPath.ray(2.0)))


# --- normalize_collection --------------------------------------------------

def test_normalize_adjacent_equal_labels():
    rays = [SegmentalPath.ray(k * 2 * math.pi / 3) for k in range(3)]
    out = normalize_collection(rays, ["a", "a", "b"], 1.0)
    assert out.n == 2
    assert sorted(out.labels) == ["a", "b"]


def test_normalize_keeps_alternating_labels():
    rays = [SegmentalPath.ray(k * math.pi / 2) for k in range(4)]
    out = normalize_collection(rays, ["a", "b", "a", "b"], 1.0)
    assert out.n == 4


def test_normalize_far_crossing_equal_labels():
    p1 = SegmentalPath([0, 4 + 0.5j], 1 + 0j)
    p2 = SegmentalPath([0, 4 - 0.5j], cmath.exp(0.2j))
    out = normalize_collection([p1, p2, SegmentalPath.ray(math.pi)], ["a", "a", "b"], 1.0)
    assert out.n == 2
    assert sorted(out.labels) == ["a", "b"]


def test_normalize_label_conflict():
    p1 = SegmentalPath([0, 4 + 0.5j], 1 + 0j)
    p2 = SegmentalPath([0, 4 - 0.5j], cmath.exp(0.2j))
    with pytest.raises(LabelConflictError):
        normalize_collection([p1, p2], ["a", "b"], 1.0)


def test_normalize_far_meeting_rays():
    # the two terminal rays meet near |z| = 1000; a ray used to be a segment
    # reaching about 12 here, so the meeting was missed
    p1, p2 = SegmentalPath.ray(0.0), SegmentalPath([0, 1j], cmath.exp(-1e-3j))
    assert paths_intersect_beyond(p1, p2, 1.0)
    with pytest.raises(LabelConflictError):
        normalize_collection([p1, p2], ["a", "b"], 1.0)
    assert normalize_collection([p1, p2], ["a", "a"], 1.0).n == 1


@pytest.mark.parametrize("k", range(6, 14))
def test_nearly_parallel_rays_meet_far_out(k):
    # rays 10^-k rad apart met only down to about 1e-12 rad, when a fixed
    # angle decided that two elements were parallel
    delta = 10.0**-k
    ray = SegmentalPath.ray(0.0)
    toward, away = (SegmentalPath([0, 1j], cmath.exp(sign * 1j * delta)) for sign in (-1, 1))
    assert paths_intersect_beyond(ray, toward, 1.0)
    (pt,) = _intersect_elements(ray._elements[-1], toward._elements[-1])
    assert abs(pt - 1.0 / math.tan(delta)) <= 1e-9 / delta
    assert not paths_intersect_beyond(ray, away, 1.0)
    # segments along those lines stop long before the lines meet
    assert _intersect_elements((0j, 1 + 0j, 1.0), (1j, cmath.exp(-1j * delta), 1.0)) == []


def test_normalize_collinear_rays():
    # the terminal ray from 1 runs along the ray from 0: they overlap from 1
    # out to infinity, the only point of the overlap beyond the disk
    p1, p2 = SegmentalPath.ray(0.0), SegmentalPath([0, -1j, 1], 1)
    assert _intersect_elements(p1._elements[-1], p2._elements[-1]) == [1, math.inf]
    assert paths_intersect_beyond(p1, p2, 10.0)
    with pytest.raises(LabelConflictError):
        normalize_collection([p1, p2], ["a", "b"], 10.0)
    # opposite collinear rays share only their common origin
    assert not paths_intersect_beyond(p1, SegmentalPath.ray(math.pi), 0.5)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_normalize_idempotent(seed):
    rng = np.random.default_rng(seed)
    sysm = make_random_system(seed)
    labels = [rng.choice(["a", "b", "c"]) for _ in range(sysm.n)]
    once = normalize_collection(sysm.paths, labels, 1.0)
    twice = normalize_collection(once.paths, once.labels, 1.0)
    assert once == twice


# --- serialization ---------------------------------------------------------

def test_json_roundtrip():
    sysm = make_random_system(7)
    back = PathSystem.from_json(sysm.to_json())
    assert back.n == sysm.n
    for p, q in zip(sysm.paths, back.paths):
        assert all(abs(a - b) < 1e-15 for a, b in zip(p.vertices, q.vertices))
        assert abs(p.terminal_direction - q.terminal_direction) < 1e-15
    assert back.labels == sysm.labels


def test_json_format_guard():
    with pytest.raises(ValueError):
        PathSystem.from_json('{"format": "other/9", "paths": []}')
