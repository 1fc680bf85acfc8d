import cmath
import math

import numpy as np
import pytest

from asymlab import growth
from asymlab.classic import ClassicDCA
from asymlab.construct import ConstructedF, eval_f
from asymlab.geometry import DegenerateRadiusError, PathSystem, SegmentalPath
from asymlab.growth import (
    Classic,
    Constructed,
    GrowthSample,
    InsufficientDynamicRangeError,
    declared_order,
    eval_log,
    fit_order,
    max_on_circle,
    spec_from_json_dict,
    spec_to_json_dict,
    trace_ray,
    verify_theorem1,
)
from asymlab.logcx import wrap_angle
from asymlab.specs import Polynomial, Series


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
    # with every probe evaluated on its own through eval_log gives the
    # same sample
    spec = Constructed(
        ConstructedF(3, (Series([1, 0.5, 0.25j], 10.0), Polynomial([0, 1]), Polynomial([2j])))
    )
    series = spec.cf.a_list[0]
    zs = np.array([1.0, 2.5j, -2.5])
    assert list(series(zs)) == [series(complex(z)) for z in zs]
    with pytest.raises(ValueError, match="beyond certified radius"):
        series(np.array([1.0, 11.0j]))  # one point beyond it
    whole = max_on_circle(spec, 2.5, coarse=64)
    monkeypatch.setattr(growth, "_log_mods", lambda s, zs: [eval_log(s, z).log_mod for z in zs])
    single = max_on_circle(spec, 2.5, coarse=64)
    assert (whole.r, whole.domain_id, whole.samples_used) == (single.r, single.domain_id, single.samples_used)
    assert whole.log_max_mod == pytest.approx(single.log_max_mod, rel=1e-13)
    assert whole.argmax_theta == pytest.approx(single.argmax_theta, abs=1e-6)


def _counting_log_mods(monkeypatch):
    """Count every point that max_on_circle evaluates."""
    seen = []
    inner = growth._log_mods

    def counted(spec, zs):
        seen.append(len(zs))
        return inner(spec, zs)

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


def test_trace_ray_type_guard():
    with pytest.raises(TypeError):
        trace_ray(Polynomial([1]), 1, [2.0])


def test_eval_log_dispatch_and_declared_order():
    assert declared_order(Polynomial([1, 2])) == 0.0
    assert declared_order(Classic(ClassicDCA(3))) == 1.5
    cf = ConstructedF(2, (Polynomial([1]), Polynomial([1])))
    assert declared_order(Constructed(cf)) == 2.0
    s = Series([1, 1, 0.5], 5.0, declared_order=1.0)
    assert eval_log(s, 1.0).log_mod == pytest.approx(math.log(2.5), abs=1e-12)


def test_spec_json_roundtrip():
    cf = ConstructedF(2, (Polynomial([1]), Series([0, 1, 2j], 9.0, 1.0)))
    for spec in (
        Polynomial([1, 2j]),
        Series([1, 0.5], 3.0),
        Classic(ClassicDCA(3)),
        Constructed(cf),
    ):
        back = spec_from_json_dict(spec_to_json_dict(spec))
        assert type(back) is type(spec)
        assert spec_to_json_dict(back) == spec_to_json_dict(spec)
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
    d = rep.to_json_dict()
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


def test_verify_theorem1_radii_guard():
    sysm = PathSystem.equally_spaced_rays(2)
    with pytest.raises(ValueError):
        verify_theorem1(Polynomial([0, 1]), sysm, 5.0, [2.0, 3.0])
