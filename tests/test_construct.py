import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asymlab.construct import (
    ConstructedF,
    NotOnRayError,
    RegionTag,
    TooCloseToContour,
    c_constant,
    classify_region,
    contour_identity,
    d_constant,
    eval_E,
    eval_f,
    eval_phi,
    residual_lc,
)
from asymlab.classic import ClassicDCA
from asymlab.growth import Classic
from asymlab.logcx import wrap_angle
from asymlab.specs import Polynomial, Series

# frozen oracles: c_n from Gamma(1 + 1/n), d_n from Gamma(2/n)/n, both
# independently confirmed by high-resolution quadrature of the defining
# integrals (integral of e^{-t^n} resp. t e^{-t^n} over (0, inf))
C_ORACLE = {1: 1.0, 2: 0.8862269254527580, 3: 0.8929795115692492, 4: 0.9064024770554771}
D_ORACLE = {1: 1.0, 2: 0.5, 3: 0.4513726467546789, 4: 0.4431134627263788}


def test_constants_against_gamma_oracle():
    for n, want in C_ORACLE.items():
        assert c_constant(n) == pytest.approx(want, abs=1e-10)
    assert d_constant(1) == pytest.approx(1.0, abs=1e-10)
    assert d_constant(2) == pytest.approx(0.5, abs=1e-10)
    assert d_constant(3) == pytest.approx(math.gamma(2.0 / 3.0) / 3.0, abs=1e-10)
    assert d_constant(4) == pytest.approx(math.gamma(0.5) / 4.0, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_contour_identity(n):
    got = contour_identity(n)
    want = c_constant(n) / math.pi * math.sin(math.pi / n)
    assert abs(got - want) <= 1e-9


def test_classify_region():
    assert classify_region(2.0, 2) is RegionTag.INSIDE
    assert classify_region(-2.0, 2) is RegionTag.OUTSIDE
    assert classify_region(3j, 2) is RegionTag.ON_GAMMA
    assert classify_region(1.5 * cmath.exp(1j * math.pi / 3), 3) is RegionTag.ON_GAMMA


def test_eval_E_decay_negative_axis():
    # E(z) ~ -(c_2/pi) sin(pi/2)/z with O(1/R^2) error; the scaled error
    # stays bounded (successive ratios within a factor 3)
    n = 2
    lead = c_constant(n) / math.pi * math.sin(math.pi / n)
    scaled = []
    for R in (20.0, 40.0, 80.0):
        z = -R
        err = abs(eval_E(z, n, tol=1e-10) + lead / z)
        scaled.append(R * R * err)
    for a, b in zip(scaled, scaled[1:]):
        assert max(a, b) <= 3.0 * min(a, b)


def test_eval_E_raises_on_contour():
    with pytest.raises(TooCloseToContour):
        eval_E(2j, 2)
    with pytest.raises(TooCloseToContour):
        eval_E(0.0, 2)


@pytest.mark.parametrize(
    "n,z0",
    [
        (2, 2j),
        (2, -2j),
        (3, 1.5 * cmath.exp(1j * math.pi / 3)),
        (4, 2.5 * cmath.exp(-1j * math.pi / 4)),
    ],
)
def test_phi_continuous_across_contour(n, z0):
    # two-sided limits onto the contour, Richardson-extrapolated in the
    # normal direction, must agree: phi is entire
    nu = z0 / abs(z0) * 1j  # normal to the ray through z0
    h = 1e-4

    def side(sgn, hh):
        return eval_phi(z0 + sgn * hh * nu, n).to_complex()

    lim_plus = 2.0 * side(1, h / 2) - side(1, h)
    lim_minus = 2.0 * side(-1, h / 2) - side(-1, h)
    assert abs(lim_plus - lim_minus) <= 1e-8


def test_phi_asymptotics_inside():
    # deep inside the sector phi(z) ~ e^{z^n}
    r = eval_phi(3.0, 2)
    assert r.log_mod == pytest.approx(9.0, abs=1e-3)


def test_phi_decays_outside():
    # outside, phi = E_2 ~ -(c_n/pi) sin(pi/n)/z
    n = 2
    lead = c_constant(n) / math.pi * math.sin(math.pi / n)
    v = eval_phi(-3.0, n).to_complex()
    assert abs(v - (-lead / -3.0)) <= 0.1 * abs(lead / 3.0)


def test_phi_at_origin():
    v = eval_phi(0.0, 2).to_complex()
    assert v == pytest.approx(0.5, abs=1e-9)


def _demo_cf(n=2, a2=(0, 1)):
    return ConstructedF(n, (Polynomial([1]), Polynomial(list(a2))))


def test_residual_decreases_and_small():
    cf = _demo_cf()
    for j in (1, 2):
        logs = [residual_lc(r * cmath.exp(1j * cf.ray_angle(j)), j, cf).abs_log10() for r in (2.0, 3.0, 4.0)]
        assert logs[0] > logs[1] > logs[2]
        assert logs[2] <= -6.0


def test_residual_matches_extended_precision_oracle():
    # frozen log10 residuals at r = 2 from a 30-digit evaluation of the
    # same contour integrals
    cf = _demo_cf()
    got1 = residual_lc(2.0 * cmath.exp(1j * cf.ray_angle(1)), 1, cf).abs_log10()
    got2 = residual_lc(2.0 * cmath.exp(1j * cf.ray_angle(2)), 2, cf).abs_log10()
    assert got1 == pytest.approx(-2.153873127902, abs=1e-6)
    assert got2 == pytest.approx(-2.630994382622, abs=1e-6)


def test_residual_requires_point_on_ray():
    cf = _demo_cf()
    with pytest.raises(NotOnRayError):
        residual_lc(2.0 * cmath.exp(1j * (cf.ray_angle(1) + 0.3)), 1, cf)
    with pytest.raises(NotOnRayError):
        residual_lc(0.0, 1, cf)


def test_residual_lc_consistent_with_direct_difference():
    # at moderate radius the naive f - a_j is still computable; the
    # restructured residual must agree
    cf = _demo_cf()
    z = 2.0 * cmath.exp(1j * cf.ray_angle(2))
    direct = eval_f(z, cf).to_complex() - z
    assert abs(residual_lc(z, 2, cf).to_complex() - direct) <= 1e-8 * max(1.0, abs(direct))


def test_conjugation_symmetry():
    # real-coefficient targets with symmetric ray layout give
    # f(conj z) = conj f(z)
    cf = ConstructedF(2, (Polynomial([1]), Polynomial([1])))
    for z in (1.3 + 0.7j, -0.4 + 2.1j):
        a = eval_f(z, cf).to_complex()
        b = eval_f(z.conjugate(), cf).to_complex()
        assert abs(b - a.conjugate()) <= 1e-9 * max(1.0, abs(a))


def test_n_must_be_an_integer():
    targets = (Polynomial([1]), Polynomial([0, 1]))
    for n in (2.0, 2.5, True):
        with pytest.raises(ValueError, match="integer"):
            ConstructedF(n, targets[: int(n)])
    cf = ConstructedF(np.int64(2), targets)
    assert cf == ConstructedF(2, targets) and type(cf.n) is int


def test_targets_must_be_polynomial_or_series():
    # a Classic target used to build, then fail at the first evaluation
    # with "'Classic' object is not callable"
    for bad in (Classic(ClassicDCA(2)), 1.0, lambda z: z):
        with pytest.raises(ValueError, match="Polynomial or a Series"):
            ConstructedF(2, (bad, Polynomial([1])))
    ConstructedF(2, (Series([1, 1], 4.0), Polynomial([1])))


def test_n1_trivial_construction():
    cf = ConstructedF(1, (Polynomial([5.0]),))
    z = 2.0 + 1.0j
    assert abs(eval_f(z, cf).to_complex() - 5.0) <= 1e-9


@pytest.mark.parametrize("n", range(2, 9))
def test_phi_on_sector_boundaries(n):
    # z^n on the negative real axis, where its computed argument may round
    # to -pi or to pi: the sector of z and the branch of ln z^n must agree
    for k in range(n):
        for u in (0.2, 0.5, 0.8, 1.0):
            z = u * 30.0 ** (1.0 / n) * cmath.exp(1j * math.pi * (2 * k + 1) / n)
            on = eval_phi(z, n)
            for eps in (1e-9, -1e-9):
                near = eval_phi(z * cmath.exp(1j * eps), n)
                assert abs(on.log_mod - near.log_mod) <= 1e-6
                assert abs(wrap_angle(on.arg - near.arg)) <= 1e-6


@given(
    r=st.floats(0.5, 3.0),
    theta=st.floats(-math.pi, math.pi),
    n=st.integers(2, 3),
)
@settings(max_examples=20, deadline=None)
def test_phi_finite_everywhere(r, theta, n):
    # phi is entire: any point evaluates to a finite LogComplex
    z = r * cmath.exp(1j * theta)
    v = eval_phi(z, n)
    assert math.isfinite(v.log_mod) or v.is_zero


@given(
    r=st.floats(0.05, 3.0),
    theta=st.floats(-math.pi, math.pi),
    n=st.integers(2, 8),
)
@settings(max_examples=40, deadline=None)
def test_phi_conjugate_symmetry(r, theta, n):
    # phi has real Taylor coefficients 1 / (n Gamma(1 + k/n))
    z = r * cmath.exp(1j * theta)
    a = eval_phi(z, n)
    b = eval_phi(z.conjugate(), n)
    assert abs(a.log_mod - b.log_mod) <= 1e-12
    assert abs(wrap_angle(a.arg + b.arg)) <= 1e-12


@given(
    r=st.floats(0.05, 2.5),
    theta=st.floats(-math.pi, math.pi),
    n=st.integers(2, 8),
)
@settings(max_examples=40, deadline=None)
def test_phi_rotation_identity(r, theta, n):
    # sum_j phi(omega^j z) = e^{z^n}; the sum cancels down to a tiny e^{z^n}
    # where Re z^n << 0, so the error is measured against the largest of
    # |e^{z^n}| and the |phi(omega^j z)|, in log space.  Rounding the
    # rotated points moves z^n by about |z^n| machine epsilons.
    z = r * cmath.exp(1j * theta)
    w = z**n
    phis = [eval_phi(cmath.exp(2j * math.pi * j / n) * z, n) for j in range(n)]
    top = max([w.real] + [p.log_mod for p in phis])
    total = sum(cmath.exp(complex(p.log_mod - top, p.arg)) for p in phis)
    assert abs(total - cmath.exp(complex(w.real - top, w.imag))) <= 1e-13 * max(1.0, abs(w))


@given(
    u=st.floats(0.0, 1.0),
    theta=st.floats(-math.pi, math.pi),
    n=st.integers(2, 8),
    a_re=st.floats(-10.0, 10.0),
    a_im=st.floats(-10.0, 10.0),
)
@settings(max_examples=40, deadline=None)
def test_equal_targets_give_the_target(u, theta, n, a_re, a_im):
    # with every target equal to a, f = a.  Where |z^n| <= 4: beyond that
    # the rounding of the targets' discrete Fourier transform (about n
    # epsilons of |a|) is amplified by Q ~ e^{|z^n|}
    a = complex(a_re, a_im)
    assume(abs(a) > 1e-3)
    z = u * 4.0 ** (1.0 / n) * cmath.exp(1j * theta)
    f = eval_f(z, ConstructedF(n, (Polynomial([a]),) * n)).to_complex()
    assert abs(f - a) <= 1e-13 * abs(a)
