import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymlab.quadrature import (
    QuadratureNonconvergence,
    envelope_tail_bound,
    integrate_segment,
    truncation_radius,
)

cx = st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)


@given(
    coeffs=st.lists(cx, min_size=1, max_size=8),
    a=cx,
    b=cx,
)
@settings(max_examples=100)
def test_polynomial_exactness(coeffs, a, b):
    # a single Kronrod panel is exact for low-degree polynomials; the
    # adaptive wrapper must agree with the antiderivative
    def f(w):
        acc = np.zeros_like(w)
        for c in reversed(coeffs):
            acc = acc * w + c
        return acc

    def F(w):
        acc = 0j
        for k, c in reversed(list(enumerate(coeffs))):
            acc = acc * w + c / (k + 1)
        return acc * w

    got = integrate_segment(f, a, b, 1e-10).value
    want = F(b) - F(a)
    scale = max(1.0, sum(abs(c) for c in coeffs) * max(abs(a), abs(b)) ** len(coeffs))
    assert abs(got - want) <= 1e-9 * scale


@given(a=cx, b=cx, m=st.floats(0.1, 0.9))
@settings(max_examples=50)
def test_additivity_and_antisymmetry(a, b, m):
    f = lambda w: np.exp(w) * np.cos(w)
    mid = a + m * (b - a)
    whole = integrate_segment(f, a, b, 1e-11).value
    split = (
        integrate_segment(f, a, mid, 1e-11).value
        + integrate_segment(f, mid, b, 1e-11).value
    )
    rev = integrate_segment(f, b, a, 1e-11).value
    scale = max(1.0, abs(whole))
    assert abs(whole - split) <= 1e-9 * scale
    assert abs(whole + rev) <= 1e-9 * scale


def test_oscillatory_value():
    got = integrate_segment(lambda t: np.sin(40.0 * t), 0.0, math.pi, 1e-12).value
    want = (1.0 - math.cos(40.0 * math.pi)) / 40.0
    assert abs(got - want) <= 1e-10


def test_error_estimate_sane():
    res = integrate_segment(lambda t: np.exp(-(t**2)), 0.0, 3.0, 1e-10)
    want = math.sqrt(math.pi) / 2.0 * math.erf(3.0)
    assert abs(res.value - want) <= max(res.err_est, 1e-12)
    assert res.evaluations >= 15


def test_nonconvergence_on_jump():
    # a unit jump inside the panel keeps the local error proportional to
    # panel length, which the prorated tolerance can never beat
    with pytest.raises(QuadratureNonconvergence):
        integrate_segment(lambda t: np.sign(t.real - 1.0 / 3.0), 0.0, 1.0, 1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tail_bound_is_a_bound(n):
    import mpmath as mp

    for T in (1.0, 1.5, 2.5):
        exact = float(mp.quad(lambda t: (t + 1) * mp.e ** (-(t**n)), [T, mp.inf]))
        bound = envelope_tail_bound(n, T)
        assert exact <= bound * (1.0 + 1e-12)
        assert bound <= 10.0 * exact + 1e-300  # not wildly loose


def test_truncation_radius_monotone():
    for n in (1, 2, 3):
        rs = [truncation_radius(n, tol) for tol in (1e-3, 1e-6, 1e-9, 1e-12)]
        assert rs == sorted(rs)
        assert envelope_tail_bound(n, rs[-1]) < 1e-13


def test_degenerate_segment():
    res = integrate_segment(lambda w: np.exp(w), 1.0, 1.0, 1e-10)
    assert res.value == 0j and res.err_est == 0.0


def test_bad_tol_rejected():
    with pytest.raises(ValueError):
        integrate_segment(lambda w: w, 0.0, 1.0, 0.0)


def test_gauss_kronrod_rules_exact_in_double():
    # the 15-point Kronrod rule integrates x^22 and the 7-point Gauss rule
    # x^12 exactly; with full-precision constants the moments hold to a
    # few units of double rounding
    from asymlab.quadrature import _GAUSS_IDX, _WG, _WK, _XK

    for k in range(12):
        assert abs(_WK @ _XK ** (2 * k) - 2.0 / (2 * k + 1)) <= 1e-15
    for k in range(7):
        assert abs(_WG @ _XK[_GAUSS_IDX] ** (2 * k) - 2.0 / (2 * k + 1)) <= 1e-15
