"""Batch invariance: the value that log_gamma_upper, log_dca, log_f and
log_residual, and their polar cores log_dca_polar, log_f_polar and
log_residual_polar, return at a point is, bit for bit, the value of the
one-point call, whatever else the call evaluates.  The z-forms are their
cores at (|z|, arg z), bit for bit.

The kernels take each term count from the point itself and sum over terms
and rows with two-operand einsum contractions, which numpy accumulates one
term after another for complex operands, for one column as for many.
numpy's `sum` over a single column instead reorders the additions
pairwise, so these tests catch any sum that goes back to it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymlab.classic import log_dca, log_dca_polar
from asymlab.construct import ConstructedF, log_f, log_f_polar, log_residual, log_residual_polar
from asymlab.gammainc import log_gamma_upper, polar
from asymlab.specs import Polynomial

# every s the package uses: 2/n - 1 (classic) and m/n (construction)
S_USED = sorted({2.0 / n - 1.0 for n in range(2, 9)} | {m / n for n in range(2, 9) for m in range(1, n)})


def _same_as_alone(batch, alone, n_points):
    for i in range(n_points):
        assert np.array_equal(alone(i), batch[..., i]), i


_polar = st.builds(
    lambda lr, th: math.exp(lr) * complex(math.cos(th), math.sin(th)),
    st.floats(math.log(1e-3), math.log(3000.0)),
    st.floats(-math.pi, math.pi),
)
# |w| = 40, where the asymptotic expansion takes over, from both sides
_ring = st.builds(
    lambda r, th: r * complex(math.cos(th), math.sin(th)),
    st.sampled_from([math.nextafter(40.0, 0.0), 40.0, math.nextafter(40.0, math.inf), 39.9, 40.1]),
    st.floats(-math.pi, math.pi),
)
# |w| + Re w = 4, between the series and the continued fraction
_parabola = st.builds(
    lambda y, dx: complex((16.0 - y * y) / 8.0 + dx, y),
    st.floats(-17.0, 17.0),
    st.sampled_from([-1e-9, -1e-15, 0.0, 1e-15, 1e-9]),
)
# near the negative real axis, where the series runs to |w| = 40
_negative = st.builds(
    lambda r, th: r * complex(math.cos(th), math.sin(th)),
    st.floats(1.0, 40.0),
    st.floats(math.pi - 0.3, math.pi),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.one_of(_polar, _ring, _parabola, _negative), min_size=2, max_size=40),
    st.lists(st.sampled_from(S_USED), min_size=1, max_size=3, unique=True),
)
def test_log_gamma_upper_batch_invariant(ws, ss):
    w = np.array(ws, dtype=complex)
    lw = np.log(w)
    s = np.array(sorted(ss))[:, None]
    batch = log_gamma_upper(s, w, lw)
    _same_as_alone(batch, lambda i: log_gamma_upper(s, w[i:i + 1], lw[i:i + 1])[:, 0], w.size)


def _points(rng, size, r_max):
    r = np.exp(rng.uniform(math.log(0.05), math.log(r_max), size))
    return r * np.exp(1j * rng.uniform(-math.pi, math.pi, size))


@pytest.mark.parametrize("n", range(1, 9))
def test_log_dca_batch_invariant(n):
    # up to |z^{n/2}| = 1600: the power series, all three kernel regimes
    z = _points(np.random.default_rng(n), 80, 1600.0 ** (1.0 / n))
    batch = log_dca(z, n)
    _same_as_alone(batch, lambda i: log_dca(z[i:i + 1], n)[0], z.size)


def _constructed(n, rng):
    coeffs = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    return ConstructedF(n, tuple(Polynomial(list(c)) for c in coeffs))


@pytest.mark.parametrize("n", range(2, 9))
def test_log_f_and_log_residual_batch_invariant(n):
    rng = np.random.default_rng(100 + n)
    cf = _constructed(n, rng)
    # up to |z^n| = 2000
    z = _points(rng, 80, 2000.0 ** (1.0 / n))
    with np.errstate(all="ignore"):
        batch = log_f(z, cf)
        _same_as_alone(batch, lambda i: log_f(z[i:i + 1], cf)[0], z.size)
        for j in (1, n):
            ray = np.exp(rng.uniform(math.log(0.05), math.log(2000.0 ** (1.0 / n)), 40))
            ray = ray * np.exp(1j * cf.ray_angle(j))
            batch = log_residual(ray, j, cf)
            _same_as_alone(batch, lambda i: log_residual(ray[i:i + 1], j, cf)[0], ray.size)


def _polar_points(rng, size, r_max):
    # angles past -pi and pi too, as a scan's brackets reach them
    r = np.exp(rng.uniform(math.log(0.05), math.log(r_max), size))
    return r, rng.uniform(-math.pi - 0.2, math.pi + 0.2, size)


@pytest.mark.parametrize("n", range(1, 9))
def test_log_dca_polar_batch_invariant(n):
    r, th = _polar_points(np.random.default_rng(200 + n), 80, 1600.0 ** (1.0 / n))
    batch = log_dca_polar(r, th, n)
    _same_as_alone(batch, lambda i: log_dca_polar(r[i:i + 1], th[i:i + 1], n)[0], r.size)


@pytest.mark.parametrize("n", range(2, 9))
def test_log_f_and_log_residual_polar_batch_invariant(n):
    rng = np.random.default_rng(300 + n)
    cf = _constructed(n, rng)
    r, th = _polar_points(rng, 80, 2000.0 ** (1.0 / n))
    with np.errstate(all="ignore"):
        batch = log_f_polar(r, th, cf)
        _same_as_alone(batch, lambda i: log_f_polar(r[i:i + 1], th[i:i + 1], cf)[0], r.size)
        # every ray in one call, as trace_rays makes it
        j = rng.integers(1, n + 1, 60)
        rr = np.exp(rng.uniform(math.log(0.05), math.log(2000.0 ** (1.0 / n)), j.size))
        ray = np.array([cf.ray_angle(int(k)) for k in j])
        batch = log_residual_polar(rr, ray, j, cf)
        _same_as_alone(batch, lambda i: log_residual_polar(rr[i:i + 1], ray[i:i + 1], int(j[i]), cf)[0], j.size)


@pytest.mark.parametrize("n", range(1, 9))
def test_z_forms_are_their_polar_cores(n):
    rng = np.random.default_rng(400 + n)
    z = _points(rng, 80, 2000.0 ** (1.0 / n))
    r, th = polar(z)
    assert np.array_equal(r, np.hypot(z.real, z.imag)) and np.array_equal(th, np.angle(z))
    assert log_dca(z, n).tobytes() == log_dca_polar(r, th, n).tobytes()
    if n == 1:
        return
    cf = _constructed(n, rng)
    with np.errstate(all="ignore"):
        assert log_f(z, cf).tobytes() == log_f_polar(r, th, cf).tobytes()
        for j in (1, n):
            ray = np.exp(rng.uniform(math.log(0.05), math.log(2000.0 ** (1.0 / n)), 40))
            ray = ray * np.exp(1j * cf.ray_angle(j))
            rr, rth = polar(ray)
            assert log_residual(ray, j, cf).tobytes() == log_residual_polar(rr, rth, j, cf).tobytes()
