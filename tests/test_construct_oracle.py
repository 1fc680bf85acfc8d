"""The closed-form evaluation of the construction against 40-digit mpmath.

The oracle evaluates phi = (1/n) E_{1/n} through its incomplete-gamma form
with mpmath's regularised gammainc, and assembles f from its definition
sum_j phi(e^{-2 pi i j/n} z) a_j(z) e^{-z^n} (not from the discrete Fourier
transform the package uses).  Radii run from 0.05 to |z^n| = 5000 for
n = 2..8, at 16 arguments around the circle, none within 1e-6 of the
contour's rays.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from asymlab.construct import (
    ConstructedF,
    RegionTag,
    classify_region,
    eval_E,
    eval_f,
    eval_phi,
    residual_lc,
)
from asymlab.logcx import wrap_angle
from asymlab.specs import Polynomial

TOL = 1e-11
NS = range(2, 9)


def _radii(n):
    # |z^n| from 0.05^n to 5000, on both sides of the kernel's regime
    # boundaries (|w| + Re w = 4 and |w| = 40)
    return [0.05] + [w ** (1.0 / n) for w in (0.5, 1.9, 2.1, 15.0, 39.0, 41.0, 300.0, 5000.0)]


def _args(n):
    # 16 directions shifted off every sector boundary pi (2k + 1) / n
    out = [-math.pi + 2.0 * math.pi * (i + 0.37) / 16 for i in range(16)]
    for th in out:
        x = (th * n / math.pi - 1.0) / 2.0
        assert abs(x - round(x)) * 2.0 * math.pi / n > 1e-6
    return out


def _targets(n):
    rng = np.random.default_rng(n)
    out = []
    for _ in range(n):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        out.append(Polynomial([complex(v) for v in c / (1.0 + np.arange(4))]))
    return tuple(out)


def _poly_mp(p, z):
    acc = mp.mpc(0)
    for c in reversed(p.coeffs):
        acc = acc * z + mp.mpc(c)
    return acc


def _sector_q(z, n):
    """w = z^n, the sector m of z (z = e^{2 pi i m/n} w^{1/n}, principal
    root) and Q(k/n, w) for k = 1..n-1, in mpmath."""
    w = z**n
    m = int(mp.nint((mp.arg(z) - mp.arg(w) / n) * n / (2 * mp.pi))) % n
    q = [mp.gammainc(mp.mpf(k) / n, w, regularized=True) for k in range(1, n)]
    return w, m, q


def _E_mp(w, m, q, n):
    """E at a point of sector m with z^n = w, from Q(k/n, w): the Q terms
    of phi, which equal phi - e^w inside the sector (m = 0) without
    subtracting the two."""
    s = mp.fsum(mp.expjpi(2 * mp.mpf(m * k) / n) * qk for k, qk in zip(range(1, n), q))
    return -mp.exp(w) * s / n


def _phi_mp(w, m, q, n):
    return _E_mp(w, m, q, n) + (mp.exp(w) if m == 0 else 0)


def _lc_mp(v):
    return mp.exp(mp.mpc(v.log_mod, v.arg))


def _assert_log_close(got_lm, got_arg, want):
    assert abs(got_lm - float(mp.log(abs(want)))) <= TOL
    assert abs(wrap_angle(got_arg - float(mp.arg(want)))) <= TOL


@pytest.mark.parametrize("n", NS)
def test_phi_E_and_f_match_mpmath(n):
    cf = ConstructedF(n, _targets(n))
    with mp.workdps(40):
        for r in _radii(n):
            for th in _args(n):
                z = r * cmath.exp(1j * th)
                zm = mp.mpc(z)
                w, m, q = _sector_q(zm, n)
                got = eval_phi(z, n)
                _assert_log_close(got.log_mod, got.arg, _phi_mp(w, m, q, n))
                # E drops e^{z^n} inside the sector and equals phi outside
                assert (classify_region(z, n) is RegionTag.INSIDE) == (m == 0)
                got_e = eval_E(z, n)
                _assert_log_close(math.log(abs(got_e)), cmath.phase(got_e), _E_mp(w, m, q, n))
                # f within 1e-11 of its largest term
                terms = [
                    _phi_mp(w, (m - j) % n, q, n) * _poly_mp(cf.a_list[j - 1], zm) * mp.exp(-w)
                    for j in range(1, n + 1)
                ]
                scale = max(abs(t) for t in terms)
                assert abs(_lc_mp(eval_f(z, cf)) - mp.fsum(terms)) <= TOL * scale


@pytest.mark.parametrize("n", NS)
def test_residual_matches_mpmath(n):
    cf = ConstructedF(n, _targets(n))
    with mp.workdps(40):
        for j0 in range(1, n + 1):
            for r in _radii(n):
                z = r * cmath.exp(1j * cf.ray_angle(j0))
                zm = mp.mpc(z)
                w, m, q = _sector_q(zm, n)
                assert m == j0 % n
                # the j0 term phi a e^{-w} - a is -(a/n) sum_k Q(k/n, w)
                a0 = _poly_mp(cf.a_list[j0 - 1], zm)
                terms = [-a0 * qk / n for qk in q]
                terms += [
                    _phi_mp(w, (m - j) % n, q, n) * _poly_mp(cf.a_list[j - 1], zm) * mp.exp(-w)
                    for j in range(1, n + 1)
                    if j != j0
                ]
                want = mp.fsum(terms)
                scale = max(abs(t) for t in terms)
                assert abs(_lc_mp(residual_lc(z, j0, cf)) - want) <= TOL * scale


@pytest.mark.parametrize("n", [2, 3, 8])
def test_incomplete_gamma_kernel_matches_mpmath(n):
    # ln(e^w Q(m/n, w)) on both sides of each regime boundary, at 3e-13:
    # the power series loses about 1e-13 to 1 - P where Q is small
    from asymlab.construct import _log_q

    mods = (0.01, 1.0, 1.9, 2.1, 10.0, 39.9, 40.1, 100.0, 1000.0, 5000.0)
    w = np.array([r * cmath.exp(1j * (-math.pi + 2.0 * math.pi * (i + 0.37) / 12)) for r in mods for i in range(12)])
    got = _log_q(n, w, np.log(w))
    with mp.workdps(40):
        for m in range(1, n):
            for wi, g in zip(w, got[m - 1]):
                wm = mp.mpc(wi)
                want = mp.log(mp.gammainc(mp.mpf(m) / n, wm, regularized=True)) + wm
                assert abs(g.real - float(want.real)) <= 3e-13
                assert abs(float(mp.fmod(mp.mpf(g.imag) - want.imag + 3 * mp.pi, 2 * mp.pi) - mp.pi)) <= 3e-13
