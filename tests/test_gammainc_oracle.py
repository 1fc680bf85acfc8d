"""The incomplete-gamma kernel's continued-fraction regime against 40-digit
mpmath.

log_gamma_upper(s, w, ln w) = ln(e^w Gamma(s, w)) is checked where the
kernel uses Legendre's continued fraction (|w| + Re w >= 4, |w| < 40), for
the s the package uses: 2/n - 1 (the classic example) and m/n (the
construction), n = 2..8.  The points sit where the fraction converges
slowest (on the boundary |w| + Re w = 4), where its a-priori term count is
smallest (|w| just below 40, and real w near 31), and in between.  Each
point is evaluated alone, so its term count comes from the point itself,
and in one mixed array with all the others.
"""

import cmath
import functools
import math

import mpmath as mp
import numpy as np
import pytest

from asymlab import gammainc
from asymlab.gammainc import log_gamma_upper

TOL = 4e-15  # times max(1, |ln(e^w Gamma(s, w))|); Lentz reached 4.1e-15 here
S_BY_N = {n: sorted({2.0 / n - 1.0} | {m / n for m in range(1, n)}) for n in range(2, 9)}


def _cf_points():
    pts = []
    # the boundary |w| + Re w = 4, where x = (16 - y^2) / 8, from just inside
    for y in np.linspace(-17.0, 17.0, 35):
        x = (16.0 - y * y) / 8.0
        pts.append(complex(x + 1e-9, y))
    # |w| just below 40, at every argument the regime allows
    for th in np.linspace(-2.6, 2.6, 14):
        pts.append(cmath.rect(40.0 - 1e-9, th))
        pts.append(cmath.rect(39.9, th + 0.05))
    # real w near 31, and in between
    pts += [31.0, 30.7, 31.3, 31.0 + 1e-3j, 2.0 + 0j, 10.0 + 10j, -5.0 + 12j, 25.0 - 20j]
    w = np.array(pts, dtype=complex)
    aw = np.abs(w)
    assert np.all((aw + w.real >= 4.0) & (aw < 40.0))  # all in the fraction's regime
    return w


W = _cf_points()


@functools.lru_cache(maxsize=None)
def _want(s, i):
    with mp.workdps(40):
        w = mp.mpc(W[i])
        return complex(mp.log(mp.gammainc(mp.mpf(s), w)) + w)


def _check(ss, w_idx, got):
    for row, s in enumerate(ss):
        for col, i in enumerate(w_idx):
            want = _want(s, i)
            d = complex(got[row, col]) - want
            # the imaginary part is an argument: compare modulo 2 pi
            d = complex(d.real, math.remainder(d.imag, 2.0 * math.pi))
            assert abs(d) <= TOL * max(1.0, abs(want)), (s, W[i], got[row, col], want)


@pytest.mark.parametrize("n", sorted(S_BY_N))
def test_continued_fraction_single_points(n):
    ss = S_BY_N[n]
    s = np.array(ss)[:, None]
    for i, w in enumerate(W):
        _check(ss, [i], log_gamma_upper(s, W[i:i + 1], np.log(W[i:i + 1])))


@pytest.mark.parametrize("n", sorted(S_BY_N))
def test_continued_fraction_mixed_array(n):
    ss = S_BY_N[n]
    s = np.array(ss)[:, None]
    order = np.random.default_rng(n).permutation(W.size)
    _check(ss, order, log_gamma_upper(s, W[order], np.log(W[order])))


def test_continued_fraction_every_s_at_once():
    ss = sorted(set().union(*S_BY_N.values()))
    _check(ss, range(W.size), log_gamma_upper(np.array(ss)[:, None], W, np.log(W)))


def test_retry_path_matches_mpmath(monkeypatch):
    # with a 2-term start every point fails the approximant test and is
    # redone with 4, 8, ... terms until it passes
    ss = S_BY_N[5]
    s = np.array(ss)[:, None]
    monkeypatch.setattr(gammainc, "_cf_terms", lambda x: np.full(x.shape, 2))
    _check(ss, range(W.size), log_gamma_upper(s, W, np.log(W)))
    # two terms alone do not pass: the values above came from the retries
    monkeypatch.setattr(gammainc, "_MAX_STEPS", 2)
    with pytest.raises(ArithmeticError):
        log_gamma_upper(s, W, np.log(W))


def test_unconverged_input_raises():
    # NaN fails the approximant test at every term count
    w = np.array([complex(math.nan, 1.0)])
    with pytest.raises(ArithmeticError):
        log_gamma_upper(np.array([[0.5]]), w, np.log(w))
