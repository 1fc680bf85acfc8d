"""The upper incomplete gamma function Gamma(s, w) on numpy arrays, in log
space, for real s in (-1, 1] and complex w, and log-space column sums.

Both closed forms of the package rest on it: the construction's
phi = (1/n) E_{1/n} through Gamma(m/n, z^n) / Gamma(m/n), and the classic
example's generalised sine integral through Gamma(2/n - 1, -+i z^{n/2}).
Regimes follow Gil, Segura and Temme (ACM TOMS 38, 2012): the asymptotic
expansion where |w| >= _ASYMPTOTIC_R (its terms there shrink below 3e-15
for every s in the range, below 8e-17 for s >= 0); else the power series
where (|w| + Re w) / 2 < _SERIES_X, which covers small |w| and a band
around the negative real axis where the continued fraction converges slowly
(series terms cancel by at most e^{|w| + Re w}); else Legendre's continued
fraction, evaluated by backward recurrence (Gil, Segura and Temme,
Numerical Methods for Special Functions, SIAM 2007, ch. 6) from a term
count set a priori by min Re sqrt(w) >= sqrt(2), at most 46 there.  A point
is accepted only when its N- and (N-1)-term approximants agree to _CF_REL;
the others are redone with twice the terms, up to _MAX_STEPS.

The constants that depend on s alone (Gamma(s), 1/s, the series' 1/(s + k)
and the fraction's coefficients) are built once per tuple of s values.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .logcx import CancellationWarning

_ASYMPTOTIC_R = 40.0
_SERIES_X = 2.0
_EPS = 2.0**-52
_CF_REL = 16.0 * _EPS  # agreement of successive approximants
_MAX_STEPS = 500  # continued-fraction terms; at most 46 are set a priori
_CANCEL_REL = 1e-10  # warn when a sum keeps less than this share of its top term
_EULER = 0.57721566490153286061
# series terms: with |w| < _ASYMPTOTIC_R, |w|^k / k! < 1e-21 at k = e |w| + 40
_SERIES_TERMS = int(math.e * _ASYMPTOTIC_R) + 41
# entries of the (terms x columns) matrices that the series and the
# asymptotic expansion build per block of columns: their transient memory
# stays within a few hundred KB however many points a call evaluates
_BLOCK = 4096


@functools.lru_cache(maxsize=64)
def _s_tables(s_values):
    """Constants of the rows s: Gamma(s) (-gamma at s = 0, where the series
    takes the E_1 form), 1/s (1 at s = 0), the series' 1/(s + k) for
    k = 1.._SERIES_TERMS, and the continued fraction's 2k + 1 - s and
    -(k + 1)(k + 1 - s) for k = 0.._MAX_STEPS, the last two as
    (terms, rows, 1) stacks.  Read-only: every caller shares them."""
    s = np.array(s_values)[:, None]
    gs = np.array([[-_EULER if v == 0.0 else math.gamma(v)] for v in s_values])
    inv_s = 1.0 / np.where(s == 0.0, 1.0, s)
    inv_sk = 1.0 / (s + np.arange(1, _SERIES_TERMS + 1))
    k = np.arange(_MAX_STEPS + 1)[:, None, None]
    tables = (gs, inv_s, inv_sk, 2 * k + 1 - s, -(k + 1) * (k + 1 - s))
    for t in tables:
        t.flags.writeable = False
    return tables


def _log_series(s, w, lw, tables):
    """ln(e^w Gamma(s, w)) from Gamma(s, w) = Gamma(s) - w^s sum_k (-w)^k /
    (k! (s + k)), summed as a matrix product per block of columns (einsum
    rather than matmul keeps BLAS out of the process); at s = 0 the k = 0
    term and Gamma(s) combine to E_1(w) = -gamma - ln w - sum_{k>=1} (-w)^k
    / (k k!).  With |w| <= 40, |w|^k / k! < 1e-21 at k = e max|w| + 40."""
    gs, inv_s, inv_sk, _, _ = tables
    k = np.arange(1, int(math.e * np.abs(w).max()) + 41)
    inv_sk = inv_sk[:, :k.size]
    tail = np.empty((s.shape[0], w.size), complex)
    step = max(1, _BLOCK // k.size)
    for j in range(0, w.size, step):
        powers = np.cumprod(-w[j:j + step] / k[:, None], axis=0)  # (-w)^k / k!
        tail[:, j:j + step] = np.einsum("mk,kn->mn", inv_sk, powers)
    head = np.where(s == 0.0, gs - lw - tail, gs - np.exp(s * lw) * (inv_s + tail))
    return w + np.log(head)


def _cf_terms(x):
    """A-priori term count of the continued fraction for points with
    min Re sqrt(w) = x: the error of the N-term approximant falls about
    like e^{-4 x sqrt(N)}, to about 1e-15 at N = (8.7 / x)^2; 8 more terms
    are the margin.  NaN (x is not > 0) gets _MAX_STEPS and fails."""
    return min(_MAX_STEPS, math.ceil((8.7 / x) ** 2) + 8) if x > 0.0 else _MAX_STEPS


def _log_continued_fraction(s, w, lw, tables):
    """ln(e^w Gamma(s, w)) from Legendre's continued fraction
    Gamma(s, w) = e^{-w} w^s / (w + 1 - s - 1 (1 - s) / (w + 3 - s - ...)),
    by backward recurrence of its N- and (N-1)-term approximants at once.
    Points whose two approximants differ by more than _CF_REL (a NaN or a
    zero denominator among them) are redone with 2N terms; past _MAX_STEPS
    ArithmeticError is raised."""
    _, _, _, b, a = tables
    out = np.empty((s.shape[0], w.size), complex)
    todo = np.arange(w.size)
    n_terms = _cf_terms(float(np.sqrt(0.5 * (np.abs(w) + w.real)).min()))
    while True:
        x = w[todo]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = x + b[n_terms]  # the N-term tail
            u = x + b[n_terms - 1]  # the (N-1)-term tail
            t = u + a[n_terms - 1] / t
            for k in range(n_terms - 2, -1, -1):
                bk = x + b[k]
                t = bk + a[k] / t
                u = bk + a[k] / u
            ok = (np.abs(t - u) <= _CF_REL * np.abs(u)).all(axis=0)
        done = todo[ok]
        out[:, done] = s * lw[done] - np.log(t[:, ok])
        todo = todo[~ok]
        if not todo.size:
            return out
        if n_terms == _MAX_STEPS:
            raise ArithmeticError("incomplete gamma continued fraction did not converge")
        n_terms = min(2 * n_terms, _MAX_STEPS)


def _log_asymptotic(s, w, lw, tables):
    """ln(e^w Gamma(s, w)) from Gamma(s, w) ~ w^{s-1} e^{-w} sum_k
    (s-1)...(s-k) / w^k, to the first k at which the bound (k+1)! / |w|^k
    on its terms falls below 1e-17, or to k = 36: with |w| >= 40 the terms
    still shrink there."""
    aw = float(np.abs(w).min())
    kmax, bound = 1, 2.0 / aw
    while bound >= 1e-17 and kmax < 36:
        kmax += 1
        bound *= (kmax + 1) / aw
    sk = s[:, :, None] - np.arange(1, kmax + 1)[:, None]
    total = np.empty((s.shape[0], w.size), complex)
    step = max(1, _BLOCK // sk.size)
    for j in range(0, w.size, step):
        total[:, j:j + step] = np.cumprod(sk / w[j:j + step], axis=1).sum(axis=1)
    return (s - 1.0) * lw + np.log(1.0 + total)


def log_gamma_upper(s, w, lw):
    """ln(e^w Gamma(s, w)) for each s of the column s (rows) and every
    w != 0 of the array w (columns).

    lw is ln w on the branch the caller needs; it may pass the negative
    real axis, and all three regimes continue analytically in it there (the
    continued fraction is never used near that axis).  The factor e^w is
    folded in so that where Gamma(s, w) ~ e^{-w}, nothing of size |w| is
    added and subtracted again.
    """
    tables = _s_tables(tuple(s[:, 0].tolist()))
    out = np.empty((s.shape[0], w.size), complex)
    aw = np.abs(w)
    far = aw >= _ASYMPTOTIC_R
    series = ~far & (aw + w.real < 2.0 * _SERIES_X)
    for mask, kernel in (
        (series, _log_series),
        (~far & ~series, _log_continued_fraction),
        (far, _log_asymptotic),
    ):
        if mask.any():
            out[:, mask] = kernel(s, w[mask], lw[mask], tables)
    return out


def log_sum(terms):
    """ln of the column sums of exp(terms), without overflow.  Warns with
    CancellationWarning when a sum keeps less than _CANCEL_REL of its
    largest term."""
    top = terms.real.max(axis=0)
    finite = np.isfinite(top)
    shift = np.where(finite, top, 0.0)
    total = np.exp(terms - shift).sum(axis=0)
    if np.any(finite & (np.abs(total) < _CANCEL_REL)):
        warnings.warn(
            "catastrophic cancellation in a sum of %d terms" % terms.shape[0],
            CancellationWarning,
            stacklevel=3,
        )
    with np.errstate(divide="ignore"):
        return np.where(finite, np.log(total) + shift, -np.inf)
