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
fraction, which needs at most about 45 steps there.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .logcx import CancellationWarning

_ASYMPTOTIC_R = 40.0
_SERIES_X = 2.0
_EPS = 2.0**-52
_MAX_STEPS = 500  # continued-fraction steps; about 45 suffice
_CANCEL_REL = 1e-10  # warn when a sum keeps less than this share of its top term
_EULER = 0.57721566490153286061
# entries of the (terms x columns) matrices that the series and the
# asymptotic expansion build per block of columns: their transient memory
# stays within a few hundred KB however many points a call evaluates
_BLOCK = 4096


def _log_series(s, w, lw):
    """ln(e^w Gamma(s, w)) from Gamma(s, w) = Gamma(s) - w^s sum_k (-w)^k /
    (k! (s + k)), summed as a matrix product per block of columns (einsum
    rather than matmul keeps BLAS out of the process); at s = 0 the k = 0
    term and Gamma(s) combine to E_1(w) = -gamma - ln w - sum_{k>=1} (-w)^k
    / (k k!).  With |w| <= 40, |w|^k / k! < 1e-21 at k = e max|w| + 40."""
    k = np.arange(1, int(math.e * np.abs(w).max()) + 41)
    tail = np.empty((s.shape[0], w.size), complex)
    step = max(1, _BLOCK // k.size)
    for j in range(0, w.size, step):
        powers = np.cumprod(-w[j:j + step] / k[:, None], axis=0)  # (-w)^k / k!
        tail[:, j:j + step] = np.einsum("mk,kn->mn", 1.0 / (s + k), powers)
    e1 = s == 0.0
    gs = np.array([[-_EULER if v == 0.0 else math.gamma(v)] for v in s[:, 0]])
    head = np.where(e1, gs - lw - tail, gs - np.exp(s * lw) * (1.0 / np.where(e1, 1.0, s) + tail))
    return w + np.log(head)


def _log_continued_fraction(s, w, lw):
    """ln(e^w Gamma(s, w)) from Legendre's continued fraction
    Gamma(s, w) = e^{-w} w^s / (w + 1 - s - 1 (1 - s) / (w + 3 - s - ...)),
    by the modified Lentz method, until every element has converged."""
    b = w + 1.0 - s
    c = np.full(b.shape, 1e300, complex)
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_STEPS):
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        d[d == 0] = 1e-300
        c = b + an / c
        c[c == 0] = 1e-300
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if np.all(np.abs(delta - 1.0) <= 4.0 * _EPS):
            return s * lw + np.log(h)
    raise ArithmeticError("incomplete gamma continued fraction did not converge")


def _log_asymptotic(s, w, lw):
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
            out[:, mask] = kernel(s, w[mask], lw[mask])
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
