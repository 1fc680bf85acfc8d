"""The upper incomplete gamma function Gamma(s, w) on numpy arrays, in log
space, for real s in (-1, 1] and complex w, log-space column sums, and the
sector reduction of polar angles.

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
count set a priori by Re sqrt(w) >= sqrt(2), at most 46 there.  A point
is accepted only when its N- and (N-1)-term approximants agree to _CF_REL;
the others are redone with twice the terms, up to _MAX_STEPS.

Batch invariance: every regime takes its term count from the point itself,
and every sum over terms or rows adds one term after another (a loop, or a
two-operand einsum, which numpy accumulates so; never numpy's `sum`, which
adds a single column pairwise).  So the value at a point is, bit for bit,
the value of the one-point call, whatever else the call evaluates.

The constants that depend on s alone (Gamma(s), 1/s, the series' 1/(s + k)
and the fraction's coefficients) are built once per tuple of s values.
"""

from __future__ import annotations

import bisect
import functools
import math
import warnings
from fractions import Fraction
from typing import NamedTuple

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
_K = np.arange(1, _SERIES_TERMS + 1)
_NEG_INV_K = -1.0 / _K
# entries of the (terms x points) matrices that the series and the
# asymptotic expansion build per block of points: their transient memory
# stays within a few hundred KB however many points a call evaluates
_BLOCK = 4096
# entries of the x + b_k table the continued fraction holds per block of
# points: 256 KB
_CF_BLOCK = 1 << 14
# numpy's floating-point flags for one public call: ln 0 = -inf is a value
# here, and the kernels divide by zero and overflow in values they discard
_ERRSTATE = dict(divide="ignore", over="ignore", invalid="ignore")


# 2 pi - float(2 pi), so that the two carry 2 pi to about 107 bits
_TWO_PI_LO = 2.4492935982947064e-16


@functools.lru_cache(maxsize=64)
def _sector_step(n: int):
    """2 pi / n as c1 + c2: c1 with 26 significant bits, so that k c1 is
    exact for |k| < 2^27, and c2 the rest, from 2 pi to about 107 bits."""
    c = (Fraction(2.0 * math.pi) + Fraction(_TWO_PI_LO)) / n
    e = math.frexp(float(c))[1] - 26
    c1 = math.ldexp(round(math.ldexp(float(c), -e)), e)
    return c1, float(c - Fraction(c1))


def polar(z):
    """(|z|, arg z) of the complex array z: the one conversion of the
    z-form evaluators into their polar cores.  hypot, not abs: numpy's
    complex abs is off by an ulp about once in three, and n such ulps of
    |z| reach ln z^n."""
    return np.hypot(z.real, z.imag), np.arctan2(z.imag, z.real)


def sector_angles(theta, n: int):
    """The sector k = rint(n theta / 2 pi) of each angle of the array
    theta, and phi = theta - 2 pi k / n, its angle from the sector's centre
    ray, in [-pi/n, pi/n].  theta - k c1 is exact (Sterbenz), so phi is
    rounded once, where n theta - 2 pi k in doubles would carry the
    rounding of n theta and about k ulp of 2 pi (Cody and Waite's
    reduction)."""
    c1, c2 = _sector_step(n)
    k = np.rint(theta * (n / (2.0 * math.pi)))
    return k, (theta - k * c1) - k * c2


class _STables(NamedTuple):
    """Constants of the rows s (a column): Gamma(s) (-gamma at s = 0, where
    the series takes the E_1 form), 1/s (1 at s = 0), the series' 1/(s + k)
    for k = 1.._SERIES_TERMS, the continued fraction's 2k + 1 - s and
    -(k + 1)(k + 1 - s) for k = 0.._MAX_STEPS as complex (terms, rows, 1)
    stacks, so that the recurrence casts nothing, and the number of rows
    with s = 0."""

    s: np.ndarray
    gs: np.ndarray
    inv_s: np.ndarray
    inv_sk: np.ndarray
    b: np.ndarray
    a: np.ndarray
    zeros: int


@functools.lru_cache(maxsize=64)
def _s_tables(s_values) -> _STables:
    """The _STables of the tuple of s values, built once.  Read-only: every
    caller shares them."""
    s = np.array(s_values)[:, None]
    gs = np.array([[-_EULER if v == 0.0 else math.gamma(v)] for v in s_values])
    inv_s = 1.0 / np.where(s == 0.0, 1.0, s)
    inv_sk = 1.0 / (s + np.arange(1, _SERIES_TERMS + 1))
    k = np.arange(_MAX_STEPS + 1)[:, None, None]
    b, a = (2 * k + 1 - s).astype(complex), (-(k + 1) * (k + 1 - s)).astype(complex)
    for t in (s, gs, inv_s, inv_sk, b, a):
        t.flags.writeable = False
    return _STables(s, gs, inv_s, inv_sk, b, a, s_values.count(0.0))


def _log_series(t, w, lw, aw):
    """ln(e^w Gamma(s, w)) from Gamma(s, w) = Gamma(s) - w^s sum_k (-w)^k /
    (k! (s + k)), summed as a matrix product per block of points (einsum
    rather than matmul keeps BLAS out of the process); at s = 0 the k = 0
    term and Gamma(s) combine to E_1(w) = -gamma - ln w - sum_{k>=1} (-w)^k
    / (k k!).  Each point takes floor(e |w|) + 40 terms, by which, with
    |w| <= 40, |w|^k / k! < 1e-21; a block's terms past a point's own count
    are exact zeros."""
    top, least = (int(math.e * x) + 40 for x in (aw.max(), aw.min()))
    counts = (math.e * aw).astype(int) + 40 if least < top else None
    k = _K[:top]
    tail = np.empty((t.s.shape[0], w.size), complex)
    step = max(1, _BLOCK // top)
    for j in range(0, w.size, step):
        # -w / k, which numpy's complex division rounds as w * (-1 / k)
        ratio = w[j:j + step, None] * _NEG_INV_K[:top]
        if counts is not None:
            ratio *= k <= counts[j:j + step, None]
        powers = np.cumprod(ratio, axis=1)  # (-w)^k / k!
        tail[:, j:j + step] = np.einsum("mk,nk->mn", t.inv_sk[:, :top], powers)
    if not t.zeros:
        head = t.gs - np.exp(t.s * lw) * (t.inv_s + tail)
    elif t.zeros == t.s.shape[0]:
        head = t.gs - lw - tail
    else:
        head = np.where(t.s == 0.0, t.gs - lw - tail, t.gs - np.exp(t.s * lw) * (t.inv_s + tail))
    return w + np.log(head)


def _cf_terms(x):
    """A-priori term count of the continued fraction at each point with
    Re sqrt(w) = x (an array): the error of the N-term approximant falls
    about like e^{-4 x sqrt(N)}, to about 1e-15 at N = (8.7 / x)^2; 8 more
    terms are the margin.  NaN (x is not > 0) gets _MAX_STEPS and fails."""
    return np.fmin(np.ceil((8.7 / x) ** 2) + 8.0, _MAX_STEPS).astype(int)


def _cf_tails(x, counts, b, a):
    """The N- and (N-1)-term tails t and u of the fraction, stacked as
    tu[0] and tu[1], at the points x with term counts N = counts, sorted
    largest first.  The points share one backward recurrence t, u <-
    (x + b_k) + a_k / (t, u); a point joins it with t = inf at step k = N,
    which yields t = x + b_N, and u restarts from inf at step N - 1.  Each
    point so runs the steps of its own count, and its values are those of
    the point alone."""
    tu = np.full((2, b.shape[1], x.size), np.inf, complex)
    top = int(counts[0])
    # ends[k]: the number of points with N >= k, a prefix of the points
    ends = np.searchsorted(-counts, -np.arange(top + 3), side="right").tolist()
    xb = x + b[:top + 1]
    for k in range(top, -1, -1):
        if ends[k + 1] > ends[k + 2]:
            tu[1, :, ends[k + 2]:ends[k + 1]] = np.inf
        v = tu[:, :, :ends[k]]
        np.divide(a[k], v, out=v)
        v += xb[k, :, :ends[k]]
    return tu


def _log_continued_fraction(t, w, lw, aw):
    """ln(e^w Gamma(s, w)) from Legendre's continued fraction
    Gamma(s, w) = e^{-w} w^s / (w + 1 - s - 1 (1 - s) / (w + 3 - s - ...)),
    by backward recurrence of its N- and (N-1)-term approximants at once,
    with N = _cf_terms(Re sqrt(w)) per point.  Points whose two
    approximants differ by more than _CF_REL (a NaN or a zero denominator
    among them) are redone with 2N terms; past _MAX_STEPS ArithmeticError
    is raised."""
    s = t.s
    out = np.empty((s.shape[0], w.size), complex)
    todo = np.arange(w.size)
    counts = _cf_terms(np.sqrt(0.5 * (aw + w.real)))
    while todo.size:
        order = np.argsort(-counts, kind="stable")
        todo, counts = todo[order], counts[order]
        ok = np.empty(todo.size, bool)
        step = max(1, _CF_BLOCK // (s.shape[0] * (int(counts[0]) + 1)))
        for j in range(0, todo.size, step):
            idx = todo[j:j + step]
            tn, un = _cf_tails(w[idx], counts[j:j + step], t.b, t.a)
            good = ok[j:j + step] = (np.abs(tn - un) <= _CF_REL * np.abs(un)).all(axis=0)
            out[:, idx[good]] = s * lw[idx[good]] - np.log(tn[:, good])
        todo, counts = todo[~ok], counts[~ok]
        if np.count_nonzero(counts == _MAX_STEPS):
            raise ArithmeticError("incomplete gamma continued fraction did not converge")
        counts = np.minimum(2 * counts, _MAX_STEPS)
    return out


# _ASYMPTOTIC_AT[i]: the |w| above which the bound (k+1)! / |w|^k on the
# k-th asymptotic term falls below 1e-17, for k = 35 - i (ascending)
_ASYMPTOTIC_AT = [(math.factorial(k + 1) * 1e17) ** (1.0 / k) for k in range(35, 0, -1)]


def _log_asymptotic(t, w, lw, aw):
    """ln(e^w Gamma(s, w)) from Gamma(s, w) ~ w^{s-1} e^{-w} sum_k
    (s-1)...(s-k) / w^k, at each point to the first k at which the bound
    (k+1)! / |w|^k on its terms falls below 1e-17, or to k = 36: with
    |w| >= 40 the terms still shrink there.  A block's terms past a point's
    own count are exact zeros."""
    s = t.s
    top, least = (36 - bisect.bisect_left(_ASYMPTOTIC_AT, float(x)) for x in (aw.min(), aw.max()))
    counts = 36 - np.searchsorted(_ASYMPTOTIC_AT, aw) if least < top else None
    k = np.arange(1, top + 1)[:, None, None]
    sk = s - k
    total = np.empty((s.shape[0], w.size), complex)
    step = max(1, _BLOCK // sk.size)
    for j in range(0, w.size, step):
        terms = sk / w[j:j + step]
        if counts is not None:
            terms *= k <= counts[j:j + step]
        total[:, j:j + step] = sum_rows(np.cumprod(terms, axis=0))
    return (s - 1.0) * lw + _log(1.0 + total)


def log_gamma_upper(s, w, lw):
    """ln(e^w Gamma(s, w)) for each s of the column s (rows) and every
    w != 0 of the array w (columns).

    lw is ln w on the branch the caller needs; it may pass the negative
    real axis, and all three regimes continue analytically in it there (the
    continued fraction is never used near that axis).  The factor e^w is
    folded in so that where Gamma(s, w) ~ e^{-w}, nothing of size |w| is
    added and subtracted again.
    """
    with np.errstate(**_ERRSTATE):
        return _log_gamma_upper(_s_tables(tuple(s[:, 0].tolist())), w, lw, np.abs(w))


def _log_gamma_upper(t, w, lw, aw):
    """log_gamma_upper for the rows of the tables t, with aw = |w|, under
    the caller's _ERRSTATE.  Each point goes to one regime; a call that one
    regime covers goes to it whole."""
    far = aw >= _ASYMPTOTIC_R
    series = aw + w.real < 2.0 * _SERIES_X
    n_far = np.count_nonzero(far)
    if n_far:
        if n_far == w.size:
            return _log_asymptotic(t, w, lw, aw)
        series &= ~far
    n_series = np.count_nonzero(series)
    if not (n_far or n_series):
        return _log_continued_fraction(t, w, lw, aw)
    if n_series == w.size:
        return _log_series(t, w, lw, aw)
    out = np.empty((t.s.shape[0], w.size), complex)
    for mask, kernel in (
        (series, _log_series),
        (~(far | series), _log_continued_fraction),
        (far, _log_asymptotic),
    ):
        if np.count_nonzero(mask):
            out[:, mask] = kernel(t, w[mask], lw[mask], aw[mask])
    return out


def log_sum(terms):
    """ln of the column sums of exp(terms), without overflow, each summed
    row after row in order (for the few rows here a loop costs less than
    sum_rows); a zero sum gives -inf under the caller's _ERRSTATE.  Warns
    with CancellationWarning when a sum keeps less than _CANCEL_REL of its
    largest term."""
    top = np.maximum.reduce(terms.real, axis=0)
    finite = np.isfinite(top)
    every = np.count_nonzero(finite) == top.size
    shift = top if every else np.where(finite, top, 0.0)
    rows = np.exp(terms - shift)
    total = rows[0]
    for row in rows[1:]:
        total += row
    small = np.abs(total) < _CANCEL_REL
    if not every:
        small &= finite
    if np.count_nonzero(small):
        warnings.warn(
            "catastrophic cancellation in a sum of %d terms" % terms.shape[0],
            CancellationWarning,
            stacklevel=3,
        )
    if every:
        return _log(total) + shift
    return np.where(finite, _log(total) + shift, -np.inf)


def _log(x):
    """ln x for the complex array x, as ln|x| + i arg x.  The sums whose
    log is taken here lie near |x| = 1, where numpy's complex log takes a
    slow path for the last bits of a small ln|x|; the callers add ln|x| to
    a shift, so an error of an ulp of 1 is all they can keep."""
    out = np.empty(x.shape, complex)
    np.log(np.abs(x), out=out.real)
    np.arctan2(x.imag, x.real, out=out.imag)
    return out


def sum_rows(x):
    """The sum over the first axis of the C-contiguous complex array x,
    each entry summed term after term in order, so that it does not depend
    on the other entries: a two-operand einsum with ones on the real view,
    which numpy accumulates one term after another for one column as for
    many.  numpy's `sum` over a single column instead adds pairwise."""
    n = x.shape[0]
    return np.einsum("k,kn->n", np.ones(n), x.reshape(n, -1).view(float)).view(complex).reshape(x.shape[1:])
