"""The classical order-n/2 example with n distinct asymptotic values:

    f(z) = integral from 0 to z of g(w) dw,   g(w) = sin(w^{n/2}) / w^{n/2}.

g looks multivalued but is not: with s^2 = w^n, sin(s)/s is an even entire
function of s, so g(w) = sum_k (-1)^k w^{nk} / (2k+1)! is entire and f is
path independent.  f(r e^{2 pi i nu / n}) tends to e^{2 pi i nu / n} A_n
along each of the n symmetry rays, where A_n = (2/n) times the Mellin
transform of sin u at 2/n - 1, a Gamma-function closed form.

Evaluation uses the generalised sine integral (DLMF 8.21).  With
omega = e^{2 pi i / n}, f(omega^k z) = omega^k f(z), so z is rotated into
the sector |arg z| <= pi/n; there, with S = z^{n/2} (principal branch) and
s = 2/n - 1,

    f(z) = A_n + (1/n) [e^{i pi / n} Gamma(s, -iS) + e^{-i pi / n} Gamma(s, iS)],

assembled in log space on numpy arrays by log_dca, so |f| far past e^709
never overflows.  For |S| < 2, where A_n and the Gamma terms cancel, the
integrated power series is summed instead.  This is the only evaluation
path; the tests check it against mpmath and, by path independence, against
Gauss-Kronrod quadrature of g along polylines.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .gammainc import (
    _ERRSTATE, _log_gamma_upper, _s_tables, log_sum, polar, sector_angles, sum_rows
)

_SERIES_S = 2.0  # |S| below which the power series is summed
# with |z^n| = |S|^2 < 4 the series terms z^{nk+1} / (2k+1)! fall below
# 1e-18 |z| by k = 12
_SERIES_TERMS = 14
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ClassicDCA:
    """Configuration for the distinct-asymptotic-values example of order n/2.

    series_cutoff_radius = 144^{1/n} (12.0 for n = 2) is the radius up to
    which the alternating power series alone, whose intermediate terms
    reach ~e^{r^{n/2}}, loses at most about five digits.  Evaluation no
    longer depends on it; benchmark/tracer.py reads it to count far points.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:  # a non-number n raises TypeError here
            raise ValueError("n must be >= 1")
        # bool is an int subclass, and the example needs an integer n
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError("n must be an integer, not %r" % (self.n,))
        object.__setattr__(self, "n", int(self.n))

    @property
    def series_cutoff_radius(self) -> float:
        return 144.0 ** (1.0 / self.n)


def _log_f_series(z, n: int):
    """ln of the integrated series sum_k (-1)^k z^{nk+1} / ((nk+1) (2k+1)!)
    at every point of the array z, summed term by term in order (ln 0 =
    -inf at z = 0, under the caller's _ERRSTATE)."""
    k = np.arange(_SERIES_TERMS)[:, None]
    ratio = -(z**n) / ((2 * k + 2) * (2 * k + 3))
    terms = z * np.vstack([np.ones_like(z), np.cumprod(ratio[:-1], axis=0)])
    return np.log(sum_rows(terms / (n * k + 1)))


def log_dca(z, n: int):
    """ln f at every point of the array z: log_dca_polar at (|z|, arg z)."""
    z = np.asarray(z, dtype=complex).ravel()
    return log_dca_polar(*polar(z), n)


def log_dca_polar(r, theta, n: int):
    """ln f at every polar point r e^{i theta} of the arrays r >= 0 and
    theta (real part ln|f|, imaginary part arg f), through the generalised
    sine integral with S = z^{n/2} formed from r^{n/2} and n phi / 2, phi
    the angle from the centre ray of theta's sector.  Raises ValueError
    where r^{n/2} is not finite."""
    if n < 1:
        raise ValueError("n must be >= 1")
    r, theta = np.asarray(r, dtype=float).ravel(), np.asarray(theta, dtype=float).ravel()
    with np.errstate(**_ERRSTATE):
        mod_s = r ** (0.5 * n)  # |S|
        finite = np.isfinite(mod_s)
        if np.count_nonzero(finite) < r.size:
            raise ValueError(
                "|z| = %g: |z|^(%d/2) is not finite in double precision" % (r[~finite].min(), n)
            )
        small = mod_s < _SERIES_S
        if not np.count_nonzero(small):
            return _log_dca_far(r, theta, mod_s, n)
        out = np.empty(r.size, complex)
        out[small] = _log_f_series(r[small] * np.exp(1j * theta[small]), n)
        big = ~small
        out[big] = _log_dca_far(r[big], theta[big], mod_s[big], n)
        return out


def _log_dca_far(r, th, mod_s, n: int):
    """ln f at the polar points (r, th) with |S| = mod_s >= _SERIES_S, from
    the Gamma terms, under the caller's _ERRSTATE."""
    k, phi = sector_angles(th, n)
    half = 0.5 * n * phi  # arg S, in [-pi/2, pi/2]
    # S from its modulus and argument: through exp(ln S) ln|f| would lose
    # several ulp at |S| in the hundreds
    S = mod_s * np.exp(1j * half)
    w = np.concatenate([-1j * S, 1j * S])
    lr = 0.5 * n * np.log(r)
    lw = np.concatenate([lr + 1j * (half - 0.5 * math.pi), lr + 1j * (half + 0.5 * math.pi)])
    if n == 1:
        lg = np.zeros(w.size, complex)  # Gamma(1, w) = e^{-w}
    else:
        lg = _log_gamma_upper(_s_tables((2.0 / n - 1.0,)), w, lw, np.abs(w))[0]
    # the terms A_n, e^{i pi/n} Gamma(s, -iS) / n and e^{-i pi/n} Gamma(s, iS) / n
    c = complex(-math.log(n), math.pi / n)
    m = r.size
    terms = np.empty((3, m), complex)
    terms[0] = _log_a(n)
    np.add(lg[:m], c, out=terms[1])
    np.add(lg[m:], c.conjugate(), out=terms[2])
    terms[1:] -= w.reshape(2, m)
    return log_sum(terms) + 2j * math.pi * k / n


def eval_dca(z: complex, cfg: ClassicDCA) -> complex:
    """f(z) as a complex number: the one-point case of log_dca, which
    raises OverflowError past |f| = e^709 (log_dca itself does not)."""
    v = log_dca([complex(z)], cfg.n)[0]
    if v.real > _LOG_MAX:
        raise OverflowError("|f(z)| = e^%.6g overflows a double; use log_dca" % v.real)
    return complex(np.exp(v))


@functools.lru_cache(maxsize=64)
def _log_a(n: int) -> float:
    """ln A_n, computed once per n."""
    return math.log(dca_asymptotic_value(0, n).real)


def dca_asymptotic_value(nu: int, n: int) -> complex:
    """Asymptotic value e^{2 pi i nu / n} A_n on ray nu, with
    A_n = (2/n) * integral of u^{2/n - 2} sin u over (0, inf)
        = (2/n) Gamma(s) sin(pi s / 2),  s = 2/n - 1,
        = (pi/n) Gamma(2/n) sinc(1/n - 1/2)   (normalised sinc),
    the last form being regular at n = 2 (A_2 = pi/2) and n = 1, where the
    divergent integral takes its Abel-regularised value A_1 = 2.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= nu <= n - 1:
        raise ValueError("nu must lie in [0, n-1]")
    a_n = math.pi / n * math.gamma(2.0 / n) * float(np.sinc(1.0 / n - 0.5))
    return cmath.exp(2j * math.pi * nu / n) * a_n
