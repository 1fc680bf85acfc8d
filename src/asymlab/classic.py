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
integrated power series is summed instead.  Quadrature of the integrand
remains only in eval_dca(..., path=...), an independent check.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .gammainc import log_gamma_upper, log_sum
from .quadrature import integrate_segment

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
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def series_cutoff_radius(self) -> float:
        return 144.0 ** (1.0 / self.n)


def integrand(w, n: int):
    """g(w) = sin(s)/s with s^2 = w^n, entire; accepts numpy arrays.

    Either square root of w^n gives the same value because sin(s)/s is
    even, so no branch choice is ever needed.
    """
    w = np.asarray(w, dtype=complex)
    u = w**n
    s = np.sqrt(u)
    small = np.abs(s) < 1e-4
    s_safe = np.where(small, 1.0, s)
    out = np.sin(s_safe) / s_safe
    # two-term Taylor series where s underflows the ratio
    out = np.where(small, 1.0 - u / 6.0, out)
    return out


def _log_f_series(z, n: int):
    """ln of the integrated series sum_k (-1)^k z^{nk+1} / ((nk+1) (2k+1)!)
    at every point of the array z."""
    k = np.arange(_SERIES_TERMS)[:, None]
    ratio = -(z**n) / ((2 * k + 2) * (2 * k + 3))
    terms = z * np.vstack([np.ones_like(z), np.cumprod(ratio[:-1], axis=0)])
    with np.errstate(divide="ignore"):
        return np.log((terms / (n * k + 1)).sum(axis=0))


def log_dca(z, n: int):
    """ln f at every point of the array z (real part ln|f|, imaginary part
    arg f), through the generalised sine integral."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = np.asarray(z, dtype=complex).ravel()
    out = np.empty(z.size, complex)
    r = np.abs(z)
    mod_s = r ** (0.5 * n)  # |S|
    small = mod_s < _SERIES_S
    out[small] = _log_f_series(z[small], n)
    z, r, mod_s = z[~small], r[~small], mod_s[~small]
    if z.size:
        th = np.angle(z)
        k = np.round(th * n / (2.0 * math.pi))
        half = 0.5 * n * (th - 2.0 * math.pi * k / n)  # arg S, in [-pi/2, pi/2]
        # S from its modulus and argument: through exp(ln S) ln|f| would
        # lose several ulp at |S| in the hundreds
        S = mod_s * np.exp(1j * half)
        w = np.concatenate([-1j * S, 1j * S])
        lr = 0.5 * n * np.log(r)
        lw = np.concatenate([lr + 1j * (half - 0.5 * math.pi), lr + 1j * (half + 0.5 * math.pi)])
        if n == 1:
            lg = np.zeros(w.size, complex)  # Gamma(1, w) = e^{-w}
        else:
            lg = log_gamma_upper(np.array([[2.0 / n - 1.0]]), w, lw)[0]
        # the terms A_n, e^{i pi/n} Gamma(s, -iS) / n and e^{-i pi/n} Gamma(s, iS) / n
        c = complex(-math.log(n), math.pi / n)
        m = z.size
        terms = np.vstack([
            np.full(m, math.log(dca_asymptotic_value(0, n).real), complex),
            (lg[:m] + c) - w[:m],
            (lg[m:] + c.conjugate()) - w[m:],
        ])
        out[~small] = log_sum(terms) + 2j * math.pi * k / n
    return out


def eval_dca(z: complex, cfg: ClassicDCA, tol: float = 1e-10, path=None) -> complex:
    """f(z) as a complex number: the one-point case of log_dca, which
    raises OverflowError past |f| = e^709 (log_dca itself does not).

    tol is used only with an explicit `path` (waypoint list from 0 to z):
    then f is the Gauss-Kronrod quadrature of the entire integrand along
    that polyline, to absolute accuracy ~tol, which must agree with the
    closed form by path independence.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    z = complex(z)
    if path is not None:
        pts = [complex(p) for p in path]
        if pts[0] != 0 or pts[-1] != z:
            raise ValueError("path must run from 0 to z")
        total = 0j
        for a, b in zip(pts[:-1], pts[1:]):
            total += integrate_segment(
                lambda w: integrand(w, cfg.n), a, b, tol / max(1, len(pts) - 1)
            ).value
        return total
    v = log_dca([z], cfg.n)[0]
    if v.real > _LOG_MAX:
        raise OverflowError("|f(z)| = e^%.6g overflows a double; use log_dca" % v.real)
    return complex(np.exp(v))


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
