"""The classical order-n/2 example with n distinct asymptotic values:

    f(z) = integral from 0 to z of g(w) dw,   g(w) = sin(w^{n/2}) / w^{n/2}.

g looks multivalued but is not: with s^2 = w^n, sin(s)/s is an even entire
function of s, so g(w) = sum_k (-1)^k w^{nk} / (2k+1)! is entire and f is
path independent.  f(r e^{2 pi i nu / n}) tends to e^{2 pi i nu / n} A_n
along each of the n symmetry rays, where A_n = (2/n) times the Mellin
transform of sin u at 2/n - 1, a Gamma-function closed form.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import integrate_segment

# At the cutoff radius the series envelope r^{nk+1}/(2k+1)! underflows to 0
# by k = 162, so this many terms exhaust the series for every tol.
_SERIES_TERMS = 200


@dataclass(frozen=True)
class ClassicDCA:
    """Configuration for the distinct-asymptotic-values example of order n/2.

    The integrated power series is used for |z| <= series_cutoff_radius =
    144^{1/n} (12.0 for n = 2); beyond that, evaluation continues by segment
    quadrature of the entire integrand from an anchor on the cutoff circle.
    The alternating series has intermediate terms of size ~e^{r^{n/2}}, so
    keeping r^{n/2} <= 12 caps the cancellation loss near five digits.
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


def _series_f(z: complex, n: int, tol: float) -> complex:
    """Term-wise integrated series sum_k (-1)^k z^{nk+1}/((nk+1)(2k+1)!)."""
    total = 0j
    # coefficient magnitude times |z|^{nk+1} bounds the tail by the first
    # omitted term once terms decrease (alternating, factorially damped)
    zn = complex(z) ** n
    term = complex(z)  # k = 0 value of z^{nk+1}/(2k+1)!
    r = abs(z)
    rn = r**n
    env = r
    prev_env = math.inf
    for k in range(_SERIES_TERMS):
        total += term / (n * k + 1)
        if env < tol * 0.1 and env < prev_env:
            break
        prev_env = env
        ratio = -zn / ((2 * k + 2) * (2 * k + 3))
        term = term * ratio
        env = env * rn / ((2 * k + 2) * (2 * k + 3))
    return total


def eval_dca(z: complex, cfg: ClassicDCA, tol: float = 1e-10, path=None) -> complex:
    """f(z) to absolute accuracy ~tol.

    Inside the series cutoff the integrated power series is used.  Beyond
    it, the series value at the cutoff anchor on the ray to z is extended
    by quadrature of the entire integrand along [anchor, z].  An explicit
    `path` (waypoint list from 0 to z) forces pure quadrature along that
    polyline, which must agree by path independence.
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
    if z == 0:
        return 0j
    if abs(z) <= cfg.series_cutoff_radius:
        return _series_f(z, cfg.n, tol)
    anchor = cfg.series_cutoff_radius * z / abs(z)
    head = _series_f(anchor, cfg.n, tol / 2)
    tail = integrate_segment(lambda w: integrand(w, cfg.n), anchor, z, tol / 2).value
    return head + tail


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
