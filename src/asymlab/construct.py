"""Construction of an entire function with prescribed asymptotic targets on
n equally spaced rays.

Definition: E(z) is the normalized Cauchy integral of e^{w^n} over the
boundary of the sector |arg z| < pi/n (in along angle -pi/n, out along
+pi/n).  Its outside branch continues across the contour to the entire
interpolant phi = e^{z^n} + O(1/z) inside the sector and O(1/z) outside,
and f(z) = sum_j phi(e^{-2 pi i j / n} z) a_j(z) / e^{z^n}.

Evaluation uses the closed form: phi is the Mittag-Leffler function
(1/n) E_{1/n}(z).  Write w = z^n, omega = e^{2 pi i / n}, k for the sector
of z (z = omega^k w^{1/n} with the principal root), Q(s, w) = Gamma(s, w) /
Gamma(s) for the regularised upper incomplete gamma function, and
A_m = (1/n) sum_j omega^{-jm} a_j for the discrete Fourier transform of the
targets.  Then

    phi(z) = e^w [delta_{k0} - (1/n) sum_{m=1}^{n-1} omega^{km} Q(m/n, w)]
    E(z)   = phi(z) - e^w inside the sector, phi(z) outside
    f(z)   = a_k(z) - sum_{m=1}^{n-1} A_m(z) omega^{km} Q(m/n, w)

and on ray j0 the residual f - a_{j0} is the last sum alone, so nothing
near-equal is subtracted.  Q is evaluated in log space on numpy arrays, so
|w| in the thousands never overflows.  The contour quadrature remains only
in contour_identity, an independent check of the Gamma constants.
"""

from __future__ import annotations

import cmath
import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .logcx import LC_ZERO, CancellationWarning, LogComplex, wrap_angle
from .quadrature import integrate_segment, truncation_radius
from .specs import TargetFunction

ANG_TOL = 1e-9  # angular width of the contour and of the residual's rays

# Regimes of the Q kernel: the asymptotic expansion where |w| >= _ASYMPTOTIC_R
# (its smallest term there is about e^{-|w|} < 1e-16); else the power series
# where (|w| + Re w) / 2 < _SERIES_X, which covers small |w| and a band
# around the negative real axis where the continued fraction converges
# slowly (series terms cancel by at most e^{|w| + Re w}); else the continued
# fraction, which needs at most about 45 steps there.
_ASYMPTOTIC_R = 40.0
_SERIES_X = 2.0
_EPS = 2.0**-52
_MAX_STEPS = 500  # continued-fraction steps; about 45 suffice
_CANCEL_REL = 1e-10  # as lc_add: warn when a sum keeps less than this share


class TooCloseToContour(RuntimeError):
    """z lies on the contour, where the two branches of E differ."""


class NotOnRayError(ValueError):
    """Residual evaluation requested off the designated ray."""


class RegionTag(enum.Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    ON_GAMMA = "on_gamma"


def classify_region(z: complex, n: int) -> RegionTag:
    """INSIDE / OUTSIDE / ON_GAMMA for the sector |arg z| < pi/n."""
    if z == 0:
        raise ValueError("z = 0 is the contour corner; classification undefined")
    if n < 2:
        raise ValueError("classification requires n >= 2")
    th = abs(wrap_angle(cmath.phase(complex(z))))
    half = math.pi / n
    if abs(th - half) <= ANG_TOL:
        return RegionTag.ON_GAMMA
    if th < half:
        return RegionTag.INSIDE
    return RegionTag.OUTSIDE


def c_constant(n: int, tol: float = 1e-12) -> float:
    """integral of e^{-t^n} over [0, inf) = Gamma(1 + 1/n).

    tol is accepted for API stability; the closed form does not use it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.gamma(1.0 + 1.0 / n)


def d_constant(n: int, tol: float = 1e-12) -> float:
    """integral of t e^{-t^n} over [0, inf) = Gamma(2/n) / n.

    tol is accepted for API stability; the closed form does not use it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.gamma(2.0 / n) / n


def contour_identity(n: int, tol: float = 1e-12) -> complex:
    """(1/2 pi i) integral of e^{w^n} over the contour, by Gauss-Kronrod
    quadrature of its two rays truncated at truncation_radius; equals
    (c_n / pi) sin(pi / n)."""
    T = truncation_radius(n, tol)

    def integrand(w):
        return np.exp(w**n)

    inward = integrate_segment(integrand, T * cmath.exp(-1j * math.pi / n), 0j, tol / 2.0)
    outward = integrate_segment(integrand, 0j, T * cmath.exp(1j * math.pi / n), tol / 2.0)
    return (inward.value + outward.value) / (2j * math.pi)


# ---------------------------------------------------------------------------
# the incomplete-gamma kernel

def _log_series(s, w, lw, lgs):
    """ln(e^w Q) from gamma(s, w) = w^s sum_k (-w)^k / (k! (s + k)), summed
    as one matrix product (einsum rather than matmul keeps BLAS out of the
    process).  With |w| <= 40, |w|^k / k! < 1e-21 at k = e max|w| + 40."""
    k = np.arange(1, int(math.e * np.abs(w).max()) + 41)
    powers = np.cumprod(-w / k[:, None], axis=0)  # (-w)^k / k!
    total = 1.0 / s + np.einsum("mk,kn->mn", 1.0 / (s + k), powers)
    lower = np.exp(s * lw + np.log(total) - lgs)
    return w + np.log(1.0 - lower)


def _log_continued_fraction(s, w, lw, lgs):
    """ln(e^w Q) from Legendre's continued fraction
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
            return s * lw + np.log(h) - lgs
    raise ArithmeticError("incomplete gamma continued fraction did not converge")


def _log_asymptotic(s, w, lw, lgs):
    """ln(e^w Q) from Gamma(s, w) ~ w^{s-1} e^{-w} sum_k (s-1)...(s-k) / w^k
    to k = 36: with |w| >= 40 the terms, at most k! / |w|^k, still shrink
    there and have fallen below 8e-17."""
    k = np.arange(1, 37)[:, None]
    terms = np.cumprod((s[:, :, None] - k) / w, axis=1)
    return (s - 1.0) * lw + np.log(1.0 + terms.sum(axis=1)) - lgs


def _log_q(n: int, w, lw):
    """ln(e^w Q(m/n, w)) for m = 1..n-1 (rows) and every w (columns).

    lw is ln w on the branch the caller needs; it may pass the negative
    real axis slightly, and all three regimes continue analytically in it
    there (the continued fraction is never used near that axis).  The
    factor e^w is folded in so that inside the sector, where Q ~ e^{-w},
    nothing of size |w| is added and subtracted again.
    """
    s = (np.arange(1, n) / n)[:, None]
    lgs = np.array([[math.lgamma(m / n)] for m in range(1, n)])
    out = np.zeros((n - 1, w.size), complex)  # Q(s, 0) = 1
    aw = np.abs(w)
    far = aw >= _ASYMPTOTIC_R
    series = ~far & (aw + w.real < 2.0 * _SERIES_X) & (w != 0)
    for mask, kernel in (
        (series, _log_series),
        (~far & ~series & (w != 0), _log_continued_fraction),
        (far, _log_asymptotic),
    ):
        if mask.any():
            out[:, mask] = kernel(s, w[mask], lw[mask], lgs)
    return out


def _q_terms(z, n: int):
    """Sector index k in 0..n-1 of each z (z = omega^k w^{1/n}, principal
    root), w = z^n, and the rows ln(-omega^{km} e^w Q(m/n, w)), m = 1..n-1,
    with ln w taken on the branch that root requires."""
    th = np.angle(z)
    k = np.round(th * n / (2.0 * math.pi))
    w = z**n
    want = n * th - 2.0 * math.pi * k  # arg w on that branch, in [-pi, pi]
    arg_w = np.angle(w)
    arg_w = arg_w + 2.0 * math.pi * np.round((want - arg_w) / (2.0 * math.pi))
    with np.errstate(divide="ignore"):
        lw = np.log(np.abs(w)) + 1j * arg_w
    k = k.astype(int) % n
    m = np.arange(1, n)[:, None]
    return k, w, _log_q(n, w, lw) + 1j * (math.pi + 2.0 * math.pi * ((k * m) % n) / n)


def _log_sum(terms):
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


def _log_phi(z: complex, n: int, with_exp: bool):
    """ln phi(z); without e^{z^n}, the Q terms alone: ln E(z)."""
    k, w, q = _q_terms(np.array([complex(z)]), n)
    rows = q - math.log(n)
    if with_exp:
        rows = np.vstack([rows, np.where(k == 0, w, -np.inf)])
    return _log_sum(rows)[0]


def _to_lc(v) -> LogComplex:
    if v.real == -math.inf:
        return LC_ZERO
    return LogComplex(float(v.real), wrap_angle(float(v.imag)))


def eval_E(z: complex, n: int, tol: float = 1e-9) -> complex:
    """E(z): normalized Cauchy integral of e^{w^n} over the sector boundary.

    Defined off the contour; for points within angular tolerance of it the
    two-sided limits differ and TooCloseToContour is raised.  tol is
    accepted for API stability; the closed form is accurate to about 1e-13
    relative.
    """
    if n < 2:
        raise ValueError("eval_E requires n >= 2")
    if z == 0:
        raise TooCloseToContour("z = 0 lies on the contour")
    if classify_region(z, n) is RegionTag.ON_GAMMA:
        raise TooCloseToContour("z lies on the contour within angular tolerance")
    return complex(np.exp(_log_phi(z, n, with_exp=False)))


def eval_phi(z: complex, n: int, tol: float = 1e-9) -> LogComplex:
    """The entire interpolant: e^{z^n} + O(1/z) inside the sector, O(1/z)
    outside, as a LogComplex.  tol is accepted for API stability; the closed
    form is accurate to about 1e-13 relative."""
    if n < 2:
        raise ValueError("eval_phi requires n >= 2; n = 1 is the trivial construction")
    return _to_lc(_log_phi(z, n, with_exp=True))


@dataclass(frozen=True)
class ConstructedF:
    """Assembled entire function with target a_j on the ray of angle
    2 pi j / n (j = 1..n; a_list[j-1] belongs to ray j).

    n = 1 degenerates to the trivial construction f = a_1 (the sector
    complement is empty there), kept so the CLI can accept n = 1.
    """

    n: int
    a_list: tuple[TargetFunction, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.a_list) != self.n:
            raise ValueError("need exactly n target functions")
        object.__setattr__(self, "a_list", tuple(self.a_list))

    def ray_angle(self, j: int) -> float:
        if not 1 <= j <= self.n:
            raise ValueError("ray index out of range")
        return wrap_angle(2.0 * math.pi * j / self.n)

    def has_real_coeffs(self) -> bool:
        return all(a.has_real_coeffs() for a in self.a_list)


def _log_f_terms(z, cf: ConstructedF):
    """ln of the target a_k(z) (first row) and of the Q terms
    -A_m(z) omega^{km} Q(m/n, z^n) (one row per m) of f at each z."""
    n = cf.n
    a = np.array([np.broadcast_to(t(z), z.shape) for t in cf.a_list], dtype=complex)
    if n == 1:
        return np.log(a)
    k, w, q = _q_terms(z, n)
    m = np.arange(1, n)[:, None]
    j = np.arange(1, n + 1)[None, :]
    dft = np.einsum("mj,jn->mn", np.exp(-2j * math.pi * ((j * m) % n) / n), a) / n  # A_m
    return np.vstack([np.log(a[(k - 1) % n, np.arange(z.size)]), np.log(dft) + q - w])


def log_f(z, cf: ConstructedF):
    """ln f at every point of the array z (real part ln|f|, imaginary part
    arg f), assembled in log space.  Cancellation warnings from the final
    sum propagate."""
    z = np.asarray(z, dtype=complex).ravel()
    with np.errstate(divide="ignore"):
        return _log_sum(_log_f_terms(z, cf))


def eval_f(z: complex, cf: ConstructedF) -> LogComplex:
    """f(z) = sum_j phi(e^{-2 pi i j/n} z) a_j(z) / e^{z^n} as a LogComplex;
    the one-point case of log_f."""
    return _to_lc(log_f([complex(z)], cf)[0])


def residual_lc(z_on_ray: complex, j0: int, cf: ConstructedF) -> LogComplex:
    """f(z) - a_{j0}(z) for z on ray j0, in log scale: the Q terms of f
    alone, so nothing near-equal is subtracted."""
    z = complex(z_on_ray)
    if not 1 <= j0 <= cf.n:
        raise ValueError("ray index out of range")
    if cf.n == 1:
        return LC_ZERO
    if z == 0:
        raise NotOnRayError("residual undefined at the origin")
    if abs(wrap_angle(cmath.phase(z) - cf.ray_angle(j0))) > ANG_TOL:
        raise NotOnRayError("z is not on ray %d within angular tolerance" % j0)
    with np.errstate(divide="ignore"):
        terms = _log_f_terms(np.array([z]), cf)[1:]
        return _to_lc(_log_sum(terms)[0])


def eval_residual(z_on_ray: complex, j0: int, cf: ConstructedF) -> complex:
    """f(z) - a_{j0}(z) as an ordinary complex (may underflow to 0 for
    very large radii; use residual_lc for the log-scale value)."""
    return residual_lc(z_on_ray, j0, cf).to_complex()
