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
near-equal is subtracted.  Q is evaluated in log space on numpy arrays by
the incomplete-gamma kernel of gammainc, so |w| in the thousands never
overflows.  The contour quadrature remains only in contour_identity, an
independent check of the Gamma constants.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .gammainc import log_gamma_upper, log_sum
from .logcx import LogComplex, wrap_angle
from .quadrature import integrate_segment, truncation_radius
from .specs import TargetFunction

ANG_TOL = 1e-9  # angular width of the contour and of the residual's rays


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
# the regularised incomplete gamma function

def _log_q(n: int, w, lw):
    """ln(e^w Q(m/n, w)) for m = 1..n-1 (rows) and every w (columns), with
    lw = ln w on the branch the caller needs (see gammainc)."""
    s = (np.arange(1, n) / n)[:, None]
    out = np.zeros((n - 1, w.size), complex)  # Q(s, 0) = 1
    nz = w != 0
    if nz.any():
        lgs = np.array([[math.lgamma(m / n)] for m in range(1, n)])
        out[:, nz] = log_gamma_upper(s, w[nz], lw[nz]) - lgs
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


def _log_phi(z: complex, n: int, with_exp: bool):
    """ln phi(z); without e^{z^n}, the Q terms alone: ln E(z)."""
    k, w, q = _q_terms(np.array([complex(z)]), n)
    rows = q - math.log(n)
    if with_exp:
        rows = np.vstack([rows, np.where(k == 0, w, -np.inf)])
    return log_sum(rows)[0]


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
    return LogComplex.from_log(_log_phi(z, n, with_exp=True))


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
        return log_sum(_log_f_terms(z, cf))


def eval_f(z: complex, cf: ConstructedF) -> LogComplex:
    """f(z) = sum_j phi(e^{-2 pi i j/n} z) a_j(z) / e^{z^n} as a LogComplex;
    the one-point case of log_f."""
    return LogComplex.from_log(log_f([complex(z)], cf)[0])


def log_residual(z, j0: int, cf: ConstructedF):
    """ln(f(z) - a_{j0}(z)) at every point of the array z on ray j0: the Q
    terms of f alone, so nothing near-equal is subtracted.  Raises
    NotOnRayError when a point is 0 or off the ray by more than ANG_TOL."""
    if not 1 <= j0 <= cf.n:
        raise ValueError("ray index out of range")
    z = np.asarray(z, dtype=complex).ravel()
    if cf.n == 1:
        return np.full(z.size, -np.inf, complex)
    if np.any(z == 0):
        raise NotOnRayError("residual undefined at the origin")
    off = np.angle(z) - cf.ray_angle(j0)
    if np.any(np.abs(np.remainder(off + math.pi, 2.0 * math.pi) - math.pi) > ANG_TOL):
        raise NotOnRayError("z is not on ray %d within angular tolerance" % j0)
    with np.errstate(divide="ignore"):
        return log_sum(_log_f_terms(z, cf)[1:])


def residual_lc(z_on_ray: complex, j0: int, cf: ConstructedF) -> LogComplex:
    """f(z) - a_{j0}(z) for z on ray j0, in log scale; the one-point case of
    log_residual."""
    return LogComplex.from_log(log_residual([complex(z_on_ray)], j0, cf)[0])


def eval_residual(z_on_ray: complex, j0: int, cf: ConstructedF) -> complex:
    """f(z) - a_{j0}(z) as an ordinary complex (may underflow to 0 for
    very large radii; use residual_lc for the log-scale value)."""
    return residual_lc(z_on_ray, j0, cf).to_complex()
