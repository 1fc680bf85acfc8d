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
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gammainc import (
    _ERRSTATE, _log_gamma_upper, _s_tables, _STables, log_sum, polar, sector_angles
)
from .logcx import LogComplex, wrap_angle
from .quadrature import integrate_segment, truncation_radius
from .specs import Series, TargetFunction

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


def c_constant(n: int) -> float:
    """integral of e^{-t^n} over [0, inf) = Gamma(1 + 1/n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.gamma(1.0 + 1.0 / n)


def d_constant(n: int) -> float:
    """integral of t e^{-t^n} over [0, inf) = Gamma(2/n) / n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.gamma(2.0 / n) / n


def contour_identity(n: int) -> complex:
    """(1/2 pi i) integral of e^{w^n} over the contour, by Gauss-Kronrod
    quadrature of its two rays truncated at truncation_radius, to a
    tolerance of 1e-12; equals (c_n / pi) sin(pi / n)."""
    tol = 1e-12
    T = truncation_radius(n, tol)

    def integrand(w):
        return np.exp(w**n)

    inward = integrate_segment(integrand, T * cmath.exp(-1j * math.pi / n), 0j, tol / 2.0)
    outward = integrate_segment(integrand, 0j, T * cmath.exp(1j * math.pi / n), tol / 2.0)
    return (inward.value + outward.value) / (2j * math.pi)


# ---------------------------------------------------------------------------
# the regularised incomplete gamma function

class _OrderTables(NamedTuple):
    """Constants of order n, rows m = 1..n-1: the gammainc tables of
    s = m/n, ln Gamma(m/n), omega^{-jm} (column j = 1..n) and the phase
    i (pi + 2 pi (km mod n) / n) of -omega^{km} (column k = 0..n-1)."""

    gamma: _STables
    lgs: np.ndarray
    dft: np.ndarray
    phase: np.ndarray


@functools.lru_cache(maxsize=16)
def _order_tables(n: int) -> _OrderTables:
    """The _OrderTables of n >= 2, built once.  Read-only: every caller
    shares them."""
    m = np.arange(1, n)[:, None]
    lgs = np.array([[math.lgamma(v / n)] for v in range(1, n)])
    dft = np.exp(-2j * math.pi * ((np.arange(1, n + 1) * m) % n) / n)
    phase = 1j * (math.pi + 2.0 * math.pi * ((np.arange(n) * m) % n) / n)
    for t in (lgs, dft, phase):
        t.flags.writeable = False
    return _OrderTables(_s_tables(tuple((np.arange(1, n) / n).tolist())), lgs, dft, phase)


def _fill_log_q(out, t: _OrderTables, w, lw, aw):
    """Write ln(e^w Q(m/n, w)) for m = 1..n-1 (rows) and every w (columns)
    into out, with lw = ln w on the branch the caller needs (see gammainc)
    and aw = |w|."""
    if np.count_nonzero(aw) == aw.size:
        np.subtract(_log_gamma_upper(t.gamma, w, lw, aw), t.lgs, out=out)
    else:
        nz = aw != 0
        out[...] = 0.0  # Q(s, 0) = 1
        out[:, nz] = _log_gamma_upper(t.gamma, w[nz], lw[nz], aw[nz]) - t.lgs


def _log_q(n: int, w, lw):
    """ln(e^w Q(m/n, w)) for m = 1..n-1 (rows) and every w (columns)."""
    out = np.empty((n - 1, w.size), complex)
    with np.errstate(**_ERRSTATE):
        _fill_log_q(out, _order_tables(n), w, lw, np.abs(w))
    return out


def _q_terms(r, theta, n: int, out):
    """Sector index k of each polar point z = r e^{i theta} (z = omega^k
    w^{1/n}, principal root), reduced mod n, and w = z^n; writes the rows
    ln(-omega^{km} e^w Q(m/n, w)), m = 1..n-1, into out, with
    ln w = n ln r + i (n theta - 2 pi k) on the branch that root requires.
    Raises ValueError where r^n is not finite."""
    t = _order_tables(n)
    aw = r**n
    finite = np.isfinite(aw)
    if np.count_nonzero(finite) < aw.size:
        raise ValueError("|z| = %g: z^%d is not finite in double precision" % (r[~finite].min(), n))
    k, phi = sector_angles(theta, n)
    arg_w = n * phi  # in [-pi, pi]
    lw = n * np.log(r) + 1j * arg_w
    # w from its modulus and argument, each rounded once
    w = aw * np.exp(1j * arg_w)
    k = k.astype(int) % n
    _fill_log_q(out, t, w, lw, aw)
    out += t.phase[:, k]
    return k, w


def _log_phi(z: complex, n: int, with_exp: bool):
    """ln phi(z); without e^{z^n}, the Q terms alone: ln E(z)."""
    rows = np.empty((n, 1), complex)  # the Q terms, then e^{z^n}
    z = np.array([complex(z)])
    with np.errstate(**_ERRSTATE):
        k, w = _q_terms(*polar(z), n, rows[:-1])
        rows[:-1] -= math.log(n)
        rows[-1] = np.where(k == 0, w, -np.inf)
        return log_sum(rows if with_exp else rows[:-1])[0]


def eval_E(z: complex, n: int, tol: float = 1e-9) -> complex:
    """E(z): normalized Cauchy integral of e^{w^n} over the sector boundary.

    Defined off the contour; for points within angular tolerance of it the
    two-sided limits differ and TooCloseToContour is raised.  tol is not
    read: the closed form is accurate to about 1e-13 relative.  It stays in
    the signature because acceptance criterion 03 passes it.
    """
    if n < 2:
        raise ValueError("eval_E requires n >= 2")
    if z == 0:
        raise TooCloseToContour("z = 0 lies on the contour")
    if classify_region(z, n) is RegionTag.ON_GAMMA:
        raise TooCloseToContour("z lies on the contour within angular tolerance")
    return complex(np.exp(_log_phi(z, n, with_exp=False)))


def eval_phi(z: complex, n: int) -> LogComplex:
    """The entire interpolant: e^{z^n} + O(1/z) inside the sector, O(1/z)
    outside, as a LogComplex, accurate to about 1e-13 relative."""
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
        if self.n < 1:  # a non-number n raises TypeError here
            raise ValueError("n must be >= 1")
        # bool is an int subclass, and a float n has no construction
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise ValueError("n must be an integer, not %r" % (self.n,))
        if len(self.a_list) != self.n:
            raise ValueError("need exactly n target functions")
        # the construction calls its targets and writes them as funcspec
        # targets, which only these two kinds are
        for t in self.a_list:
            if not isinstance(t, TargetFunction):
                raise ValueError("a target must be a Polynomial or a Series, not %r" % (t,))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "a_list", tuple(self.a_list))

    @functools.cached_property
    def _horner(self):
        """The targets' coefficients as a read-only (terms, n, 1) stack,
        highest power first, zero-padded to the longest target."""
        top = max(len(t.coeffs) for t in self.a_list)
        c = np.zeros((top, self.n, 1), complex)
        for i, t in enumerate(self.a_list):
            c[top - len(t.coeffs):, i, 0] = t.coeffs[::-1]
        c.flags.writeable = False
        return c

    def ray_angle(self, j: int) -> float:
        if not 1 <= j <= self.n:
            raise ValueError("ray index out of range")
        return wrap_angle(2.0 * math.pi * j / self.n)


def _targets(z, cf: ConstructedF):
    """The targets a_j(z) (rows) at the points z (columns), by one Horner
    pass over their zero-padded coefficients, which gives each row's bits as
    the target's own call does; a Series target first checks its radius, as
    its call does."""
    for t in cf.a_list:
        if isinstance(t, Series):
            t.check_radius(z)
    a = np.zeros((cf.n, z.size), complex)
    for c in cf._horner:
        a = a * z + c  # a * z as in Polynomial: with FMA, z * a can round apart
    return a


def _log_f_terms(r, theta, cf: ConstructedF):
    """ln of the target a_k(z) (first row) and of the Q terms
    -A_m(z) omega^{km} Q(m/n, z^n) (one row per m) of f at each polar point
    z = r e^{i theta}."""
    n = cf.n
    a = _targets(r * np.exp(1j * theta), cf)
    if n == 1:
        return np.log(a)
    terms = np.empty((n, r.size), complex)
    q = terms[1:]
    k, w = _q_terms(r, theta, n, q)
    q += np.log(np.einsum("mj,jn->mn", _order_tables(n).dft, a) / n)  # A_m
    q -= w
    terms[0] = np.log(a[k - 1, np.arange(r.size)])  # row k - 1 mod n
    return terms


def log_f_polar(r, theta, cf: ConstructedF):
    """ln f at every polar point r e^{i theta} of the arrays r >= 0 and
    theta (real part ln|f|, imaginary part arg f), assembled in log space
    from ln z^n = n ln r + i (n theta - 2 pi k), so that z^n carries no
    rounding of r e^{i theta}.  Cancellation warnings from the final sum
    propagate; a point where z^n is not finite raises ValueError."""
    r, theta = np.asarray(r, dtype=float).ravel(), np.asarray(theta, dtype=float).ravel()
    with np.errstate(**_ERRSTATE):
        return log_sum(_log_f_terms(r, theta, cf))


def log_f(z, cf: ConstructedF):
    """ln f at every point of the array z: log_f_polar at (|z|, arg z)."""
    z = np.asarray(z, dtype=complex).ravel()
    return log_f_polar(*polar(z), cf)


def eval_f(z: complex, cf: ConstructedF) -> LogComplex:
    """f(z) = sum_j phi(e^{-2 pi i j/n} z) a_j(z) / e^{z^n} as a LogComplex;
    the one-point case of log_f."""
    return LogComplex.from_log(log_f([complex(z)], cf)[0])


def log_residual_polar(r, theta, j0, cf: ConstructedF):
    """ln(f - a_{j0}) at every polar point r e^{i theta} on ray j0 (one
    index, or an array of one per point): the Q terms of f alone, so
    nothing near-equal is subtracted.  Raises NotOnRayError when a point is
    0, or off its ray by more than ANG_TOL (r < 0 is off it)."""
    j0 = np.asarray(j0)
    if np.count_nonzero((j0 < 1) | (j0 > cf.n)):
        raise ValueError("ray index out of range")
    r, theta = np.asarray(r, dtype=float).ravel(), np.asarray(theta, dtype=float).ravel()
    if cf.n == 1:
        return np.full(r.size, -np.inf, complex)
    if np.count_nonzero(r == 0):
        raise NotOnRayError("residual undefined at the origin")
    off = np.remainder(theta - (2.0 * math.pi / cf.n) * j0 + math.pi, 2.0 * math.pi) - math.pi
    bad = (np.abs(off) > ANG_TOL) | (r < 0)
    if np.count_nonzero(bad):
        j = int(np.broadcast_to(j0, r.shape)[bad][0])
        raise NotOnRayError("z is not on ray %d within angular tolerance" % j)
    with np.errstate(**_ERRSTATE):
        return log_sum(_log_f_terms(r, theta, cf)[1:])


def log_residual(z, j0: int, cf: ConstructedF):
    """ln(f(z) - a_{j0}(z)) at every point of the array z on ray j0:
    log_residual_polar at (|z|, arg z)."""
    z = np.asarray(z, dtype=complex).ravel()
    return log_residual_polar(*polar(z), j0, cf)


def residual_lc(z_on_ray: complex, j0: int, cf: ConstructedF) -> LogComplex:
    """f(z) - a_{j0}(z) for z on ray j0, in log scale; the one-point case of
    log_residual."""
    return LogComplex.from_log(log_residual([complex(z_on_ray)], j0, cf)[0])
