"""Log-scaled complex arithmetic.

Values like e^{z^n} at desk radii overflow doubles long before they stop
being interesting, so we carry (log-modulus, argument) pairs and do the
algebra there.  Zero gets a distinguished state (log_mod = -inf, arg = 0)
and every operation branches on it before touching the floats, so no
inf - inf ever reaches the argument channel.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


class CancellationWarning(UserWarning):
    """Addition lost ~10 or more digits to cancellation.

    Callers doing residual arithmetic must restructure the formula rather
    than trust the returned value.
    """


def phase(z: complex) -> float:
    """Argument of z in (-pi, pi].

    math.atan2 instead of cmath.phase: the latter raises OverflowError
    when a component is subnormal.
    """
    return math.atan2(z.imag, z.real)


def wrap_angle(a: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    a = math.fmod(a, TWO_PI)
    if a <= -math.pi:
        a += TWO_PI
    elif a > math.pi:
        a -= TWO_PI
    return a


@dataclass(frozen=True)
class LogComplex:
    """A complex number stored as (natural log of modulus, argument).

    arg is kept in (-pi, pi]; the zero state is log_mod = -inf, arg = 0.
    Instances are immutable and safe to share between threads.
    """

    log_mod: float
    arg: float = 0.0

    @property
    def is_zero(self) -> bool:
        return self.log_mod == -math.inf

    @staticmethod
    def from_complex(z: complex) -> "LogComplex":
        z = complex(z)
        if z == 0:
            return LC_ZERO
        return LogComplex(math.log(abs(z)), wrap_angle(phase(z)))

    @staticmethod
    def from_log(v: complex) -> "LogComplex":
        """From a natural logarithm ln|z| + i arg z; real part -inf is zero."""
        if v.real == -math.inf:
            return LC_ZERO
        return LogComplex(float(v.real), wrap_angle(float(v.imag)))

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        return cmath.exp(complex(self.log_mod, self.arg))

    def reciprocal(self) -> "LogComplex":
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of LogComplex zero")
        return LogComplex(-self.log_mod, wrap_angle(-self.arg))

    def conjugate(self) -> "LogComplex":
        if self.is_zero:
            return LC_ZERO
        return LogComplex(self.log_mod, wrap_angle(-self.arg))

    def abs_log10(self) -> float:
        return self.log_mod / math.log(10.0)


LC_ZERO = LogComplex(-math.inf, 0.0)
LC_ONE = LogComplex(0.0, 0.0)


def lc_mul(a: LogComplex, b: LogComplex) -> LogComplex:
    """Product; log-moduli add, arguments add and are renormalized."""
    if a.is_zero or b.is_zero:
        return LC_ZERO
    return LogComplex(a.log_mod + b.log_mod, wrap_angle(a.arg + b.arg))


def lc_add(a: LogComplex, b: LogComplex) -> LogComplex:
    """Sum computed by factoring out the larger modulus.

    Emits CancellationWarning when |a + b| < 1e-10 * max(|a|, |b|);
    the returned value is then best-effort only.
    """
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    # total order (not just log_mod) so the operation is bit-for-bit
    # commutative even when the moduli tie
    if (b.log_mod, b.arg) > (a.log_mod, a.arg):
        a, b = b, a
    # s = 1 + (b/a); |b/a| <= 1 so the exp cannot overflow.
    s = 1.0 + cmath.exp(complex(b.log_mod - a.log_mod, b.arg - a.arg))
    mag = abs(s)
    if mag < 1e-10:
        warnings.warn(
            "lc_add: catastrophic cancellation (|a+b|/max(|a|,|b|) = %.3e)" % mag,
            CancellationWarning,
            stacklevel=2,
        )
    if mag == 0.0:
        return LC_ZERO
    return LogComplex(a.log_mod + math.log(mag), wrap_angle(a.arg + phase(s)))

