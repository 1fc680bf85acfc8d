"""Evaluable entire-function descriptions used as construction targets.

Only polynomials and truncated power series with a certified tail radius
are admitted as targets: residual verification needs a computable value
and a computable error bound at every sample point.

Every kind of entire function growth scans (these two, Constructed and
Classic) answers log_abs(r, theta), ln|f| at the polar points r e^{i theta}
of two arrays; declared_order; and to_json_dict(), its funcspec/1 body.  A
new kind is one class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _cx_list(cs):
    return [[c.real, c.imag] for c in cs]


class _Coeffs:
    """Horner evaluation of a coefficient tuple, shared by the target kinds."""

    def __call__(self, z):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def log_abs(self, r, theta):
        """ln|f| at each polar point r e^{i theta} of the arrays r and theta
        (-inf at a zero)."""
        z = np.asarray(r, dtype=float) * np.exp(1j * np.asarray(theta, dtype=float))
        with np.errstate(divide="ignore"):
            return np.log(np.abs(self(z)))


@dataclass(frozen=True)
class Polynomial(_Coeffs):
    """p(z) = sum coeffs[k] z^k.  Entire of order 0."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in coeffs))
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")

    @property
    def declared_order(self) -> float:
        return 0.0

    def to_json_dict(self) -> dict:
        return {"kind": "poly", "coeffs": _cx_list(self.coeffs)}


@dataclass(frozen=True)
class Series(_Coeffs):
    """Truncated power series, trusted only for |z| <= tail_bound_radius.

    The truncation error inside that radius is bounded by the magnitude of
    the last retained term there (caller's certification).
    """

    coeffs: tuple
    tail_bound_radius: float
    declared_order: float = field(default=float("nan"))

    def __init__(self, coeffs, tail_bound_radius, declared_order=float("nan")):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in coeffs))
        object.__setattr__(self, "tail_bound_radius", float(tail_bound_radius))
        object.__setattr__(self, "declared_order", float(declared_order))
        if not self.coeffs:
            raise ValueError("series needs at least one coefficient")
        if self.tail_bound_radius <= 0:
            raise ValueError("tail_bound_radius must be > 0")

    def __call__(self, z):
        """Value at z, a complex number or a numpy array of them (every
        element must lie within the certified radius)."""
        r = float(np.max(np.abs(z), initial=0.0))
        if r > self.tail_bound_radius * (1 + 1e-12):
            raise ValueError(
                "series evaluated at |z|=%g beyond certified radius %g"
                % (r, self.tail_bound_radius)
            )
        return super().__call__(z)

    def to_json_dict(self) -> dict:
        return {
            "kind": "series",
            "coeffs": _cx_list(self.coeffs),
            "tail_bound_radius": self.tail_bound_radius,
            # null where no order is declared: JSON has no NaN
            "declared_order": None if math.isnan(self.declared_order) else self.declared_order,
        }


TargetFunction = Polynomial | Series
