"""Evaluable entire-function descriptions used as construction targets.

Only polynomials and truncated power series with a certified tail radius
are admitted as targets: residual verification needs a computable value
and a computable error bound at every sample point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Polynomial:
    """p(z) = sum coeffs[k] z^k.  Entire of order 0."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in coeffs))
        if not self.coeffs:
            raise ValueError("polynomial needs at least one coefficient")

    @property
    def degree(self) -> int:
        d = len(self.coeffs) - 1
        while d > 0 and self.coeffs[d] == 0:
            d -= 1
        return d

    @property
    def declared_order(self) -> float:
        return 0.0

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc


@dataclass(frozen=True)
class Series:
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
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc


TargetFunction = Polynomial | Series
