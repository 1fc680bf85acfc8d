"""Evaluable entire-function descriptions used as construction targets.

Only polynomials and truncated power series with a certified tail radius
are admitted as targets: residual verification needs a computable value
and a computable error bound at every sample point.

Every kind of entire function growth scans (these two, Constructed and
Classic) answers log_abs(r, theta), ln|f| at the polar points r e^{i theta}
of two arrays; declared_order; to_json_dict(), its funcspec/1 body; kind,
its funcspec kind string; from_json_dict(d); and, for a CLI form kind:payload,
from_cli(payload, read).  The parsers look kinds up in {kind: class} tables
built from the unions TargetFunction (here) and EntireSpec (growth), so a
new kind is one class and its place in a union.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import get_args

import numpy as np


def _cx_list(cs):
    return [[c.real, c.imag] for c in cs]


class UsageError(ValueError):
    """A malformed command-line argument or input file."""


def parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j").replace(" ", ""))
    except ValueError:
        raise UsageError("cannot parse complex number %r" % text)


class _Coeffs:
    """Horner evaluation of a coefficient tuple, shared by the target kinds."""

    def _set_coeffs(self, coeffs):
        """Store coeffs as a tuple of complex numbers: at least one, all finite."""
        cs = tuple(complex(c) for c in coeffs)
        name = type(self).__name__.lower()
        if not cs:
            raise ValueError("%s needs at least one coefficient" % name)
        if not all(map(cmath.isfinite, cs)):
            raise ValueError("%s coefficients must be finite" % name)
        object.__setattr__(self, "coeffs", cs)

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

    kind = "poly"
    coeffs: tuple

    def __init__(self, coeffs):
        self._set_coeffs(coeffs)

    @property
    def declared_order(self) -> float:
        return 0.0

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "coeffs": _cx_list(self.coeffs)}

    @classmethod
    def from_json_dict(cls, d: dict) -> Polynomial:
        return cls([complex(re, im) for re, im in d["coeffs"]])

    @classmethod
    def from_cli(cls, payload: str, read) -> Polynomial:
        """poly:c0,c1,... (read is unused)."""
        return cls([parse_complex(c) for c in payload.split(",")])


@dataclass(frozen=True)
class Series(_Coeffs):
    """Truncated power series, trusted only for |z| <= tail_bound_radius.

    The truncation error inside that radius is bounded by the magnitude of
    the last retained term there (caller's certification).
    """

    kind = "series"
    coeffs: tuple
    tail_bound_radius: float
    declared_order: float = field(default=float("nan"))

    def __init__(self, coeffs, tail_bound_radius, declared_order=float("nan")):
        self._set_coeffs(coeffs)
        object.__setattr__(self, "tail_bound_radius", float(tail_bound_radius))
        object.__setattr__(self, "declared_order", float(declared_order))
        if not self.tail_bound_radius > 0:  # NaN too
            raise ValueError("tail_bound_radius must be > 0")
        # json.loads reads the Infinity token too
        if self.tail_bound_radius == math.inf:
            raise ValueError("tail_bound_radius must be finite")
        if math.isinf(self.declared_order):  # NaN is no declared order
            raise ValueError("declared_order must be finite or absent")

    def check_radius(self, z):
        """Raise ValueError unless every element of z, a complex number or a
        numpy array of them, lies within the certified radius."""
        r = float(np.max(np.abs(z), initial=0.0))
        if r > self.tail_bound_radius * (1 + 1e-12):
            raise ValueError(
                "series evaluated at |z|=%g beyond certified radius %g"
                % (r, self.tail_bound_radius)
            )

    def __call__(self, z):
        """Value at z, a complex number or a numpy array of them (every
        element must lie within the certified radius)."""
        self.check_radius(z)
        return super().__call__(z)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "coeffs": _cx_list(self.coeffs),
            "tail_bound_radius": self.tail_bound_radius,
            # null where no order is declared: JSON has no NaN
            "declared_order": None if math.isnan(self.declared_order) else self.declared_order,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> Series:
        order = d.get("declared_order")
        return cls([complex(re, im) for re, im in d["coeffs"]], d["tail_bound_radius"],
                   math.nan if order is None else order)

    @classmethod
    def from_cli(cls, payload: str, read) -> Series:
        """series:@FILE, the series funcspec that read(FILE) loads."""
        if not payload.startswith("@"):
            raise UsageError("series payload must be @file")
        spec = read(payload[1:])
        if not isinstance(spec, cls):
            raise UsageError("%s is not a series funcspec" % payload[1:])
        return spec


TargetFunction = Polynomial | Series


def from_kind_table(table: dict, d: dict, unknown: str):
    """The spec with funcspec/1 body d, read by its kind's class in table
    ({kind: class}); a ValueError with the message unknown % kind if none."""
    kind = d["kind"]
    cls = table.get(kind) if isinstance(kind, str) else None  # a list is unknown too
    if cls is None:
        raise ValueError(unknown % (kind,))
    return cls.from_json_dict(d)


_TARGETS = {cls.kind: cls for cls in get_args(TargetFunction)}


def target_from_json_dict(d: dict) -> TargetFunction:
    """The construction target whose funcspec/1 body is d."""
    return from_kind_table(_TARGETS, d, "unknown funcspec target kind %r")
