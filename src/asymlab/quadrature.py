"""Adaptive complex-line quadrature.

Gauss-Kronrod 7/15 panels with bisection: the embedded pair gives a local
error estimate at no extra integrand cost.  Integrands must accept a numpy
array of complex nodes (scalar returns are broadcast, so constants work).

Infinite rays carrying an (t+1)e^{-t^n} envelope are truncated at a radius
where an analytic bound puts the tail below a tenth of tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

MAX_DEPTH = 40

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1].
_XK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)
_GAUSS_IDX = np.arange(1, 15, 2)


class QuadratureNonconvergence(RuntimeError):
    """Subdivision depth cap hit before the tolerance was met."""


@dataclass(frozen=True)
class QuadResult:
    value: complex
    err_est: float
    evaluations: int

    def __post_init__(self):
        if self.err_est < 0:
            raise ValueError("err_est must be >= 0")


def _panel(f: Callable, a: complex, b: complex) -> tuple[complex, float]:
    mid = (a + b) / 2.0
    half = (b - a) / 2.0
    nodes = mid + half * _XK
    fv = np.broadcast_to(np.asarray(f(nodes)), nodes.shape)
    k = half * np.dot(_WK, fv)
    g = half * np.dot(_WG, fv[_GAUSS_IDX])
    return complex(k), abs(complex(k - g))


def integrate_segment(integrand: Callable, a: complex, b: complex, tol: float) -> QuadResult:
    """Adaptive integral of `integrand` along the straight segment [a, b].

    Panels are bisected until local error estimates, prorated by panel
    length, sum below tol (with a machine-relative floor so huge smooth
    integrands are not subdivided forever).  Raises
    QuadratureNonconvergence past MAX_DEPTH bisections.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    a = complex(a)
    b = complex(b)
    if a == b:
        return QuadResult(0j, 0.0, 0)
    total_len = abs(b - a)
    k, err = _panel(integrand, a, b)
    work = [(a, b, k, err, 0)]
    evaluations = 15
    value = 0j
    err_acc = 0.0
    abs_acc = abs(k)
    while work:
        pa, pb, pk, perr, depth = work.pop()
        local_tol = tol * abs(pb - pa) / total_len
        if perr <= local_tol or perr <= 1e-15 * abs_acc:
            value += pk
            err_acc += perr
            continue
        if depth >= MAX_DEPTH:
            raise QuadratureNonconvergence(
                "segment quadrature: depth %d exceeded (err=%.3e, tol=%.3e)"
                % (MAX_DEPTH, perr, local_tol)
            )
        pm = (pa + pb) / 2.0
        k1, e1 = _panel(integrand, pa, pm)
        k2, e2 = _panel(integrand, pm, pb)
        evaluations += 30
        abs_acc = max(abs_acc, abs(k1) + abs(k2))
        work.append((pa, pm, k1, e1, depth + 1))
        work.append((pm, pb, k2, e2, depth + 1))
    return QuadResult(value, err_acc, evaluations)


def envelope_tail_bound(n: int, T: float) -> float:
    """Upper bound for the tail integral of (t+1)e^{-t^n} over [T, inf).

    Uses t^n >= T^n + n T^{n-1}(t - T) for t >= T (convexity), which is
    exact for n = 1.  Requires T >= 1 so the linearization slope is >= 1.
    """
    if T < 1.0:
        raise ValueError("tail bound requires T >= 1")
    lam = n * T ** (n - 1)
    return math.exp(-(T**n)) * ((T + 1.0) / lam + 1.0 / lam**2)


def truncation_radius(n: int, tol: float) -> float:
    """Smallest radius T with the (t+1)e^{-t^n} tail beyond T below tol/10.

    Monotone nonincreasing in tol by construction (bisection on the
    strictly decreasing tail bound).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must be in (0, 1)")
    target = tol / 10.0
    lo, hi = 1.0, 2.0
    while envelope_tail_bound(n, hi) >= target:
        hi *= 2.0
        if hi > 1e6:
            raise QuadratureNonconvergence("truncation radius search diverged")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if envelope_tail_bound(n, mid) < target:
            hi = mid
        else:
            lo = mid
    return hi

