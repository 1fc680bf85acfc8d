"""Walk-on-spheres estimation of harmonic measure.

For a domain D_j of a path system clipped to the disk of radius R, the
harmonic measure of the circular boundary part S(0,R) seen from z1 equals
the probability that Brownian motion started at z1 exits through the
circle rather than the paths.  Walk-on-spheres samples that exit: jump to
a uniform point of the largest disk around the current point inside the
clipped domain, absorb within eps_shell*R of the boundary, classify by the
nearest boundary feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .geometry import PathSystem, point_in_domain

_BLOCK = 64  # uniform draws pregenerated per walk


class StartOutsideDomainError(ValueError):
    """Start point fails the domain membership or clearance check."""


@dataclass(frozen=True)
class WosConfig:
    n_walks: int
    eps_shell: float = 1e-4
    max_steps: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.n_walks < 1:
            raise ValueError("n_walks must be >= 1")
        if not 0.0 < self.eps_shell < 0.01:
            raise ValueError("eps_shell must lie in (0, 0.01)")
        if self.max_steps < 100:
            raise ValueError("max_steps must be >= 100")


@dataclass(frozen=True)
class WosEstimate:
    omega_hat: float
    ci95_halfwidth: float
    hits: int
    truncated_walks: int
    warning: str | None = None

    def __post_init__(self):
        if not 0.0 <= self.omega_hat <= 1.0:
            raise ValueError("omega_hat must lie in [0, 1]")


def _boundary_segments(sys: PathSystem, j: int, R: float) -> np.ndarray:
    """Both bounding polylines of D_j as an array of segment endpoint
    pairs; terminal rays are truncated well past radius R, which walks
    confined to |p| < R can never distinguish from true rays."""
    g1, g2 = sys.domain_boundary(j)
    els = list(g1.elements(2.0 * R))
    if g2 is not g1:
        els.extend(g2.elements(2.0 * R))
    return np.array(els, dtype=complex)


def _path_distance(pos: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Distance from each point of `pos` to the nearest boundary segment."""
    a = segs[:, 0][None, :]
    d = (segs[:, 1] - segs[:, 0])[None, :]
    p = pos[:, None]
    t = ((p - a) * d.conjugate()).real / (d * d.conjugate()).real
    np.clip(t, 0.0, 1.0, out=t)
    return np.abs(p - (a + t * d)).min(axis=1)


def estimate_harmonic_measure(
    sys: PathSystem, j: int, R: float, z1: complex, cfg: WosConfig
) -> WosEstimate:
    """Monte Carlo estimate of the harmonic measure of S(0,R) ∩ ∂(D_j ∩ B(0,R))
    at z1.

    Reproducible: walk i draws from a Philox stream keyed by
    (seed, i), and every surviving walk consumes exactly one draw per
    synchronized round, so the result does not depend on scheduling.
    Ties in the absorption classification go to the path boundary, which
    can only lower the estimate.
    """
    z1 = complex(z1)
    if R <= 0:
        raise ValueError("R must be > 0")
    if abs(z1) >= R or not point_in_domain(sys, j, z1):
        raise StartOutsideDomainError("start point is outside the clipped domain")
    segs = _boundary_segments(sys, j, R)
    shell = cfg.eps_shell * R
    d0 = min(float(_path_distance(np.array([z1]), segs)[0]), R - abs(z1))
    if d0 <= shell:
        raise StartOutsideDomainError(
            "start point is within the absorption shell of the boundary"
        )

    n = cfg.n_walks
    gens = [Generator(Philox(key=[cfg.seed, i])) for i in range(n)]
    buf = np.empty((n, _BLOCK))
    for i, g in enumerate(gens):
        buf[i] = g.uniform(0.0, 2.0 * math.pi, _BLOCK)

    pos = np.full(n, z1, dtype=complex)
    alive = np.arange(n)
    hits = 0
    for step in range(cfg.max_steps):
        p = pos[alive]
        d_path = _path_distance(p, segs)
        d_circ = R - np.abs(p)
        rad = np.minimum(d_path, d_circ)
        absorbed = rad < shell
        if absorbed.any():
            hits += int(np.sum(d_circ[absorbed] < d_path[absorbed]))
            alive = alive[~absorbed]
            if alive.size == 0:
                break
            p = pos[alive]
            rad = rad[~absorbed]
        # every live walk has drawn once per round, so all sit at one column
        col = step % _BLOCK
        if step and col == 0:
            for i in alive:
                buf[i] = gens[i].uniform(0.0, 2.0 * math.pi, _BLOCK)
        theta = buf[alive, col]
        pos[alive] = p + rad * np.exp(1j * theta)
    truncated = int(alive.size)
    omega_hat = hits / n
    ci = 1.96 * math.sqrt(omega_hat * (1.0 - omega_hat) / n)
    warning = None
    if truncated / n >= 0.01:
        warning = "%d of %d walks hit the step cap; estimate is biased low" % (
            truncated,
            n,
        )
    return WosEstimate(omega_hat, ci, hits, truncated, warning)
