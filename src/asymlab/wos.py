"""Walk-on-spheres estimation of harmonic measure.

For a domain D_j of a path system clipped to the disk of radius R, the
harmonic measure of the circular boundary part S(0,R) seen from z1 equals
the probability that Brownian motion started at z1 exits through the
circle rather than the paths.  Walk-on-spheres samples that exit: jump to
a uniform point of the largest disk around the current point inside the
clipped domain, absorb within eps_shell*R of the boundary, classify by the
nearest boundary feature.

The random angles are numpy's Philox4x64-10 stream computed in array
arithmetic over the live walks (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11): draw k of walk i is lane k mod 4 of
Philox4x64-10 applied to the counter (k//4 + 1, 0, 0, 0) under the key
(seed, i), turned into an angle as ``Generator.uniform(0, 2π)`` does,
0.0 + 2π·((x >> 11)·2⁻⁵³).  That is draw k of
``Generator(Philox(key=[seed, i])).uniform(0, 2π)``, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PathSystem, point_in_domain

# Philox4x64-10 constants (Random123).  Every operand of the kernel is an
# np.uint64 array or scalar, so uint64 arithmetic wraps modulo 2**64 and
# no Python int takes part in a promotion, under numpy 1.x and 2.x alike.
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_U11 = np.uint64(11)
_U32 = np.uint64(32)
_TWO_PI = 2.0 * math.pi


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
        if not 0 <= self.seed < 2**63:
            raise ValueError("seed must lie in [0, 2**63)")


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


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple:
    """High and low 64-bit words of the 128-bit products m·x, from the
    four 32×32-bit partial products."""
    m_lo, m_hi = m & _LOW32, m >> _U32
    x_lo, x_hi = x & _LOW32, x >> _U32
    lh = m_lo * x_hi
    hl = m_hi * x_lo
    mid = ((m_lo * x_lo) >> _U32) + (lh & _LOW32) + (hl & _LOW32)
    hi = m_hi * x_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)
    return hi, m * x


def _philox_angles(counter: int, seed: int, walks: np.ndarray) -> np.ndarray:
    """Draws 4(counter−1) … 4·counter−1 of each walk's stream as angles in
    [0, 2π): a (4, len(walks)) array whose row k is lane k of
    Philox4x64-10 at counter (counter, 0, 0, 0) under key (seed, walk)."""
    x0 = np.full(walks.shape, np.uint64(counter))
    x1 = x2 = x3 = np.zeros_like(x0)
    for r in range(_PHILOX_ROUNDS):
        # round r uses the key bumped r times by the Weyl constants
        k0 = np.uint64((int(seed) + r * _PHILOX_W0) % 2**64)
        k1 = walks + np.uint64(r * _PHILOX_W1 % 2**64)
        hi0, lo0 = _mulhilo(_PHILOX_M0, x0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    u = (np.stack([x0, x1, x2, x3]) >> _U11).astype(np.float64) * 2.0**-53
    return _TWO_PI * u  # numpy's 0.0 + 2π·u; adding 0.0 to u >= 0 is exact


def estimate_harmonic_measure(
    sys: PathSystem, j: int, R: float, z1: complex, cfg: WosConfig
) -> WosEstimate:
    """Monte Carlo estimate of the harmonic measure of S(0,R) ∩ ∂(D_j ∩ B(0,R))
    at z1.

    Reproducible: walk i draws from the Philox4x64-10 stream keyed by
    (seed, i) (see the module docstring), and every surviving walk
    consumes exactly one draw per synchronized round, so the result
    depends only on (seed, n_walks) and the geometry.  The seed lies in
    [0, 2**63).  Absorbed walks are dropped from the position, radius and
    draw arrays, so memory is O(live walks) and draws are made only for
    live walks, one block of 4 every 4 rounds.
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
    walks = np.arange(n, dtype=np.uint64)  # key word 1 of each live walk
    pos = np.full(n, z1, dtype=complex)
    hits = 0
    for step in range(cfg.max_steps):
        # every live walk has drawn once per round, so all sit at one lane
        lane = step % 4
        d_path = _path_distance(pos, segs)
        d_circ = R - np.abs(pos)
        rad = np.minimum(d_path, d_circ)
        absorbed = rad < shell
        if absorbed.any():
            hits += int(np.sum(d_circ[absorbed] < d_path[absorbed]))
            live = ~absorbed
            walks, pos, rad = walks[live], pos[live], rad[live]
            if walks.size == 0:
                break
            if lane:
                block = block[:, live]
        if lane == 0:
            block = _philox_angles(step // 4 + 1, cfg.seed, walks)
        pos = pos + rad * np.exp(1j * block[lane])
    truncated = int(walks.size)
    omega_hat = hits / n
    ci = 1.96 * math.sqrt(omega_hat * (1.0 - omega_hat) / n)
    warning = None
    if truncated / n >= 0.01:
        warning = "%d of %d walks hit the step cap; estimate is biased low" % (
            truncated,
            n,
        )
    return WosEstimate(omega_hat, ci, hits, truncated, warning)
