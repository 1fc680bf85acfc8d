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

The kernel runs its rounds over consecutive slices of at most _BLOCK live
walks.  A round keeps about a dozen uint64 temporaries alive; over 100 000
walks at once each takes 800 KB and together they spill out of L2, while a
slice of 16 384 walks needs 128 KB each and stays inside a 2 MB L2.  The
words are exact integer arithmetic, so the slicing never changes a bit.
Each round turns only the lane in use into angles, so the draws of walks
absorbed before their lane comes up are never converted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .geometry import PathSystem, point_in_domain

# Philox4x64-10 constants (Random123), as Python ints.  Every array operand
# of the kernel is an np.uint64 array or scalar, so uint64 arithmetic wraps
# modulo 2**64 and no Python int takes part in a promotion, under numpy 1.x
# and 2.x alike; scalar words are reduced modulo 2**64 as Python ints first.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10
_MASK64 = 2**64 - 1
_LOW32 = np.uint64(0xFFFFFFFF)
_U11 = np.uint64(11)
_U32 = np.uint64(32)
_TWO_PI = 2.0 * math.pi
# Walks per kernel slice, chosen by measurement: the dozen uint64 temporaries
# of a slice, 128 KB each, fit a 2 MB L2 cache together.
_BLOCK = 16384
_MAX_WALKS = 10**7  # largest n_walks: the walk arrays peak near 1.3 GB there


class StartOutsideDomainError(ValueError):
    """Start point fails the domain membership or clearance check."""


@dataclass(frozen=True)
class WosConfig:
    n_walks: int
    eps_shell: float = 1e-4
    max_steps: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.n_walks <= _MAX_WALKS:
            raise ValueError("n_walks must lie in [1, %d]" % _MAX_WALKS)
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
    """Distance from each point of `pos` to the nearest boundary segment.

    A domain has 2 segments (rays) or 4 (kinked paths), so the loop runs
    over the segments, each pass on contiguous 1-D arrays over the points:
    a (points × segments) broadcast would run numpy's inner loops over 2–4
    elements per point.  Every value is rounded as in that broadcast: the
    same complex products, foot a + t·d and complex abs, with |d|² from an
    array product, because numpy's scalar complex product can round its
    real part differently from the array loop, which may use an FMA."""
    a_s = segs[:, 0]
    d_s = segs[:, 1] - a_s
    dd_s = (d_s * d_s.conjugate()).real
    best = np.full(pos.shape, np.inf)
    for a, d, dd in zip(a_s, d_s, dd_s):
        t = ((pos - a) * d.conjugate()).real / dd
        np.clip(t, 0.0, 1.0, out=t)
        np.minimum(best, np.abs(pos - (a + t * d)), out=best)
    return best


def _mulhi(m: int, x: np.ndarray) -> np.ndarray:
    """High 64-bit words of the 128-bit products m·x, by a carry chain over
    the 32-bit halves in which every partial sum stays below 2**64."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    lo = x & _LOW32
    hi = x >> _U32
    t = lo * m_hi
    lo *= m_lo
    lo >>= _U32
    t += lo  # m_hi·x_lo + ⌊m_lo·x_lo / 2**32⌋ < 2**64
    np.multiply(hi, m_lo, out=lo)
    hi *= m_hi
    lo += t & _LOW32  # m_lo·x_hi + (t mod 2**32) < 2**64
    t >>= _U32
    hi += t
    lo >>= _U32
    hi += lo
    return hi


def _philox_words(counter: int, seed: int, walks: np.ndarray) -> np.ndarray:
    """Draws 4(counter−1) … 4·counter−1 of each walk's stream as raw words:
    a (4, len(walks)) uint64 array whose row k is lane k of Philox4x64-10
    at counter (counter, 0, 0, 0) under key (seed, walk).

    Round 0 and the word-0 product of round 1 depend only on the counter
    and the seed, so they stay Python ints: round 0 maps (counter, 0, 0, 0)
    to (seed, 0, hi(M0·counter) ^ walk, lo(M0·counter)).  The array rounds
    run over slices of at most _BLOCK walks, one slice after another."""
    seed = int(seed)
    out = np.empty((4, walks.size), dtype=np.uint64)
    c_hi, c_lo = divmod(_PHILOX_M0 * counter, 2**64)
    s_hi, s_lo = divmod(_PHILOX_M0 * seed, 2**64)
    m0, m1, w1 = np.uint64(_PHILOX_M0), np.uint64(_PHILOX_M1), np.uint64(_PHILOX_W1)
    for start in range(0, walks.size, _BLOCK):
        w = walks[start:start + _BLOCK]
        # round 1, under key (seed + W0, walk + W1)
        x2 = w ^ np.uint64(c_hi)
        x0 = _mulhi(_PHILOX_M1, x2)
        x0 ^= np.uint64((seed + _PHILOX_W0) & _MASK64)
        x1 = x2 * m1
        k1 = w + w1
        x2 = k1 ^ np.uint64(s_hi ^ c_lo)
        x3 = np.uint64(s_lo)
        for r in range(2, _PHILOX_ROUNDS):
            # round r uses the key bumped r times by the Weyl constants
            k1 += w1
            hi0 = _mulhi(_PHILOX_M0, x0)
            hi0 ^= x3
            hi0 ^= k1
            hi1 = _mulhi(_PHILOX_M1, x2)
            hi1 ^= x1
            hi1 ^= np.uint64((seed + r * _PHILOX_W0) & _MASK64)
            x0 *= m0
            x2 *= m1
            x0, x1, x2, x3 = hi1, x2, hi0, x0
        out[:, start:start + _BLOCK] = (x0, x1, x2, x3)
    return out


def _angles(words: np.ndarray) -> np.ndarray:
    """Raw words as angles in [0, 2π), as ``Generator.uniform(0, 2π)`` turns
    them: 0.0 + 2π·((x >> 11)·2⁻⁵³), where adding 0.0 to u >= 0 is exact."""
    return _TWO_PI * ((words >> _U11).astype(np.float64) * 2.0**-53)


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
    if not 0 < R < math.inf:
        raise ValueError("R must be finite and > 0")
    if not cmath.isfinite(z1):
        raise ValueError("z1 must be finite")
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
            idx = np.flatnonzero(~absorbed)
            walks = walks.take(idx)
            if walks.size == 0:
                break
            pos, rad = pos.take(idx), rad.take(idx)
            if lane:
                block = block.take(idx, axis=1)
            del idx  # 8 bytes a walk, not to be held through the Philox kernel
        if lane == 0:
            block = _philox_words(step // 4 + 1, cfg.seed, walks)
        pos = pos + rad * np.exp(1j * _angles(block[lane]))
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
