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

The walks run in a pool of at most _BLOCK live walks.  Each kernel call
draws the next block of 4 for every live walk, at the walk's own counter.
At every round where the blocks run out the free slots take the next walk
indices in order, each new walk starting at counter 1, so all live walks
share one lane while their counters differ.  A kernel call keeps about a
dozen uint64 temporaries alive; over 100 000 walks at once each would take
800 KB and together they would spill out of L2, while 16 384 walks need
128 KB each and stay inside a 2 MB L2.  A call also has a fixed cost of
about 2 000 walks' blocks, so once every walk has started, a pool of at
most _BLOCK // 16 walks draws k blocks per call, up to _BLOCK // 8 (walk,
counter) pairs.  Memory is O(_BLOCK) however many walks run.  A walk's
draws and moves depend only on its own index and move count, and the hit
and truncation counts are integer sums over walks, so neither the pool nor
k ever changes a bit.  Each round turns only the lane in use into angles,
so the draws of walks absorbed before their lane comes up are never
converted.
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
# Live walks in the pool, chosen by measurement: the dozen uint64 temporaries
# of a kernel call, 128 KB each, fit a 2 MB L2 cache together.
_BLOCK = 16384
_MAX_WALKS = 10**7  # largest n_walks: it bounds the run time, 16–19 s on 2 cores


class StartOutsideDomainError(ValueError):
    """Start point fails the domain membership or clearance check."""


@dataclass(frozen=True)
class WosConfig:
    n_walks: int
    eps_shell: float = 1e-4
    max_steps: int = 100_000
    seed: int = 0

    def __post_init__(self):
        # bool is an int subclass, and a float seed would be truncated
        for name in ("n_walks", "max_steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError("%s must be an integer, not %r" % (name, value))
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
    pairs; each terminal ray from a is cut at length 2R + |a| + 1, past
    radius R, where walks confined to |p| < R cannot tell it from a ray.
    Raises ValueError where a squared segment length, which _path_distance
    divides by, is not finite: from R near 6.7e153 on."""
    g1, g2 = sys.domain_boundary(j)
    segs = []
    for g in (g1,) if g2 is g1 else (g1, g2):
        a = g.vertices[-1]
        segs += zip(g.vertices, g.vertices[1:])
        segs.append((a, a + (2.0 * R + abs(a) + 1.0) * g.terminal_direction))
    segs = np.array(segs, dtype=complex)
    d = segs[:, 1] - segs[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite((d * d.conjugate()).real).all():
            raise ValueError("R = %g is too large: a boundary segment's squared length overflows" % R)
    return segs


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
        # t into [0, 1] by two ufunc calls, which cost less than np.clip's wrapper
        np.maximum(t, 0.0, out=t)
        np.minimum(t, 1.0, out=t)
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


def _philox_words(counters: np.ndarray, seed: int, walks: np.ndarray) -> np.ndarray:
    """Draws 4(c−1) … 4c−1 of each walk's stream as raw words, c the walk's
    entry of the uint64 array `counters`: a (4, len(walks)) uint64 array
    whose row k is lane k of Philox4x64-10 at counter (c, 0, 0, 0) under
    key (seed, walk).

    Round 0 maps (c, 0, 0, 0) to (seed, 0, hi(M0·c) ^ walk, lo(M0·c)); the
    words that depend only on the seed stay Python ints."""
    seed = int(seed)
    s_hi, s_lo = divmod(_PHILOX_M0 * seed, 2**64)
    m0, m1, w1 = np.uint64(_PHILOX_M0), np.uint64(_PHILOX_M1), np.uint64(_PHILOX_W1)
    # round 1, under key (seed + W0, walk + W1)
    x2 = _mulhi(_PHILOX_M0, counters)
    x2 ^= walks
    x0 = _mulhi(_PHILOX_M1, x2)
    x0 ^= np.uint64((seed + _PHILOX_W0) & _MASK64)
    x1 = x2 * m1
    k1 = walks + w1
    x2 = counters * m0
    x2 ^= k1
    x2 ^= np.uint64(s_hi)
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
    return np.stack((x0, x1, x2, x3))


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
    (seed, i) (see the module docstring), and move m of a walk uses its
    draw m, so the result depends only on (seed, n_walks) and the geometry.
    The seed lies in [0, 2**63).  The walks run in a pool of at most _BLOCK
    live walks, refilled in index order every 4 rounds, and absorbed walks
    are dropped from the position, radius and draw arrays, so memory is
    O(live walks) and draws are made only for live walks, in blocks of 4.
    A walk whose own move count reaches max_steps is truncated.
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
    walks = np.empty(0, dtype=np.uint64)  # key word 1 of each live walk, ascending
    pos = np.empty(0, dtype=complex)
    # (first walk, entry round) of each refill that may still hold live
    # walks, oldest first; a refill's walks sit at one counter and together
    # reach the step cap at round entry + max_steps
    cohorts = []
    started = hits = truncated = 0
    t = t_block = t_next = 0  # the current block of draws serves rounds t_block … t_next − 1
    while started < n or walks.size:
        fresh = t == t_next
        if fresh and walks.size < _BLOCK and started < n:
            free = min(_BLOCK - walks.size, n - started)
            cohorts.append((started, t))
            walks = np.concatenate((walks, np.arange(started, started + free, dtype=np.uint64)))
            pos = np.concatenate((pos, np.full(free, z1)))
            started += free
        if cohorts and cohorts[0][1] == t - cfg.max_steps:
            # the oldest refill's walks lead the arrays
            del cohorts[0]
            cut = int(np.searchsorted(walks, np.uint64(cohorts[0][0]))) if cohorts else walks.size
            truncated += cut
            walks, pos = walks[cut:], pos[cut:]
            if not fresh:
                block = block[..., cut:]
        d_path = _path_distance(pos, segs)
        d_circ = R - np.abs(pos)
        rad = np.minimum(d_path, d_circ)
        absorbed = rad < shell
        if absorbed.any():
            hits += int(np.count_nonzero(d_circ[absorbed] < d_path[absorbed]))
            idx = np.flatnonzero(~absorbed)
            walks, pos, rad = walks.take(idx), pos.take(idx), rad.take(idx)
            if not fresh:
                block = block.take(idx, axis=-1)
        if fresh:
            # a refill's walks have made t - entry moves, a multiple of 4
            firsts = np.array([w for w, _ in cohorts], dtype=np.uint64)
            sizes = np.diff(np.searchsorted(walks, firsts), append=walks.size)
            counters = np.array([(t - entry) // 4 + 1 for _, entry in cohorts], dtype=np.uint64).repeat(sizes)
            cohorts = [c for c, size in zip(cohorts, sizes) if size]
            # once every walk has started, a small pool draws its next k
            # blocks in one call of up to _BLOCK // 8 (walk, counter) pairs
            k = max(1, _BLOCK // 8 // walks.size) if started == n and walks.size else 1
            counters = (counters + np.arange(k, dtype=np.uint64)[:, None]).ravel()
            block = _philox_words(counters, cfg.seed, np.tile(walks, k)).reshape(4, k, walks.size)
            t_block, t_next = t, t + 4 * k
        r = t - t_block
        pos = pos + rad * np.exp(1j * _angles(block[r % 4, r // 4]))
        t += 1
    omega_hat = hits / n
    ci = 1.96 * math.sqrt(omega_hat * (1.0 - omega_hat) / n)
    warning = None
    if truncated / n >= 0.01:
        warning = "%d of %d walks hit the step cap; estimate is biased low" % (
            truncated,
            n,
        )
    return WosEstimate(omega_hat, ci, hits, truncated, warning)
