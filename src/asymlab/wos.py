"""Walk-on-spheres estimation of harmonic measure.

For a domain D_j of a path system clipped to the disk of radius R, the
harmonic measure of the circular boundary part S(0,R) seen from z1 equals
the probability that Brownian motion started at z1 exits through the
circle rather than the paths.  Walk-on-spheres samples that exit: jump to
a uniform point of the largest disk around the current point inside the
clipped domain, absorb within eps_shell*R of the boundary, classify by the
nearest boundary feature.

The random steps come from numpy's Philox4x64-10 stream computed in array
arithmetic over the live walks (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11): draw k of walk i is lane k mod 4 of
Philox4x64-10 applied to the counter (k//4 + 1, 0, 0, 0) under the key
(seed, i), that is raw word k of ``Philox(key=[seed, i])``, bit for bit.
``Generator.uniform(0, 2π)`` would turn it into the angle θ = 2π·m·2⁻⁵³,
m = word >> 11; the walk turns the word itself into the unit step e^{iθ}
(_unit_steps) and keeps its positions as two float64 arrays x and y, whose
distances (_distances) take a root of a sum of squares.  The walk's
arithmetic is IEEE + − × ÷ √ alone, correctly rounded in every numpy loop,
SIMD or not, so for the same path-system doubles an estimate has the same
bits on every IEEE-754 numpy build.

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
counter) pairs.  Memory is O(_BLOCK) however many walks run, and 10⁷
walks take about 9.5 s on a 2-core Xeon.  A walk's
draws and moves depend only on its own index and move count, and the hit
and truncation counts are integer sums over walks, so neither the pool nor
k ever changes a bit.  A block of draws stays fixed until the next kernel
call: absorptions compact an index of each live walk's column into it.
Each round turns only the lane in use into steps, so the draws of walks
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
_U6 = np.uint64(6)
_U32 = np.uint64(32)
_U58 = np.uint64(58)
_TWO_PI = 2.0 * math.pi

# Unit steps (_unit_steps): bits 57..11 of a word, the low 47 bits of
# m = word >> 11, as the mantissa of a double in [1, 2).
_OFFSET_BITS = np.uint64((2**47 - 1) << 5)
_ONE_BITS = np.uint64(0x3FF0000000000000)
# Taylor coefficients of sin x of x³, x⁵, x⁷ and of cos x − 1 of x², …, x⁸
_SIN_TAYLOR = (-1.0 / 6.0, 1.0 / 120.0, -1.0 / 5040.0)
_COS_TAYLOR = (-0.5, 1.0 / 24.0, -1.0 / 720.0, 1.0 / 40320.0)
# cos(π(2k + 1)/64) for k = 0 … 15, correctly rounded: the cosines of the
# first quadrant's 16 cell centres, whose sines are the same list reversed
_QUADRANT_COS = np.array([float.fromhex(h) for h in (
    "0x1.ff621e3796d7ep-1", "0x1.fa7557f08a517p-1", "0x1.f0a7efb9230d7p-1", "0x1.e212104f686e5p-1",
    "0x1.ced7af43cc773p-1", "0x1.b728345196e3ep-1", "0x1.9b3e047f38741p-1", "0x1.7b5df226aafafp-1",
    "0x1.57d69348ceca0p-1", "0x1.30ff7fce17035p-1", "0x1.073879922ffeep-1", "0x1.b5d1009e15cc0p-2",
    "0x1.58f9a75ab1fddp-2", "0x1.f19f97b215f1bp-3", "0x1.2c8106e8e613ap-3", "0x1.91f65f10dd814p-5",
)])
# the 64 cell centres π(2c + 1)/64: each quarter turn maps (cos, sin) to (−sin, cos)
_CELL_COS = np.concatenate((_QUADRANT_COS, -_QUADRANT_COS[::-1], -_QUADRANT_COS, _QUADRANT_COS[::-1]))
_CELL_SIN = np.concatenate((_QUADRANT_COS[::-1], _QUADRANT_COS, -_QUADRANT_COS[::-1], -_QUADRANT_COS))
for _table in (_CELL_COS, _CELL_SIN):
    _table.flags.writeable = False
# Live walks in the pool, chosen by measurement: the dozen uint64 temporaries
# of a kernel call, 128 KB each, fit a 2 MB L2 cache together.
_BLOCK = 16384
_MAX_WALKS = 10**7  # largest n_walks: it bounds the run time, about 9.5 s on a 2-core Xeon


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


def _boundary_segments(sys: PathSystem, j: int, R: float, scale: float = 1.0) -> list:
    """Both bounding polylines of D_j, in coordinates multiplied by the power
    of two `scale`, as segments (ax, ay, dx, dy, dd) of Python floats: start
    a, direction d = end − a and dd = dx² + dy².  Each terminal ray from a
    is cut at length 2R + |Re a| + |Im a| + 1 (R scaled too), past radius R,
    where walks confined to |p| < R cannot tell it from a ray.  Raises
    ValueError where dd, which _distances divides by, is not finite: from
    R near 6.7e153 on."""
    g1, g2 = sys.domain_boundary(j)
    segs = []
    for g in (g1,) if g2 is g1 else (g1, g2):
        vs = [(v.real * scale, v.imag * scale) for v in g.vertices]
        ends = [(v, w[0] - v[0], w[1] - v[1]) for v, w in zip(vs, vs[1:])]
        a, u = vs[-1], g.terminal_direction
        cut = 2.0 * R * scale + abs(a[0]) + abs(a[1]) + 1.0
        ends.append((a, cut * u.real, cut * u.imag))
        for (ax, ay), dx, dy in ends:
            dd = dx * dx + dy * dy
            if not math.isfinite(dd):
                raise ValueError("R = %g is too large: a boundary segment's squared length overflows" % R)
            segs.append((ax, ay, dx, dy, dd))
    return segs


def _distances(x: np.ndarray, y: np.ndarray, segs: list, R: float):
    """Distances from each point (x, y) to the nearest boundary segment and
    to the circle of radius R, in IEEE `+ − × ÷ √` alone, so every value is
    the same on every machine: the foot of a segment is a + t·d with t the
    projection q·d / dd clipped to [0, 1], q = p − a, and the distance the
    root of the least |q − t·d|² (the root is monotone, so the least root is
    the root of the least square); the circle's is R − √(x² + y²).

    A domain has 2 segments (rays) or 4 (kinked paths), so the loop runs
    over the segments, each pass on contiguous 1-D arrays over the points:
    a (points × segments) broadcast would run numpy's inner loops over 2–4
    elements per point."""
    best = None
    for ax, ay, dx, dy, dd in segs:
        qx = x - ax
        qy = y - ay
        t = qx * dx
        t += qy * dy
        t /= dd
        # t into [0, 1] by two ufunc calls, which cost less than np.clip's wrapper
        np.maximum(t, 0.0, out=t)
        np.minimum(t, 1.0, out=t)
        qx -= t * dx
        qy -= t * dy
        qx *= qx
        qy *= qy
        qx += qy
        best = qx if best is None else np.minimum(best, qx, out=best)
    d_circ = x * x
    d_circ += y * y
    np.sqrt(d_circ, out=d_circ)
    np.subtract(R, d_circ, out=d_circ)
    return np.sqrt(best, out=best), d_circ


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


def _horner(x2: np.ndarray, coeffs: tuple) -> np.ndarray:
    """Σ coeffs[k]·x2^(k+1), by Horner's rule from the last coefficient."""
    acc = x2 * coeffs[-1]
    for c in coeffs[-2::-1]:
        acc += c
        acc *= x2
    return acc


def _unit_steps(words: np.ndarray):
    """Raw words as unit vectors (ux, uy) ≈ e^{iθ}, θ = 2π·m·2⁻⁵³ with
    m = word >> 11, in IEEE `+ − ×` alone.  The top 6 bits of m pick one of
    64 cells of width π/32; the low 47 bits r give the offset from the cell
    centre, x = (r − 2⁴⁶)·2⁻⁴⁷·(π/32), built exactly as a double in [1, 2)
    less 1.5 and rounded once by the product.  On |x| ≤ π/64 four-term
    Taylor polynomials give sin x and cos x − 1, and the cell centre's
    (c, s) from the literal table rotates them:
    ux = c + (c·(cos x − 1) − s·sin x), uy = s + (s·(cos x − 1) + c·sin x).
    Over 10⁵ words a step lies within 1.5e-16 of e^{iθ}."""
    cell = (words >> _U58).view(np.int64)
    bits = words >> _U6
    bits &= _OFFSET_BITS
    bits |= _ONE_BITS
    x = bits.view(np.float64)
    x -= 1.5
    x *= _TWO_PI / 64.0
    x2 = x * x
    sin_x = _horner(x2, _SIN_TAYLOR)
    sin_x *= x
    sin_x += x
    cos_m1 = _horner(x2, _COS_TAYLOR)
    cos_c = _CELL_COS.take(cell)
    sin_c = _CELL_SIN.take(cell)
    ux = cos_c * cos_m1
    ux -= np.multiply(sin_c, sin_x, out=x2)
    ux += cos_c
    cos_m1 *= sin_c
    cos_m1 += np.multiply(cos_c, sin_x, out=x2)
    cos_m1 += sin_c
    return ux, cos_m1


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
    are dropped from the position and radius arrays and from the index of
    columns into the draws, so memory is O(live walks) and draws are made
    only for live walks, in blocks of 4.
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
    # Far below R = 1 the squared distances near the shell would underflow,
    # so there the walk runs in coordinates scaled by 2**600, exactly.
    scale = 2.0**600 if R < 2.0**-300 else 1.0
    segs = _boundary_segments(sys, j, R, scale)
    R, z1 = R * scale, complex(z1.real * scale, z1.imag * scale)
    shell = cfg.eps_shell * R
    d_path, d_circ = _distances(np.array([z1.real]), np.array([z1.imag]), segs, R)
    if min(d_path[0], d_circ[0]) <= shell:
        raise StartOutsideDomainError(
            "start point is within the absorption shell of the boundary"
        )

    n = cfg.n_walks
    walks = np.empty(0, dtype=np.uint64)  # key word 1 of each live walk, ascending
    x = y = np.empty(0)
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
            x = np.concatenate((x, np.full(free, z1.real)))
            y = np.concatenate((y, np.full(free, z1.imag)))
            started += free
        if cohorts and cohorts[0][1] == t - cfg.max_steps:
            # the oldest refill's walks lead the arrays
            del cohorts[0]
            cut = int(np.searchsorted(walks, np.uint64(cohorts[0][0]))) if cohorts else walks.size
            truncated += cut
            walks, x, y, cols = walks[cut:], x[cut:], y[cut:], cols[cut:]
        d_path, d_circ = _distances(x, y, segs, R)
        rad = np.minimum(d_path, d_circ)
        absorbed = rad < shell
        if absorbed.any():
            hits += int(np.count_nonzero(d_circ[absorbed] < d_path[absorbed]))
            idx = np.flatnonzero(~absorbed)
            walks, x, y, rad = walks.take(idx), x.take(idx), y.take(idx), rad.take(idx)
            if not fresh:
                cols = cols.take(idx)
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
            # each live walk's column of the block, compacted as walks leave
            cols = np.arange(walks.size)
            t_block, t_next = t, t + 4 * k
        r = t - t_block
        ux, uy = _unit_steps(block[r % 4, r // 4].take(cols))
        ux *= rad
        x += ux
        uy *= rad
        y += uy
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
