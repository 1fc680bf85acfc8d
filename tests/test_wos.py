import cmath
import functools
import hashlib
import math
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from mpmath.libmp import from_float, from_int, mpf_cos_sin, mpf_mul, mpf_pi, mpf_shift, mpf_sub, to_float
from numpy.random import Generator, Philox

from asymlab import wos
from asymlab.geometry import PathSystem, SegmentalPath, carleman_integral
from asymlab.wos import (
    StartOutsideDomainError,
    WosConfig,
    WosEstimate,
    _boundary_segments,
    _distances,
    _philox_words,
    _unit_steps,
    _walk_range,
    estimate_harmonic_measure,
)

from conftest import domain_probe_point, make_random_system


def quarter_plane_omega(z: complex, R: float) -> float:
    """Harmonic measure of the circular arc in the quarter disk of radius
    R, seen from z: the map w = (z/R)^2 takes it to the upper half disk,
    and a Moebius + log composition gives the closed form."""
    w = (z / R) ** 2
    return (2.0 / math.pi) * cmath.phase((1 + w) / (1 - w))


def sector_omega(z: complex, R: float, theta0: float, width: float) -> float:
    """Harmonic measure of the arc |z| = R of the sector theta0 < arg z <
    theta0 + width: w = (e^{-i theta0} z/R)^{π/width} maps the sector to
    the upper half disk, as in quarter_plane_omega."""
    w = (cmath.exp(-1j * theta0) * z / R) ** (math.pi / width)
    return (2.0 / math.pi) * cmath.phase((1 + w) / (1 - w))


QSYS = PathSystem((SegmentalPath.ray(0.0), SegmentalPath.ray(math.pi / 2)))


def test_config_validation():
    with pytest.raises(ValueError):
        WosConfig(0)
    with pytest.raises(ValueError):
        WosConfig(10, eps_shell=0.5)
    with pytest.raises(ValueError):
        WosConfig(10, max_steps=3)
    with pytest.raises(ValueError):
        WosEstimate(1.5, 0.0, 0, 0)
    # Philox key words are 64-bit; seeds at or above 2**63 used to alias
    # other seeds, and -1 ran as 2**64 - 1
    for seed in (-1, 2**63, 2**63 + 1, 2**64 - 1, 2**64):
        with pytest.raises(ValueError):
            WosConfig(10, seed=seed)
    assert WosConfig(10, seed=2**63 - 1).seed == 2**63 - 1
    # a walk count past 10**7 used to fail in numpy's allocator instead
    for n_walks in (10**7 + 1, 10**11):
        with pytest.raises(ValueError, match="n_walks"):
            WosConfig(n_walks)
    assert WosConfig(10**7).n_walks == 10**7


@pytest.mark.parametrize("value", [2.5, 100.0, True, "100", None])
def test_config_n_walks_must_be_integer(value):
    # 2.5 used to pass and fail later inside np.full
    with pytest.raises(ValueError, match="n_walks"):
        WosConfig(value)


@pytest.mark.parametrize("value", [1000.5, 1000.0, True])
def test_config_max_steps_must_be_integer(value):
    with pytest.raises(ValueError, match="max_steps"):
        WosConfig(10, max_steps=value)


@pytest.mark.parametrize("value", [1.5, 1.0, True, False])
def test_config_seed_must_be_integer(value):
    # seed 1.5 used to run silently as seed 1
    with pytest.raises(ValueError, match="seed"):
        WosConfig(10, seed=value)
    # numpy integers are integers
    assert WosConfig(np.int64(10), seed=np.uint32(3)).seed == 3


def test_start_outside_raises():
    with pytest.raises(StartOutsideDomainError):
        estimate_harmonic_measure(QSYS, 1, 4.0, -1 + 1j, WosConfig(100))
    with pytest.raises(StartOutsideDomainError):  # outside the disk
        estimate_harmonic_measure(QSYS, 1, 4.0, 5 + 5j, WosConfig(100))
    with pytest.raises(StartOutsideDomainError):  # inside the shell
        estimate_harmonic_measure(
            QSYS, 1, 4.0, 4.0 * (1 - 1e-5) * cmath.exp(1j * 0.7), WosConfig(100)
        )


def test_non_finite_radius_or_start_raises():
    # R = nan used to run every round of every walk and return 0
    for R, z1 in ((math.nan, 1 + 1j), (math.inf, 1 + 1j), (4.0, complex(math.nan, 1.0))):
        with pytest.raises(ValueError, match="finite"):
            estimate_harmonic_measure(QSYS, 1, R, z1, WosConfig(10))


def test_determinism_bit_identical():
    cfg = WosConfig(n_walks=3000, seed=123)
    z1 = 1.2 * cmath.exp(1j * math.pi / 4)
    a = estimate_harmonic_measure(QSYS, 1, 6.0, z1, cfg)
    b = estimate_harmonic_measure(QSYS, 1, 6.0, z1, cfg)
    assert a == b


def test_near_circle_sanity():
    z1 = 6.0 * (1 - 0.01) * cmath.exp(1j * math.pi / 4)
    est = estimate_harmonic_measure(QSYS, 1, 6.0, z1, WosConfig(2000, seed=5))
    assert est.omega_hat > 0.4


def test_quarter_plane_oracle_moderate():
    R = 8.0
    z1 = (R / 16) * cmath.exp(1j * math.pi / 4)
    est = estimate_harmonic_measure(QSYS, 1, R, z1, WosConfig(20000, seed=9))
    assert abs(est.omega_hat - quarter_plane_omega(z1, R)) <= 3.0 * est.ci95_halfwidth
    assert est.hits == round(est.omega_hat * 20000)


def test_monotone_along_ray():
    R = 8.0
    cfg = WosConfig(20000, seed=11)
    estimates = [
        estimate_harmonic_measure(
            QSYS, 1, R, r * cmath.exp(1j * math.pi / 4), cfg
        )
        for r in (1.0, 3.0, 6.0)
    ]
    for a, b in zip(estimates, estimates[1:]):
        slack = 3.0 * math.hypot(a.ci95_halfwidth, b.ci95_halfwidth)
        assert b.omega_hat >= a.omega_hat - slack


def test_seed_independence_of_mean():
    R = 8.0
    z1 = 2.0 * cmath.exp(1j * math.pi / 4)
    a = estimate_harmonic_measure(QSYS, 1, R, z1, WosConfig(20000, seed=100))
    b = estimate_harmonic_measure(QSYS, 1, R, z1, WosConfig(20000, seed=200))
    slack = 3.0 * math.hypot(a.ci95_halfwidth, b.ci95_halfwidth)
    assert abs(a.omega_hat - b.omega_hat) <= slack


def test_dominated_by_carleman_on_random_system():
    sysm = make_random_system(17)
    R = 8.0
    z1 = domain_probe_point(sysm, 1, 1.0)
    est = estimate_harmonic_measure(sysm, 1, R, z1, WosConfig(20000, seed=3))
    bound = (8.0 / math.pi) * math.exp(
        -math.pi * carleman_integral(sysm, 1, abs(z1), R, tol=1e-8)
    )
    assert est.omega_hat <= bound + 3.0 * est.ci95_halfwidth


@pytest.mark.filterwarnings("error")
def test_huge_radius_scales_or_raises():
    """Two rays, scaled with R: a terminal ray's squared length 4R² is
    finite up to R near 6.7e153, and the estimate is R = 8's.  Beyond,
    the distances used to fall back to the segment's start point and the
    estimate read 0.8987 instead of 0.3338."""
    rays = PathSystem.equally_spaced_rays(2)  # domain 1: the lower half plane
    cfg = WosConfig(20000, seed=7)
    want = estimate_harmonic_measure(rays, 1, 8.0, 2 - 2j, cfg)
    assert abs(want.omega_hat - sector_omega(2 - 2j, 8.0, math.pi, math.pi)) <= 3.0 * want.ci95_halfwidth
    got = estimate_harmonic_measure(rays, 1, 6.6e153, (2 - 2j) * 6.6e153 / 8, cfg)
    assert repr(got) == repr(want)
    for R in (6.8e153, 9e153, 1e300):
        with pytest.raises(ValueError, match=re.escape("R = %g" % R)):
            estimate_harmonic_measure(rays, 1, R, (2 - 2j) * R / 8, cfg)


def test_tiny_radius_scales():
    """Two rays, scaled with R down to 2**-1000: the estimate is R = 8's.
    Below R = 2**-300 the walk runs in coordinates scaled by 2**600; in
    plain coordinates the squared distances would underflow, and from R
    near 1e-200 on the start point would read as inside the shell."""
    rays = PathSystem.equally_spaced_rays(2)
    cfg = WosConfig(20000, seed=7)
    want = estimate_harmonic_measure(rays, 1, 8.0, 2 - 2j, cfg)
    for R in (1e-80, 1e-100, 1e-200, 1e-300, 2.0**-1000):
        got = estimate_harmonic_measure(rays, 1, R, (2 - 2j) * R / 8, cfg)
        assert repr(got) == repr(want), R


# --- the Philox stream --------------------------------------------------------

def uniform_angles(words):
    """Raw words as angles in [0, 2π), as ``Generator.uniform(0, 2π)`` turns
    them: 0.0 + 2π·((x >> 11)·2⁻⁵³), where adding 0.0 to u >= 0 is exact."""
    return 2.0 * math.pi * ((words >> np.uint64(11)).astype(np.float64) * 2.0**-53)


@pytest.mark.filterwarnings("error")  # a uint64 scalar overflow warning fails
@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 + 3, 2**63 - 1])
def test_philox_kernel_matches_numpy_stream(seed):
    walks = np.array([0, 1, 63, 64, 2**32 + 1], dtype=np.uint64)
    got = np.concatenate(
        [uniform_angles(_philox_words(np.full(walks.size, c, dtype=np.uint64), seed, walks)) for c in range(1, 17)]
    )
    assert got.shape == (64, walks.size)
    for col, i in enumerate(walks.tolist()):
        want = Generator(Philox(key=[seed, i])).uniform(0.0, 2.0 * math.pi, 64)
        assert got[:, col].tobytes() == want.tobytes()


# seed + W0 wraps past 2**64 in the first key bump
WRAP_SEED = 2**64 - wos._PHILOX_W0 + 12345


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 2**63 - 1, WRAP_SEED])
@pytest.mark.parametrize("counter", [1, 2, 25_001, 2**32 + 1])
def test_philox_kernel_block_edges(seed, counter):
    """Increasing walk indices with gaps, as after absorptions, that cross
    2**32, all at one counter.  Counter 25 001 is one past the last that
    the default 100 000-step cap uses."""
    B = wos._BLOCK
    gaps = np.random.default_rng(counter).integers(1, 2**18, 2 * B + 7, dtype=np.uint64)
    walks = np.uint64(2**31) + np.cumsum(gaps, dtype=np.uint64)  # near 2**32 at walks[B]
    assert walks[0] < 2**32 < walks[-1]
    words = _philox_words(np.full(walks.size, counter, dtype=np.uint64), seed, walks)
    angles = uniform_angles(words)
    assert words.shape == angles.shape == (4, walks.size)
    for col in sorted({0, 1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 2 * B + 6}):
        bits = Philox(key=[seed, int(walks[col])])
        bits.advance(counter - 1)
        assert words[:, col].tobytes() == bits.random_raw(4).tobytes()
        bits = Philox(key=[seed, int(walks[col])])
        bits.advance(counter - 1)
        want = Generator(bits).uniform(0.0, 2.0 * math.pi, 4)
        assert angles[:, col].tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [0, 2**63 - 1, WRAP_SEED])
def test_philox_kernel_mixed_counters(seed):
    """One call whose walks sit at different counters, as in a refilled
    pool: each column is its own walk's stream at its own counter."""
    rng = np.random.default_rng(7)
    walks = np.sort(rng.choice(2**33, 64, replace=False)).astype(np.uint64)
    counters = np.array([1, 2, 25_001, 2**32 + 1], dtype=np.uint64)[rng.permutation(64) % 4]
    words = _philox_words(counters, seed, walks)
    assert words.shape == (4, 64)
    for col in range(64):
        bits = Philox(key=[seed, int(walks[col])])
        bits.advance(int(counters[col]) - 1)
        assert words[:, col].tobytes() == bits.random_raw(4).tobytes()


# --- unit steps -----------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def cell_centres():
    """(cos, sin) of the 64 cell centres π(2c + 1)/64, correctly rounded
    from 40-digit mpmath values."""
    with mpmath.workdps(40):
        return tuple(
            np.array([float(f(mpmath.pi * (2 * c + 1) / 64)) for c in range(64)])
            for f in (mpmath.cos, mpmath.sin)
        )


def reference_unit_steps(words):
    """The documented map from words to unit steps by a second route: m =
    word >> 11 as an integer, the offset x = (r − 2⁴⁶)·(2π·2⁻⁵³) from an
    exact integer-to-float conversion, and the cell table from mpmath."""
    m = words >> np.uint64(11)
    cos_c, sin_c = (tab[(m >> np.uint64(47)).astype(np.intp)] for tab in cell_centres())
    x = ((m & np.uint64(2**47 - 1)).astype(np.float64) - 2.0**46) * (2.0 * math.pi * 2.0**-53)
    x2 = x * x
    sin_x = x + x * (x2 * (-1.0 / 6.0 + x2 * (1.0 / 120.0 + x2 * (-1.0 / 5040.0))))
    cos_m1 = x2 * (-0.5 + x2 * (1.0 / 24.0 + x2 * (-1.0 / 720.0 + x2 * (1.0 / 40320.0))))
    return cos_c + (cos_c * cos_m1 - sin_c * sin_x), sin_c + (sin_c * cos_m1 + cos_c * sin_x)


def oracle_words():
    """10⁵ Philox words, words 0 and 2⁶⁴ − 1, and each cell's two edges and
    centre, the upper edge with the 11 discarded bits set."""
    m = np.arange(64, dtype=np.uint64) << np.uint64(47)
    edges = np.concatenate([m << np.uint64(11), ((m + np.uint64(2**47 - 1)) << np.uint64(11)) | np.uint64(0x7FF)])
    centres = (m + np.uint64(2**46)) << np.uint64(11)
    words = np.concatenate([Philox(24).random_raw(10**5), np.array([0, 2**64 - 1], dtype=np.uint64), edges, centres])
    return words, centres


def test_cell_table_is_correctly_rounded():
    with mpmath.workdps(40):
        for c in range(64):
            theta = mpmath.pi * (2 * c + 1) / 64
            for got, want in ((wos._CELL_COS[c], mpmath.cos(theta)), (wos._CELL_SIN[c], mpmath.sin(theta))):
                assert abs(mpmath.mpf(float(got)) - want) <= math.ulp(got) / 2, (c, got)


def test_unit_step_oracle():
    """Each step lies within 3e-16 of e^{iθ}, θ = 2π·m·2⁻⁵³, and its modulus
    within 2.3e-16 of 1 (1.46e-16 and 1.42e-16 measured at most over these
    words): per component, half an ulp of the table entry and the final
    rounding bound the error by about 1.7e-16.  At a cell centre x = 0 and
    the step is the table entry."""
    words, centres = oracle_words()
    ux, uy = _unit_steps(words)
    want_x, want_y = reference_unit_steps(words)
    assert ux.tobytes() == want_x.tobytes() and uy.tobytes() == want_y.tobytes()
    cx, cy = _unit_steps(centres)
    assert cx.tobytes() == wos._CELL_COS.tobytes() and cy.tobytes() == wos._CELL_SIN.tobytes()
    prec = 80
    scale = mpf_shift(mpf_pi(prec), -52)  # 2π·2⁻⁵³
    ex, ey = [], []
    worst_modulus = 0.0
    for w, x, y in zip(words.tolist(), ux.tolist(), uy.tolist()):
        c, s = mpf_cos_sin(mpf_mul(scale, from_int(w >> 11), prec), prec)
        ex.append(to_float(mpf_sub(from_float(x), c, prec)))
        ey.append(to_float(mpf_sub(from_float(y), s, prec)))
        # |u|² − 1 exactly, as a ratio of integers; |u| − 1 is half of it
        # to within a relative 1e-15
        (nx, dx), (ny, dy) = x.as_integer_ratio(), y.as_integer_ratio()
        k = max(dx, dy)
        excess = (nx * (k // dx)) ** 2 + (ny * (k // dy)) ** 2 - k * k
        worst_modulus = max(worst_modulus, abs(excess / (k * k)) / 2)
    assert np.hypot(ex, ey).max() <= 3e-16
    assert worst_modulus <= 2.3e-16
    digest = hashlib.sha256(ux.tobytes() + uy.tobytes()).hexdigest()
    assert digest == "e780f36312cc0e22e9ac87021785f2acb44f154855c60b855f7d5b581fe88128"


# --- the distance kernel ------------------------------------------------------

def broadcast_distances(x, y, segs, R):
    """The (points × segments) broadcast form of _distances, with the root
    taken before the least: a reference for its bits."""
    ax, ay, dx, dy, dd = (np.array(col)[None, :] for col in zip(*segs))
    qx, qy = x[:, None] - ax, y[:, None] - ay
    t = np.clip((qx * dx + qy * dy) / dd, 0.0, 1.0)
    ex, ey = qx - t * dx, qy - t * dy
    return np.sqrt(ex * ex + ey * ey).min(axis=1), R - np.sqrt(x * x + y * y)


@pytest.mark.parametrize(
    "segs",
    [
        pytest.param(_boundary_segments(make_random_system(s), j, 8.0), id="random%d-D%d" % (s, j))
        for s in (0, 17, 1003)
        for j in (1, 2)
    ]
    + [
        pytest.param(_boundary_segments(PathSystem.equally_spaced_rays(n), 1, 8.0), id="rays%d" % n)
        for n in (2, 3, 5)
    ]
    + [pytest.param(_boundary_segments(QSYS, 1, 8.0), id="quarter")],
)
def test_path_distance_matches_broadcast_bits(segs):
    assert len(segs) in (2, 4) and all(len(seg) == 5 for seg in segs)
    rng = np.random.default_rng(len(segs))
    random_pts = rng.uniform(-9.0, 9.0, (2, 5001))
    ax, ay, dx, dy, _ = (np.array(col) for col in zip(*segs))
    t = np.linspace(0.0, 1.0, 33)
    on_segments = np.array([(ax[:, None] + t * dx[:, None]).ravel(), (ay[:, None] + t * dy[:, None]).ravel()])
    starts = np.array([ax, ay])
    for x, y in (random_pts, on_segments, starts, np.array([[0.3], [0.2]])):
        got, want = _distances(x, y, segs, 8.0), broadcast_distances(x, y, segs, 8.0)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
    assert np.all(_distances(ax, ay, segs, 8.0)[0] == 0.0)


def reference_estimate(sys, j, R, z1, cfg):
    """Walk-on-spheres with one numpy Philox(key=[seed, i]) per walk, 64 raw
    words buffered per walk and turned into steps by reference_unit_steps,
    and distances by broadcast_distances: a reference for the array
    kernel's streams, steps and loop.  Returns the estimate and the rounds
    run."""
    segs = _boundary_segments(sys, j, R)
    shell = cfg.eps_shell * R
    n = cfg.n_walks
    gens = [Philox(key=[cfg.seed, i]) for i in range(n)]
    buf = np.array([g.random_raw(64) for g in gens])
    x, y = np.full(n, complex(z1).real), np.full(n, complex(z1).imag)
    alive = np.arange(n)
    hits = 0
    for step in range(cfg.max_steps):
        px, py = x[alive], y[alive]
        d_path, d_circ = broadcast_distances(px, py, segs, R)
        rad = np.minimum(d_path, d_circ)
        absorbed = rad < shell
        if absorbed.any():
            hits += int(np.sum(d_circ[absorbed] < d_path[absorbed]))
            alive = alive[~absorbed]
            if alive.size == 0:
                break
            px, py, rad = px[~absorbed], py[~absorbed], rad[~absorbed]
        col = step % 64
        if step and col == 0:
            for i in alive:
                buf[i] = gens[i].random_raw(64)
        ux, uy = reference_unit_steps(buf[alive, col])
        x[alive] = px + rad * ux
        y[alive] = py + rad * uy
    truncated = int(alive.size)
    omega_hat = hits / n
    ci = 1.96 * math.sqrt(omega_hat * (1.0 - omega_hat) / n)
    warning = None
    if truncated / n >= 0.01:
        warning = "%d of %d walks hit the step cap; estimate is biased low" % (
            truncated,
            n,
        )
    return WosEstimate(omega_hat, ci, hits, truncated, warning), step + 1


@pytest.mark.parametrize(
    "kinked, cfg",
    [
        # small shells keep some walks going past 64 rounds, through the
        # old buffer refill
        (False, WosConfig(2000, eps_shell=1e-12, seed=6)),
        (True, WosConfig(3000, eps_shell=1e-9, seed=1003)),
        # a 1e-20 shell needs more than 100 rounds for many walks
        (False, WosConfig(2000, eps_shell=1e-20, max_steps=100, seed=1)),
    ],
    ids=["quarter-long-walks", "kinked", "step-cap"],
)
def test_matches_per_walk_generator_reference(kinked, cfg):
    sysm, z1 = QSYS, 0.5 * cmath.exp(1j * math.pi / 4)
    if kinked:
        sysm = make_random_system(1003)
        z1 = domain_probe_point(sysm, 1, 1.0)
    want, rounds = reference_estimate(sysm, 1, 8.0, z1, cfg)
    got = estimate_harmonic_measure(sysm, 1, 8.0, z1, cfg)
    assert repr(got) == repr(want)
    assert rounds > 64
    if cfg.max_steps == 100:
        assert got.truncated_walks > 0
        assert "walks hit the step cap" in got.warning


# The estimates' bytes, fixed: the walks use IEEE + − × ÷ √ alone, so they
# hold on every IEEE-754 numpy build, and CI asserts them with numpy's SIMD
# loops switched on and off.  The step-cap estimate's truncation count
# turns on rounding-level distances, so it moves with any change of the
# arithmetic.
@pytest.mark.parametrize(
    "sysm, z1, cfg, want",
    [
        pytest.param(
            QSYS, 2 + 2j, WosConfig(20000, seed=9),
            "WosEstimate(omega_hat=0.1551, ci95_halfwidth=0.005017063842448091, hits=3102, truncated_walks=0, "
            "warning=None)",
            id="quarter",
        ),
        pytest.param(
            PathSystem.equally_spaced_rays(3), -2 + 0j, WosConfig(20000, seed=503),
            "WosEstimate(omega_hat=0.15815, ci95_halfwidth=0.005057000886513665, hits=3163, truncated_walks=0, "
            "warning=None)",
            id="rays3",
        ),
        pytest.param(
            make_random_system(1003), None, WosConfig(20000, seed=1003),
            "WosEstimate(omega_hat=0.1135, ci95_halfwidth=0.004396209437686062, hits=2270, truncated_walks=0, "
            "warning=None)",
            id="random1003",
        ),
        pytest.param(
            QSYS, 0.35 + 0.35j, WosConfig(2000, eps_shell=1e-20, max_steps=100, seed=1),
            "WosEstimate(omega_hat=0.005, ci95_halfwidth=0.0030912748179351512, hits=10, truncated_walks=140, "
            "warning='140 of 2000 walks hit the step cap; estimate is biased low')",
            id="step-cap",
        ),
    ],
)
def test_estimate_bytes_are_pinned(sysm, z1, cfg, want):
    if z1 is None:
        z1 = domain_probe_point(sysm, 1, 1.0)
    assert repr(estimate_harmonic_measure(sysm, 1, 8.0, z1, cfg)) == want


def test_distance_bytes_are_pinned():
    """Distances of 2 000 points to both domains of three kinked systems."""
    digest = hashlib.sha256()
    x, y = np.random.default_rng(14).uniform(-9.0, 9.0, (2, 2000))
    for s in (0, 17, 1003):
        for j in (1, 2):
            for d in _distances(x, y, _boundary_segments(make_random_system(s), j, 8.0), 8.0):
                digest.update(d.tobytes())
    assert digest.hexdigest() == "8fc0cfd1857e9b112e67e2cdd974f07bb6a001a076f75cca590dc839362dde83"


@pytest.mark.parametrize(
    "kinked, cfg",
    [
        (False, WosConfig(3000, eps_shell=1e-9, seed=21)),
        (True, WosConfig(3000, eps_shell=1e-9, seed=1003)),
        (False, WosConfig(2000, eps_shell=1e-20, max_steps=100, seed=1)),
    ],
    ids=["quarter", "kinked", "step-cap"],
)
def test_kernel_slice_size_never_changes_estimate(monkeypatch, kinked, cfg):
    sysm, z1 = QSYS, 0.5 * cmath.exp(1j * math.pi / 4)
    if kinked:
        sysm = make_random_system(1003)
        z1 = domain_probe_point(sysm, 1, 1.0)
    want = estimate_harmonic_measure(sysm, 1, 8.0, z1, cfg)
    sizes, counters_seen = [], []

    def spy(counters, seed, walks):
        sizes.append(walks.size)
        counters_seen.append(np.unique(counters).size)
        return _philox_words(counters, seed, walks)

    monkeypatch.setattr(wos, "_BLOCK", 64)
    monkeypatch.setattr(wos, "_philox_words", spy)
    got = estimate_harmonic_measure(sysm, 1, 8.0, z1, cfg)
    assert repr(got) == repr(want)
    assert max(sizes) <= 64  # the pool never holds more than _BLOCK walks
    assert sum(k >= 2 for k in counters_seen) >= 3  # refills mixed counters
    if cfg.max_steps == 100:
        assert got.truncated_walks > 64


def test_peak_memory_of_large_estimate(monkeypatch):
    """Traced peak of a 100k-walk estimate: 3.30 MB measured with numpy
    2.4 (2.90 MB with complex positions), the same at 400k walks, since at
    most _BLOCK walks are live.  Bounded at 4 MB, a margin of 0.7 MB for
    other numpy builds; with every walk live at once the 100k walks peaked
    at 12.9 MB.  tracemalloc sees only this process, so the estimates run
    as on one core: the whole walk loop then runs here, and the bound
    covers all of it, not just the caller's share of a split."""
    monkeypatch.setattr(wos, "_usable_cores", lambda: 1)
    z1 = 3.0 * cmath.exp(1j * 0.6)
    for n_walks in (100_000, 400_000):
        tracemalloc.start()
        try:
            estimate_harmonic_measure(QSYS, 1, 8.0, z1, WosConfig(n_walks, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, n_walks


# --- walks split over helper processes ------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers are forked")


@pytest.fixture
def two_cores(monkeypatch):
    """Estimates split as on two usable cores, whatever the machine, with
    helpers forked afresh and stopped afterwards: a helper keeps the module
    as it was when it was forked."""
    wos._stop_helpers()
    monkeypatch.setattr(wos, "_usable_cores", lambda: 2)
    yield
    wos._stop_helpers()


def helper_pids():
    return [proc.pid for proc, _ in wos._helpers]


# The split tests turn warnings into errors: a helper forked while another
# thread runs would warn on Python 3.12 and later, and must fail them.
@needs_fork
@pytest.mark.filterwarnings("error")
@pytest.mark.usefixtures("two_cores")
@pytest.mark.parametrize(
    "sysm, z1, cfg",
    [
        pytest.param(QSYS, 3.0 * cmath.exp(1j * 0.6), WosConfig(2 * wos._MIN_PART + 1, seed=3), id="uneven"),
        pytest.param(make_random_system(1003), None, WosConfig(10**5, seed=1003), id="random1003"),
        pytest.param(
            QSYS, 0.35 + 0.35j, WosConfig(2 * wos._MIN_PART, eps_shell=1e-20, max_steps=100, seed=1), id="step-cap"
        ),
    ],
)
def test_split_estimate_matches_one_range(monkeypatch, sysm, z1, cfg):
    if z1 is None:
        z1 = domain_probe_point(sysm, 1, 1.0)
    n = cfg.n_walks
    got = estimate_harmonic_measure(sysm, 1, 8.0, z1, cfg)
    assert len(wos._helpers) == 1
    job = (_boundary_segments(sysm, 1, 8.0), 8.0, z1, cfg.eps_shell * 8.0, cfg)
    assert (got.hits, got.truncated_walks) == _walk_range(*job, 0, n)
    monkeypatch.setattr(wos, "_usable_cores", lambda: 1)
    assert repr(estimate_harmonic_measure(sysm, 1, 8.0, z1, cfg)) == repr(got)
    if cfg.max_steps == 100:  # both ranges truncate walks
        assert _walk_range(*job, 0, n // 2)[1] > 0 and _walk_range(*job, n // 2, n)[1] > 0


SPLIT_CFG = WosConfig(wos._MIN_PART + 1, seed=5)
SPLIT_Z1 = 2 + 2j


@needs_fork
@pytest.mark.filterwarnings("error")
@pytest.mark.usefixtures("two_cores")
def test_helper_is_reused_and_exits_on_eof():
    first = estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, SPLIT_CFG)
    pids = helper_pids()
    assert len(pids) == 1
    assert repr(estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, SPLIT_CFG)) == repr(first)
    assert helper_pids() == pids
    proc, conn = wos._helpers.pop()
    conn.close()
    proc.join(timeout=30)
    assert proc.exitcode == 0


@needs_fork
@pytest.mark.filterwarnings("error")
@pytest.mark.usefixtures("two_cores")
@pytest.mark.parametrize("why", ["one-core", "other-thread", "fork-fails"])
def test_walks_stay_in_caller(monkeypatch, why):
    """On one core, beside another thread, or where fork fails, no helper
    starts and the caller walks every range itself, with the same bytes."""
    cfg = WosConfig(2 * wos._MIN_PART, seed=5)
    want = repr(estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, cfg))
    wos._stop_helpers()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if why == "one-core":
        monkeypatch.setattr(wos, "_usable_cores", lambda: 1)
    elif why == "other-thread":
        thread.start()
    else:
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
    try:
        assert repr(estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, cfg)) == want
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=30)
    assert wos._helpers == []


@needs_fork
@pytest.mark.filterwarnings("error")
@pytest.mark.usefixtures("two_cores")
def test_interrupted_caller_stops_helpers(monkeypatch):
    """An interrupt in the caller's own range, while the helper walks its
    range, stops the helper: the next estimate forks a new one and reads
    no stale reply, which here would come from another seed."""
    want = repr(estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, SPLIT_CFG))
    (proc, _), = wos._helpers

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(wos, "_walk_range", interrupted)
    with pytest.raises(KeyboardInterrupt):
        estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, WosConfig(SPLIT_CFG.n_walks, seed=6))
    assert wos._helpers == [] and proc.exitcode is not None
    monkeypatch.setattr(wos, "_walk_range", _walk_range)
    assert repr(estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, SPLIT_CFG)) == want
    new_pids = helper_pids()
    assert len(new_pids) == 1 and new_pids != [proc.pid]


@needs_fork
@pytest.mark.filterwarnings("error")
@pytest.mark.usefixtures("two_cores")
def test_killed_helper_is_replaced():
    """A helper killed while idle (say by the out-of-memory killer) is
    replaced; the next estimate used to raise BrokenPipeError."""
    want = repr(estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, SPLIT_CFG))
    (proc, _), = wos._helpers
    proc.kill()
    proc.join(timeout=30)
    assert repr(estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, SPLIT_CFG)) == want
    new_pids = helper_pids()
    assert len(new_pids) == 1 and new_pids != [proc.pid]


@needs_fork
@pytest.mark.filterwarnings("error")
@pytest.mark.usefixtures("two_cores")
def test_helper_killed_in_its_range_is_walked_by_caller(monkeypatch):
    """A helper killed while it walks its range leaves that range to the
    caller, with the same bits; the next estimate forks a new helper.  The
    estimate used to raise EOFError."""
    want = repr(estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, SPLIT_CFG))
    wos._stop_helpers()
    caller = os.getpid()

    def dying_in_helper(*args):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)
        return _walk_range(*args)

    # the helper is forked after the patch, so it runs the patched function
    monkeypatch.setattr(wos, "_walk_range", dying_in_helper)
    assert repr(estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, SPLIT_CFG)) == want
    (proc, _), = wos._helpers
    proc.join(timeout=30)
    assert proc.exitcode == -signal.SIGKILL
    monkeypatch.setattr(wos, "_walk_range", _walk_range)
    assert repr(estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, SPLIT_CFG)) == want
    new_pids = helper_pids()
    assert len(new_pids) == 1 and new_pids != [proc.pid]


@needs_fork
@pytest.mark.filterwarnings("error")
@pytest.mark.usefixtures("two_cores")
def test_forked_child_forgets_helpers():
    """A process forked from one with helpers does not share their pipes."""
    estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, SPLIT_CFG)
    assert len(wos._helpers) == 1
    pid = os.fork()
    if pid == 0:
        os._exit(0 if wos._helpers == [] else 1)
    assert os.waitpid(pid, 0)[1] == 0
    assert len(wos._helpers) == 1


@needs_fork
@pytest.mark.filterwarnings("error")
@pytest.mark.usefixtures("two_cores")
def test_helper_error_reaches_caller(monkeypatch):
    def failing_in_helper(*args):
        lo, hi = args[-2:]
        if lo > 0:
            raise ZeroDivisionError("range %d-%d" % (lo, hi))
        return _walk_range(*args)

    # the helper is forked after the patch, so it runs the patched function
    monkeypatch.setattr(wos, "_walk_range", failing_in_helper)
    n = SPLIT_CFG.n_walks
    with pytest.raises(ZeroDivisionError, match="range %d-%d" % (n // 2, n)):
        estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, SPLIT_CFG)
    assert wos._helpers == []


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or not os.path.exists("/proc/thread-self/stat"),
    reason="helpers are kept off the caller's CPU through Linux affinity masks",
)


def affinity_spy(monkeypatch, usable, error=None):
    """Make the caller's usable mask `usable` and record each
    sched_setaffinity call as (pid, mask) instead of making it, raising
    `error` after recording it if given."""
    calls = []

    def spy(pid, mask):
        calls.append((pid, set(mask)))
        if error is not None:
            raise error

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(usable))
    monkeypatch.setattr(os, "sched_setaffinity", spy)
    return calls


def one_core_repr(monkeypatch, cfg):
    with monkeypatch.context() as m:
        m.setattr(wos, "_usable_cores", lambda: 1)
        return repr(estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, cfg))


@needs_fork
@pytest.mark.filterwarnings("error")
@pytest.mark.usefixtures("two_cores")
def test_helpers_are_kept_off_the_callers_cpu(monkeypatch):
    """Before each split every helper gets the caller's usable mask less
    the CPU the caller runs on, read again at every split; the caller's
    own mask is never set, and the bytes are the one-core run's."""
    cfg = WosConfig(3 * wos._MIN_PART, seed=5)
    want = one_core_repr(monkeypatch, cfg)
    monkeypatch.setattr(wos, "_usable_cores", lambda: 3)
    calls = affinity_spy(monkeypatch, {0, 1, 2, 3})
    for cpu in (2, 0):
        monkeypatch.setattr(wos, "_caller_cpu", lambda cpu=cpu: cpu)
        del calls[:]
        assert repr(estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, cfg)) == want
        pids = helper_pids()
        assert len(pids) == 2
        assert calls == [(pid, {0, 1, 2, 3} - {cpu}) for pid in pids]
        assert os.getpid() not in pids
    # an estimate too small to split sets no mask
    del calls[:]
    estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, WosConfig(wos._MIN_PART, seed=5))
    assert calls == []


def unreadable_cpu():
    raise OSError(2, "No such file or directory")


@needs_fork
@pytest.mark.filterwarnings("error")
@pytest.mark.usefixtures("two_cores")
@pytest.mark.parametrize("why", ["cpu-unreadable", "no-other-cpu", "helper-exited"])
def test_helper_mask_failures_are_silent(monkeypatch, why):
    """Where the caller's CPU cannot be read, where it is the only usable
    CPU, or where a helper has exited before its mask is set, nothing
    escapes and the estimate keeps the one-core bytes."""
    want = one_core_repr(monkeypatch, SPLIT_CFG)
    calls = affinity_spy(
        monkeypatch, {1} if why == "no-other-cpu" else {0, 1},
        ProcessLookupError(3, "No such process") if why == "helper-exited" else None,
    )
    monkeypatch.setattr(wos, "_caller_cpu", unreadable_cpu if why == "cpu-unreadable" else lambda: 1)
    assert repr(estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, SPLIT_CFG)) == want
    assert len(wos._helpers) == 1
    assert calls == ([(helper_pids()[0], {0})] if why == "helper-exited" else [])


@needs_fork
@needs_affinity
@pytest.mark.filterwarnings("error")  # an unclosed /proc file would warn
@pytest.mark.usefixtures("two_cores")
def test_helper_mask_on_this_machine():
    """With real masks: the reader gives one of the caller's usable CPUs,
    the helper's mask is the caller's less one of its CPUs where it has
    two or more (the caller's otherwise, as under `taskset -c 0`), and the
    caller's mask is as before."""
    usable = os.sched_getaffinity(0)
    assert wos._caller_cpu() in usable
    estimate_harmonic_measure(QSYS, 1, 8.0, SPLIT_Z1, SPLIT_CFG)
    assert os.sched_getaffinity(0) == usable
    helper_mask = os.sched_getaffinity(helper_pids()[0])
    if len(usable) >= 2:
        assert helper_mask < usable and len(usable - helper_mask) == 1
    else:
        assert helper_mask == usable


@needs_fork
def test_no_helper_outlives_its_parent():
    """A Python process that splits an estimate and exits leaves no helper
    running; importing asymlab and an estimate too small to split load no
    multiprocessing."""
    script = textwrap.dedent(
        """
        import sys
        import asymlab
        from asymlab import wos
        from asymlab.geometry import PathSystem, SegmentalPath

        qsys = PathSystem((SegmentalPath.ray(0.0), SegmentalPath.ray(1.5707963267948966)))
        wos._usable_cores = lambda: 2
        wos.estimate_harmonic_measure(qsys, 1, 8.0, 2 + 2j, wos.WosConfig(wos._MIN_PART, seed=1))
        assert "multiprocessing" not in sys.modules
        wos.estimate_harmonic_measure(qsys, 1, 8.0, 2 + 2j, wos.WosConfig(wos._MIN_PART + 1, seed=1))
        print(*[proc.pid for proc, _ in wos._helpers])
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(wos.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.split()]
    assert len(pids) == 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# --- closed-form sectors ------------------------------------------------------

@pytest.mark.parametrize(
    "n, radius, frac, seed",
    [
        (2, 2.0, 0.5, 501),
        (2, 5.0, 0.3, 502),
        (3, 2.0, 0.5, 503),
        (3, 5.0, 0.3, 504),
        (5, 2.0, 0.5, 505),
        (5, 5.0, 0.3, 506),
        (None, 2.0, 0.5, 507),  # None: the quarter plane
        (None, 5.0, 0.3, 508),
    ],
)
def test_sector_oracle(n, radius, frac, seed):
    """Domain 1 of n equally spaced rays is the sector from the ray at
    2π/n to the next one counterclockwise; a start outside it would raise."""
    if n is None:
        sysm, theta0, width = QSYS, 0.0, math.pi / 2
    else:
        sysm, theta0, width = PathSystem.equally_spaced_rays(n), 2.0 * math.pi / n, 2.0 * math.pi / n
    R = 8.0
    z1 = radius * cmath.exp(1j * (theta0 + frac * width))
    est = estimate_harmonic_measure(sysm, 1, R, z1, WosConfig(50_000, seed=seed))
    want = sector_omega(z1, R, theta0, width)
    assert abs(est.omega_hat - want) <= 3.0 * est.ci95_halfwidth
