import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

from asymlab import wos
from asymlab.geometry import PathSystem, SegmentalPath, carleman_integral
from asymlab.wos import (
    StartOutsideDomainError,
    WosConfig,
    WosEstimate,
    _boundary_segments,
    _path_distance,
    _angles,
    _philox_words,
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


# --- the Philox stream --------------------------------------------------------

@pytest.mark.filterwarnings("error")  # a uint64 scalar overflow warning fails
@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 + 3, 2**63 - 1])
def test_philox_kernel_matches_numpy_stream(seed):
    walks = np.array([0, 1, 63, 64, 2**32 + 1], dtype=np.uint64)
    got = np.concatenate(
        [_angles(_philox_words(np.full(walks.size, c, dtype=np.uint64), seed, walks)) for c in range(1, 17)]
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
    angles = _angles(words)
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


# --- the distance kernel ------------------------------------------------------

def broadcast_path_distance(pos, segs):
    """The (points × segments) broadcast form of _path_distance: a
    reference for its bits."""
    a = segs[:, 0][None, :]
    d = (segs[:, 1] - segs[:, 0])[None, :]
    p = pos[:, None]
    t = ((p - a) * d.conjugate()).real / (d * d.conjugate()).real
    np.clip(t, 0.0, 1.0, out=t)
    return np.abs(p - (a + t * d)).min(axis=1)


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
    assert segs.shape[1] == 2 and segs.shape[0] in (2, 4)
    rng = np.random.default_rng(segs.shape[0])
    random_pts = rng.uniform(-9.0, 9.0, 5001) + 1j * rng.uniform(-9.0, 9.0, 5001)
    a, b = segs[:, 0], segs[:, 1]
    t = np.linspace(0.0, 1.0, 33)
    on_segments = (a[:, None] + t[None, :] * (b - a)[:, None]).ravel()
    for pos in (random_pts, on_segments, np.concatenate([a, b]), np.array([0.3 + 0.2j])):
        assert _path_distance(pos, segs).tobytes() == broadcast_path_distance(pos, segs).tobytes()
    assert np.all(_path_distance(a, segs) == 0.0)


def reference_estimate(sys, j, R, z1, cfg):
    """Walk-on-spheres with one numpy Generator(Philox(key=[seed, i])) per
    walk and 64 draws buffered per walk: a reference for the array
    kernel's streams and loop.  Returns the estimate and the rounds run."""
    segs = _boundary_segments(sys, j, R)
    shell = cfg.eps_shell * R
    n = cfg.n_walks
    gens = [Generator(Philox(key=[cfg.seed, i])) for i in range(n)]
    buf = np.array([g.uniform(0.0, 2.0 * math.pi, 64) for g in gens])
    pos = np.full(n, complex(z1), dtype=complex)
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
        col = step % 64
        if step and col == 0:
            for i in alive:
                buf[i] = gens[i].uniform(0.0, 2.0 * math.pi, 64)
        pos[alive] = p + rad * np.exp(1j * buf[alive, col])
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


def test_peak_memory_of_large_estimate():
    """Traced peak of a 100k-walk estimate: 2.90 MB measured with numpy
    2.4, the same at 20k and 400k walks, since at most _BLOCK walks are
    live.  Bounded at 4 MB, a margin of 1.1 MB for other numpy builds;
    with every walk live at once the 100k walks peaked at 12.9 MB."""
    z1 = 3.0 * cmath.exp(1j * 0.6)
    for n_walks in (100_000, 400_000):
        tracemalloc.start()
        try:
            estimate_harmonic_measure(QSYS, 1, 8.0, z1, WosConfig(n_walks, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, n_walks


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
