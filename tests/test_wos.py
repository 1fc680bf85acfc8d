import cmath
import math

import numpy as np
import pytest
from numpy.random import Generator, Philox

from asymlab.geometry import PathSystem, SegmentalPath, carleman_integral
from asymlab.wos import (
    StartOutsideDomainError,
    WosConfig,
    WosEstimate,
    _boundary_segments,
    _path_distance,
    _philox_angles,
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


def test_start_outside_raises():
    with pytest.raises(StartOutsideDomainError):
        estimate_harmonic_measure(QSYS, 1, 4.0, -1 + 1j, WosConfig(100))
    with pytest.raises(StartOutsideDomainError):  # outside the disk
        estimate_harmonic_measure(QSYS, 1, 4.0, 5 + 5j, WosConfig(100))
    with pytest.raises(StartOutsideDomainError):  # inside the shell
        estimate_harmonic_measure(
            QSYS, 1, 4.0, 4.0 * (1 - 1e-5) * cmath.exp(1j * 0.7), WosConfig(100)
        )


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


# --- the Philox stream --------------------------------------------------------

@pytest.mark.filterwarnings("error")  # a uint64 scalar overflow warning fails
@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 + 3, 2**63 - 1])
def test_philox_kernel_matches_numpy_stream(seed):
    walks = np.array([0, 1, 63, 64, 2**32 + 1], dtype=np.uint64)
    got = np.concatenate([_philox_angles(c, seed, walks) for c in range(1, 17)])
    assert got.shape == (64, walks.size)
    for col, i in enumerate(walks.tolist()):
        want = Generator(Philox(key=[seed, i])).uniform(0.0, 2.0 * math.pi, 64)
        assert got[:, col].tobytes() == want.tobytes()


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
