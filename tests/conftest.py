"""Shared helpers: randomized admissible path systems and fixtures."""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from asymlab import growth
from asymlab.geometry import PathSystem, SegmentalPath


@pytest.fixture(autouse=True)
def _scans_take_at_most_six_calls(monkeypatch):
    """No circle scan anywhere in the suite makes more than six evaluator
    calls: one for its coarse probes (in chunks of at most _MAX_PROBES) and
    at most five polish steps, as many as the grid-only polish took at
    coarse 64."""
    inner = growth._refine

    def counted(g, *args):
        steps = []

        def g_counted(*a):
            steps.append(None)
            return g(*a)

        used = inner(g_counted, *args)
        assert len(steps) <= 5, "a scan took %d polish steps" % len(steps)
        return used

    monkeypatch.setattr(growth, "_refine", counted)


def make_random_system(seed: int, n: int | None = None) -> PathSystem:
    """Random admissible path system: n paths in disjoint angular
    corridors, each a short kinked polyline plus a ray, so simplicity and
    pairwise disjointness hold by construction."""
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 5))
    base = rng.uniform(0.0, 2.0 * math.pi)
    # angular positions with a guaranteed minimum gap
    gaps = rng.uniform(1.0, 2.0, n)
    gaps = gaps / gaps.sum() * 2.0 * math.pi
    angles = base + np.concatenate([[0.0], np.cumsum(gaps[:-1])])
    min_gap = gaps.min()
    paths = []
    for th in angles:
        delta = rng.uniform(-0.2, 0.2) * min_gap
        r1 = rng.uniform(0.5, 2.0)
        vertices = [0j, r1 * cmath.exp(1j * (th + delta))]
        paths.append(SegmentalPath(vertices, cmath.exp(1j * th)))
    return PathSystem(tuple(paths))


def domain_probe_point(sys: PathSystem, j: int, radius: float) -> complex:
    """A point of domain j at the given radius (mid-angle of its largest
    arc there)."""
    from asymlab.geometry import angular_measure

    sl = angular_measure(sys, j, radius)
    a, b = max(sl.arcs, key=lambda ab: ab[1] - ab[0])
    return radius * cmath.exp(1j * 0.5 * (a + b))
