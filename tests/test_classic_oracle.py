"""The closed-form evaluation of the classic example against mpmath.

The oracle is the benchmark's dca_mp: the entire power series of f summed at
30 digits plus the digits its alternating terms cancel, which shares nothing
with the incomplete-gamma form the package uses.  |S| = |z|^{n/2} runs from
0.05 to 1000 for n = 1..8, on both sides of each regime boundary (the power
series below |S| = 2; the kernel's series, continued fraction and
asymptotic expansion at |w| + Re w = 4 and |w| = 40, with w = -+iS), and at
arguments across every sector, both sector edges included.
"""

import cmath
import importlib.util
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from asymlab.classic import ClassicDCA, eval_dca, log_dca
from asymlab.growth import Classic, eval_log


def _load_oracles():
    path = Path(__file__).resolve().parents[1] / "benchmark" / "oracles.py"
    spec = importlib.util.spec_from_file_location("benchmark_oracles", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


dca_mp = _load_oracles().dca_mp

NS = range(1, 9)
MODS = (0.05, 1.9, 2.1, 3.9, 4.1, 15.0, 39.0, 41.0, 300.0, 1000.0)
# arg z0 / (pi/n) inside the sector; -1 and 1 are its edges, where -iS or
# iS lies on the negative real axis
FRACS = (-1.0, -0.7, -0.2, 0.0, 0.45, 0.9, 1.0)


def _tol(S):
    return 2e-15 * max(1.0, S)


def _points(n, S):
    """One point per entry of FRACS at |z^{n/2}| = S, each in another sector."""
    r = S ** (2.0 / n)
    return [r * cmath.exp(1j * math.pi * (f + 2 * (i % n)) / n) for i, f in enumerate(FRACS)]


def _arg_err(got, want):
    return abs(float(mp.fmod(mp.mpf(got) - want + 3 * mp.pi, 2 * mp.pi) - mp.pi))


@pytest.mark.parametrize("n", NS)
def test_log_dca_matches_mpmath(n):
    # none of these points is near a zero of f, where ln f is ill-conditioned
    for S in MODS:
        zs = _points(n, S)
        for z, got in zip(zs, log_dca(zs, n)):
            with mp.workdps(30):
                want = mp.log(dca_mp(z, n))
                assert abs(got.real - float(want.real)) <= _tol(S), (z, got, want)
                assert _arg_err(got.imag, want.imag) <= _tol(S), (z, got, want)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_sector_edges(n):
    # on the edges and their floating-point neighbours, where rounding can
    # put arg S a hair past pi/2 and -iS or iS across the negative real axis
    for S in (3.0, 30.0, 300.0):
        r = S ** (2.0 / n)
        edges = [math.pi * (2 * j + 1) / n for j in range(n)] + [-math.pi / n]
        ths = [np.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)] + edges
        zs = [r * cmath.exp(1j * th) for th in ths]
        for z, got in zip(zs, log_dca(zs, n)):
            with mp.workdps(30):
                want = mp.log(dca_mp(z, n))
                assert abs(got.real - float(want.real)) <= _tol(S), (z, got, want)
                assert _arg_err(got.imag, want.imag) <= _tol(S), (z, got, want)


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_rotation_symmetry(n):
    # f(omega z) = omega f(z), omega = e^{2 pi i / n}
    for S in (1.0, 3.0, 50.0, 500.0):
        zs = np.array(_points(n, S))
        base = log_dca(zs, n)
        turned = log_dca(zs * cmath.exp(2j * math.pi / n), n)
        assert np.all(np.abs(turned.real - base.real) <= _tol(S))
        darg = np.angle(np.exp(1j * (turned.imag - base.imag - 2.0 * math.pi / n)))
        assert np.all(np.abs(darg) <= _tol(S))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_array_equals_single_points(n):
    # rings of 300 points at |S| = 30 and 300 take the kernel's series and
    # asymptotic expansion through several blocks of columns
    ring = np.exp(2j * math.pi * np.arange(300) / 300)
    zs = [z for S in MODS for z in _points(n, S)]
    zs += [S ** (2.0 / n) * u for S in (30.0, 300.0) for u in ring]
    mods = list(np.repeat(MODS, len(FRACS))) + [30.0] * 300 + [300.0] * 300
    whole = log_dca(zs, n)
    for z, S, w in zip(zs, mods, whole):
        one = log_dca([z], n)
        assert one.shape == (1,)
        assert abs(one[0].real - w.real) <= 1e-15 * max(1.0, S)
        assert abs(np.angle(np.exp(1j * (one[0].imag - w.imag)))) <= 1e-15 * max(1.0, S)


def test_log_dca_zero_and_validation():
    assert log_dca([0.0], 3)[0] == complex(-math.inf, 0.0)
    assert log_dca([], 2).shape == (0,)
    with pytest.raises(ValueError):
        log_dca([1.0], 0)


def test_past_double_range():
    # n = 4 at r = 28 on the sector edge: |f| is about e^784
    z = 28.0 * cmath.exp(1j * math.pi / 4)
    with mp.workdps(30):
        want = mp.log(dca_mp(z, 4))
    lc = eval_log(Classic(ClassicDCA(4)), z)
    assert lc.log_mod > 709.8
    assert lc.log_mod == pytest.approx(float(want.real), abs=_tol(784.0))
    assert _arg_err(lc.arg, want.imag) <= _tol(784.0)
    with pytest.raises(OverflowError, match="log_dca"):
        eval_dca(z, ClassicDCA(4))
