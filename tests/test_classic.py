import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymlab.classic import ClassicDCA, dca_asymptotic_value, eval_dca

# frozen 25-digit oracle: integral of sin(t)/t over [0, 1]
SI_1 = 0.9460830703671830149414


def test_zero():
    assert eval_dca(0.0, ClassicDCA(2)) == 0j


def test_sine_integral_values():
    cfg = ClassicDCA(2)
    assert eval_dca(1.0, cfg) == pytest.approx(SI_1, abs=1e-12)
    # Si(R) - pi/2 is bounded by ~1/R
    assert abs(eval_dca(40.0, cfg) - math.pi / 2) < 0.03


def test_asymptotic_values_n2():
    assert dca_asymptotic_value(0, 2) == pytest.approx(math.pi / 2, abs=1e-8)
    assert dca_asymptotic_value(1, 2) == pytest.approx(-math.pi / 2, abs=1e-8)


def test_asymptotic_value_n3_oracle():
    # frozen 30-digit oracle for (2/3) * integral of u^{-4/3} sin u
    assert dca_asymptotic_value(0, 3) == pytest.approx(1.354117939426400417, abs=1e-10)


@pytest.mark.parametrize("n", range(1, 13))
def test_asymptotic_value_mpmath_oracle(n):
    # independent Mellin form (2/n) Gamma(s) sin(pi s / 2), s = 2/n - 1,
    # continued to pi/2 at n = 2 (s = 0) and to 2 at n = 1
    with mp.workdps(40):
        s = mp.mpf(2) / n - 1
        want = mp.pi / 2 if n == 2 else 2 / mp.mpf(n) * mp.gamma(s) * mp.sin(mp.pi * s / 2)
        want = float(want)
    assert dca_asymptotic_value(0, n) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_values_pairwise_distinct(n):
    vals = [dca_asymptotic_value(nu, n) for nu in range(n)]
    for i in range(n):
        assert abs(vals[i]) > 0.1  # A_n != 0
        for k in range(i + 1, n):
            assert abs(vals[i] - vals[k]) > 1e-6


def test_rotation_structure():
    n = 4
    a0 = dca_asymptotic_value(0, n)
    for nu in range(n):
        want = cmath.exp(2j * math.pi * nu / n) * a0
        assert dca_asymptotic_value(nu, n) == pytest.approx(want, abs=1e-12)


@given(
    re=st.floats(-8.0, 8.0),
    im=st.floats(-8.0, 8.0),
    wre=st.floats(-4.0, 4.0),
    wim=st.floats(-4.0, 4.0),
    n=st.integers(2, 3),
)
@settings(max_examples=25, deadline=None)
def test_path_independence(re, im, wre, wim, n):
    z = complex(re, im)
    if abs(z) < 0.2:
        return
    cfg = ClassicDCA(n)
    direct = eval_dca(z, cfg, 1e-10)
    via = eval_dca(z, cfg, 1e-10, path=[0, complex(wre, wim), z])
    assert abs(direct - via) <= 2e-9 * max(1.0, abs(direct))


@pytest.mark.parametrize("n,nu", [(2, 0), (2, 1), (3, 1)])
def test_ray_convergence(n, nu):
    cfg = ClassicDCA(n)
    target = dca_asymptotic_value(nu, n)
    errs = [
        abs(eval_dca(r * cmath.exp(2j * math.pi * nu / n), cfg) - target)
        for r in (10.0, 20.0, 40.0)
    ]
    assert errs[0] > errs[1] > errs[2]


def test_series_beyond_cutoff_continues_by_quadrature():
    cfg = ClassicDCA(2)
    inside = eval_dca(cfg.series_cutoff_radius * 0.999, cfg)
    outside = eval_dca(cfg.series_cutoff_radius * 1.001, cfg)
    assert abs(outside - inside) < 0.1  # continuity across the switch


def test_default_cutoff_scales_with_n():
    assert ClassicDCA(2).series_cutoff_radius == pytest.approx(12.0)
    assert ClassicDCA(3).series_cutoff_radius < 6.0


def test_n_must_be_an_integer():
    for n in (2.0, 2.5, True):
        with pytest.raises(ValueError, match="integer"):
            ClassicDCA(n)
    cfg = ClassicDCA(np.int64(2))
    assert cfg == ClassicDCA(2) and type(cfg.n) is int


def test_validation():
    with pytest.raises(ValueError):
        ClassicDCA(0)
    with pytest.raises(ValueError):
        dca_asymptotic_value(2, 2)
    with pytest.raises(ValueError):
        eval_dca(1.0, ClassicDCA(2), tol=-1.0)
    with pytest.raises(ValueError):
        eval_dca(1.0, ClassicDCA(2), tol=math.nan)
    # a tol below every representable term runs the series to its end
    assert eval_dca(1.0, ClassicDCA(2), tol=5e-324) == pytest.approx(SI_1, abs=1e-12)
