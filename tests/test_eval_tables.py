"""The lean evaluation path: per-order tables built once and shared
read-only, the targets of a construction by one stacked Horner pass, and
zero-size calls.

Like tests/test_batch_invariance.py these compare bits, so CI also runs
them with numpy's SIMD dispatch off.
"""

import math

import numpy as np
import pytest

from asymlab import construct, gammainc
from asymlab.classic import log_dca
from asymlab.construct import ConstructedF, log_f, log_residual
from asymlab.gammainc import log_gamma_upper
from asymlab.growth import Constructed, trace_ray
from asymlab.specs import Polynomial, Series


def _points(rng, size, r_max):
    r = np.exp(rng.uniform(math.log(0.05), math.log(r_max), size))
    return r * np.exp(1j * rng.uniform(-math.pi, math.pi, size))


def _targets(n, rng):
    """n complex polynomials of seeded degrees 0..3, as coefficient lists."""
    return [list(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)) for d in rng.integers(0, 4, n)]


@pytest.mark.parametrize("n", range(2, 9))
def test_stacked_horner_is_per_target_horner(n):
    # every target shares one Horner pass over zero-padded coefficients,
    # which must give each row the bits of the target's own call
    rng = np.random.default_rng(300 + n)
    coeffs = _targets(n, rng)
    poly = ConstructedF(n, tuple(Polynomial(c) for c in coeffs))
    series = ConstructedF(n, tuple(Series(c, 1e6) for c in coeffs))
    assert np.array_equal(poly._horner, series._horner)
    z = _points(rng, 500, 2000.0 ** (1.0 / n))
    assert np.array_equal(log_f(z, poly), log_f(z, series))
    for i in range(n):
        assert np.array_equal(construct._targets(z, poly)[i], series.a_list[i](z))


def _cached_arrays(n):
    cf = ConstructedF(n, tuple(Polynomial([1.0, 0.5j]) for _ in range(n)))
    order = construct._order_tables(n)
    arrays = [order.lgs, order.dft, order.phase, cf._horner]
    for t in (order.gamma, gammainc._s_tables((2.0 / n - 1.0,))):
        arrays += [t.s, t.gs, t.inv_s, t.inv_sk, t.b, t.a]
    return arrays


@pytest.mark.parametrize("n", [2, 3, 8])
def test_cached_tables_are_read_only(n):
    for table in _cached_arrays(n):
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0.0


def test_other_orders_leave_the_bytes_alone():
    rng = np.random.default_rng(7)
    cfs = {n: ConstructedF(n, tuple(Polynomial(c) for c in _targets(n, rng))) for n in (3, 4)}
    z = _points(rng, 200, 2000.0 ** (1.0 / 3.0))

    def fresh(*orders):
        construct._order_tables.cache_clear()
        gammainc._s_tables.cache_clear()
        return [log_f(z, cfs[n]).tobytes() for n in orders]

    (alone,) = fresh(3)
    first, _, again = fresh(3, 4, 3)
    assert first == alone and again == alone


def test_zero_size_calls():
    cf = ConstructedF(3, (Polynomial([1]), Polynomial([0, 1]), Series([2.0], 10.0)))
    empty = np.zeros(0, complex)
    for got in (log_f(empty, cf), log_residual(empty, 2, cf), log_dca(empty, 3), log_dca(empty, 1)):
        assert got.shape == (0,) and got.dtype == complex
    got = log_gamma_upper(np.array([[0.25], [0.5]]), empty, empty)
    assert got.shape == (2, 0)
    assert trace_ray(Constructed(cf), 1, []) == []
