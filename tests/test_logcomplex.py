import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymlab.gammainc import _ERRSTATE, log_sum
from asymlab.logcx import (
    LC_ONE,
    LC_ZERO,
    CancellationWarning,
    LogComplex,
    lc_add,
    lc_mul,
    wrap_angle,
)

finite_lc = st.builds(
    LogComplex,
    st.floats(-500.0, 500.0),
    st.floats(-math.pi, math.pi).map(wrap_angle),
)


def test_identity_times_i():
    r = lc_mul(LogComplex(0.0, 0.0), LogComplex(0.0, math.pi / 2))
    assert r == LogComplex(0.0, math.pi / 2)


def test_reciprocal_pair():
    r = lc_mul(LogComplex(100.0, 1.0), LogComplex(-100.0, -1.0))
    assert r == LC_ONE


def test_zero_absorbs():
    assert lc_mul(LC_ZERO, LogComplex(500.0, 2.0)) == LC_ZERO
    assert lc_add(LogComplex(0.0, 0.0), LC_ZERO) == LogComplex(0.0, 0.0)


def test_add_3_plus_4i():
    a = LogComplex(math.log(3), 0.0)
    b = LogComplex(math.log(4), math.pi / 2)
    r = lc_add(a, b)
    assert r.log_mod == pytest.approx(math.log(5), abs=1e-14)
    assert r.arg == pytest.approx(math.atan2(4, 3), abs=1e-14)


def test_add_huge_plus_one():
    # e^200 + 1 = e^200 to double precision
    r = lc_add(LogComplex(200.0, 0.0), LogComplex(0.0, 0.0))
    assert r.log_mod == pytest.approx(200.0, abs=1e-12)


def test_cancellation_warning():
    a = LogComplex(50.0, 0.0)
    b = LogComplex(50.0 + 1e-14, math.pi)  # almost exactly -a
    with pytest.warns(CancellationWarning):
        lc_add(a, b)


def test_near_exact_cancellation():
    a = LogComplex(7.0, 0.3)
    b = LogComplex(7.0, wrap_angle(0.3 + math.pi))
    with pytest.warns(CancellationWarning):
        r = lc_add(a, b)
    # at least ten digits cancelled away (or an exact zero)
    assert r.is_zero or r.log_mod < a.log_mod + math.log(1e-10)


def test_log_sum_cancellation_warning():
    # column 0 keeps 1e-12 of its top term, column 1 all of it
    terms = np.log(np.array([[1.0, 2.0], [-1.0 + 1e-12, 3.0]], complex))
    with np.errstate(**_ERRSTATE), pytest.warns(CancellationWarning, match="sum of 2 terms"):
        out = log_sum(terms)
    assert out[0].real == pytest.approx(math.log(1e-12), abs=1e-3)
    assert out[1] == pytest.approx(math.log(5.0))


def test_log_sum_non_finite_column():
    # an all -inf column sums to -inf without a warning, and the finite
    # columns beside it keep the bits each has summed alone
    with np.errstate(**_ERRSTATE), warnings.catch_warnings():
        warnings.simplefilter("error")
        terms = np.log(np.array([[1.0, 0.0, 2.0 - 1j, 1e300], [3j, 0.0, -4.0, 0.0]], complex))
        out = log_sum(terms)
        alone = [log_sum(terms[:, [i]])[0] for i in (0, 2, 3)]
    assert out[1] == complex(-math.inf, 0.0)
    assert [out[0], out[2], out[3]] == alone


@given(z=st.complex_numbers(min_magnitude=1e-300, max_magnitude=1e300, allow_nan=False, allow_infinity=False))
def test_roundtrip(z):
    back = LogComplex.from_complex(z).to_complex()
    assert abs(back - z) <= 1e-13 * abs(z)


@given(a=finite_lc, b=finite_lc)
def test_mul_law_and_commutativity(a, b):
    r = lc_mul(a, b)
    assert r.log_mod == a.log_mod + b.log_mod
    # a cancelling pair warns in both orders alike; recording the warnings
    # keeps them out of the suite's output
    s_ab, warned_ab = _add_recording_warnings(a, b)
    s_ba, warned_ba = _add_recording_warnings(b, a)
    assert warned_ab == warned_ba
    assert s_ab == s_ba  # bit-for-bit


def _add_recording_warnings(a, b):
    """lc_add(a, b) and the number of CancellationWarnings it raised."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        out = lc_add(a, b)
    return out, sum(issubclass(w.category, CancellationWarning) for w in seen)


@given(a=finite_lc, b=finite_lc, c=finite_lc)
def test_mul_associativity(a, b, c):
    r1 = lc_mul(lc_mul(a, b), c)
    r2 = lc_mul(a, lc_mul(b, c))
    assert r1.log_mod == pytest.approx(r2.log_mod, rel=1e-12, abs=1e-12)
    assert cmath.exp(1j * r1.arg) == pytest.approx(cmath.exp(1j * r2.arg), abs=1e-12)


def test_reciprocal_and_zero_division():
    x = LogComplex(3.0, 0.5)
    assert lc_mul(x, x.reciprocal()) == LC_ONE
    with pytest.raises(ZeroDivisionError):
        LC_ZERO.reciprocal()
